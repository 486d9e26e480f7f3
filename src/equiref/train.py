"""Losses, optimizer, and the supervised training loop.

Refinement is supervised with a component-wise Huber loss over atoms that
have reference coordinates; quality assessment with a mean-squared error
against ground-truth per-residue LDDT at CA nodes. Either set may be
empty for a given example (semi-supervised masking). Gradients are exact,
computed by reverse accumulation through the whole network.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, gather_rows, no_grad
from .errors import (
    AlignmentError,
    DivergenceError,
    LossUndefinedError,
    NumericalFailureError,
    SkipExample,
    UndefinedMetricError,
)
from .featurize import ComplexGraph, corrupt_coordinates
from .metrics import lddt_ca
from .model import ModelConfig, build_graph, forward_pass, init_params
from .structio import (
    ComplexStructure,
    kabsch_superpose,
    match_atoms,
    rmsd_without_superposition,
)

HUBER_DELTA = 1.0
GRAD_CLIP_NORM = 1.0


@dataclass
class TrainingExample:
    """Decoy graph with its supervision targets in the decoy frame.

    ``matched_nodes``/``native_coords`` form the coordinate supervision set
    (may be empty); ``lddt_nodes``/``lddt_targets`` the quality supervision
    set over CA nodes (may be empty).
    """

    graph: ComplexGraph
    matched_nodes: np.ndarray   # (p,) node indices with reference coords
    native_coords: np.ndarray   # (p, 3)
    lddt_nodes: np.ndarray      # (c,) CA node indices with LDDT labels
    lddt_targets: np.ndarray    # (c,) values in [0, 1]
    target_id: str = ""
    decoy_id: str = ""


def make_training_example(
    decoy: ComplexStructure,
    native: ComplexStructure,
    config: ModelConfig,
    target_id: str = "",
    decoy_id: str = "",
) -> TrainingExample:
    """Build a training example from a decoy/native structure pair.

    The native is rigidly superposed onto the decoy over matched CA atoms
    (weight-free Kabsch) so the coordinate loss sees aligned frames;
    distance-based LDDT labels are unaffected by the alignment. Atoms and
    residues without a reference stay unsupervised.
    """
    correspondence = match_atoms(decoy, native)
    native_coords_all = native.coords
    ca = correspondence.matched_ca
    if len(ca) >= 3:
        try:
            rotation, translation, _ = kabsch_superpose(
                native.coords[ca[:, 1]], decoy.coords[ca[:, 0]]
            )
            native_coords_all = native_coords_all @ rotation.T + translation
        except AlignmentError:
            pass  # degenerate CA set: train in the original frames

    graph = build_graph(decoy, config)
    node_of_atom = np.full(decoy.num_atoms, -1, dtype=np.intp)
    node_of_atom[graph.node_atom_indices] = np.arange(graph.num_nodes)

    nodes = node_of_atom[correspondence.pairs[:, 0]]
    matched = nodes >= 0
    matched_nodes = nodes[matched]
    native_coords = native_coords_all[correspondence.pairs[matched, 1]]

    try:
        labels, _ = lddt_ca(decoy, native, correspondence)
    except UndefinedMetricError:
        labels = np.full(len(ca), np.nan)
    nodes = node_of_atom[ca[:, 0]]
    labelled = (nodes >= 0) & ~np.isnan(labels)
    lddt_nodes = nodes[labelled]
    lddt_targets = labels[labelled]

    return TrainingExample(
        graph=graph,
        matched_nodes=matched_nodes,
        native_coords=native_coords,
        lddt_nodes=lddt_nodes,
        lddt_targets=lddt_targets,
        target_id=target_id,
        decoy_id=decoy_id,
    )


def _loss_tensor(example: TrainingExample, fp, config: ModelConfig) -> Tensor:
    has_psr = example.matched_nodes.size > 0
    has_qa = example.lddt_nodes.size > 0
    if not has_psr and not has_qa:
        raise SkipExample(f"example {example.decoy_id!r} carries no supervision")
    loss: Tensor | None = None
    if has_psr:
        residual = gather_rows(fp.coords, example.matched_nodes) - Tensor(
            example.native_coords
        )
        small = (np.abs(residual.data) < HUBER_DELTA).astype(np.float64)
        sign = np.sign(residual.data)
        quadratic = residual * residual * 0.5
        linear = residual * sign * HUBER_DELTA - 0.5 * HUBER_DELTA * HUBER_DELTA
        term = (quadratic * small + linear * (1.0 - small)).mean()
        loss = term * config.psr_loss_weight
    if has_qa:
        predicted = gather_rows(fp.qa, example.lddt_nodes)
        diff = predicted - Tensor(example.lddt_targets[:, None])
        term = (diff * diff).mean() * config.qa_loss_weight
        loss = term if loss is None else loss + term
    return loss


def example_loss(
    example: TrainingExample,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    graph: ComplexGraph | None = None,
) -> float:
    """Total loss value for one example; no tape is built."""
    graph = example.graph if graph is None else graph
    with no_grad():
        fp = forward_pass(graph, params, config)
        return float(_loss_tensor(example, fp, config).data)


def backward(
    example: TrainingExample,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    graph: ComplexGraph | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss value and exact parameter gradients for one example.

    ``graph`` may substitute the example's graph (a corrupted copy during
    training). Raises SkipExample when no supervision exists and
    NumericalFailureError naming the first non-finite gradient block.
    """
    graph = example.graph if graph is None else graph
    fp = forward_pass(graph, params, config)
    loss = _loss_tensor(example, fp, config)
    loss.backward()
    grads: dict[str, np.ndarray] = {}
    for name, leaf in fp.leaves.items():
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        if not np.all(np.isfinite(grad)):
            raise NumericalFailureError(f"non-finite gradient in block {name}")
        grads[name] = grad
    return float(loss.data), grads


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam state with bias-corrected moments."""

    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One update; parameters and state are modified in place and returned.

    The learning rate stays constant for the whole run; weight decay is
    applied directly to the parameters, not through the gradients.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for name, grad in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        params[name] = params[name] - state.learning_rate * (
            m_hat / (np.sqrt(v_hat) + state.eps)
        ) - state.learning_rate * state.weight_decay * params[name]
    return params, state


def validation_rmsd(
    examples: list[TrainingExample],
    params: dict[str, np.ndarray],
    config: ModelConfig,
) -> float:
    """Mean full-complex RMSD of refined vs reference coordinates.

    Computed without re-superposition: decoy and reference frames are
    aligned when examples are built. No tape is built.
    """
    values = []
    for example in examples:
        if example.matched_nodes.size == 0:
            continue
        with no_grad():
            fp = forward_pass(example.graph, params, config)
        refined = fp.coords.data[example.matched_nodes]
        values.append(rmsd_without_superposition(refined, example.native_coords))
    if not values:
        raise LossUndefinedError("no validation example has reference coordinates")
    return float(np.mean(values))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmsd: float
    best: bool

    def to_line(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "train_loss": self.train_loss,
                "val_rmsd": self.val_rmsd,
                "best": self.best,
            }
        )


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    log: list[EpochRecord]
    best_epoch: int
    best_val_rmsd: float

    def log_lines(self) -> list[str]:
        return [record.to_line() for record in self.log]


def train_loop(
    train_examples: list[TrainingExample],
    val_examples: list[TrainingExample],
    config: ModelConfig,
    seed: int = 0,
    max_epochs: int = 1000,
    patience: int = 50,
    params: dict[str, np.ndarray] | None = None,
    optimizer: OptimizerState | None = None,
) -> TrainResult:
    """Seeded training with early stopping on validation RMSD.

    Each epoch shuffles the training set, corrupts every example's
    coordinates with the configured noise (a zero sigma disables the
    corruption), and applies one optimizer step per example. The best
    validation checkpoint among completed epochs is returned; training
    stops when validation RMSD has not improved for ``patience`` epochs.
    A non-finite loss aborts with DivergenceError carrying the last good
    checkpoint and the log so far.
    """
    if not train_examples:
        raise ValueError("training set is empty")
    if params is None:
        params = init_params(config, seed)
    state = optimizer if optimizer is not None else OptimizerState()

    best_params = copy.deepcopy(params)
    best_rmsd = math.inf
    best_epoch = 0
    bad_epochs = 0
    log: list[EpochRecord] = []

    for epoch in range(1, max_epochs + 1):
        epoch_rng = np.random.default_rng([seed, epoch])
        order = epoch_rng.permutation(len(train_examples))
        losses = []
        for idx in order:
            example = train_examples[idx]
            graph = example.graph
            if config.noise_sigma > 0:
                graph = corrupt_coordinates(graph, config.noise_sigma, epoch_rng)
            try:
                loss, grads = backward(example, params, config, graph=graph)
            except SkipExample:
                continue
            except NumericalFailureError as exc:
                raise DivergenceError(
                    f"epoch {epoch}: {exc}", last_good=best_params, log=log
                ) from None
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}",
                    last_good=best_params,
                    log=log,
                )
            clip_gradients(grads, GRAD_CLIP_NORM)
            params, state = adamw_step(params, grads, state)
            losses.append(loss)
        if not losses:
            raise ValueError("every training example was skipped")

        val_rmsd = validation_rmsd(val_examples or train_examples, params, config)
        improved = val_rmsd < best_rmsd
        if improved:
            best_rmsd = val_rmsd
            best_epoch = epoch
            best_params = copy.deepcopy(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
        log.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                val_rmsd=val_rmsd,
                best=improved,
            )
        )
        if bad_epochs >= patience:
            break

    return TrainResult(
        params=best_params,
        log=log,
        best_epoch=best_epoch,
        best_val_rmsd=best_rmsd,
    )
