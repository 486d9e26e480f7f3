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
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Tensor, gather_rows, no_grad
from .errors import (
    AlignmentError,
    ConfigError,
    DivergenceError,
    LossUndefinedError,
    UndefinedMetricError,
)
from .featurize import ComplexGraph, build_knn_graph, corrupt_coordinates
from .metrics import lddt_ca, lddt_pairs
from .model import ModelConfig, check_field_types, forward_pass, init_params
from .structio import (
    AtomIndex,
    ComplexStructure,
    kabsch_superpose,
    match_atoms,
    rmsd_without_superposition,
)

HUBER_DELTA = 1.0
GRAD_CLIP_NORM = 1.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class RunConfig:
    """Optimizer and schedule settings of a training run."""

    seed: int = 0
    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    max_epochs: int = 1000
    patience: int = 50

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigError("learning_rate must be > 0 and weight_decay >= 0")
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("max_epochs and patience must be >= 1")


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

    @property
    def supervised(self) -> bool:
        """Whether any atom or residue of the example has a target."""
        return self.matched_nodes.size > 0 or self.lddt_nodes.size > 0


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
    correspondence = match_atoms(decoy, AtomIndex(native))
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

    graph = build_knn_graph(decoy, config)
    node_of_atom = np.full(decoy.num_atoms, -1, dtype=np.intp)
    node_of_atom[graph.node_atom_indices] = np.arange(graph.num_nodes)

    nodes = node_of_atom[correspondence.pairs[:, 0]]
    matched = nodes >= 0
    matched_nodes = nodes[matched]
    native_coords = native_coords_all[correspondence.pairs[matched, 1]]

    try:
        labels, _ = lddt_ca(decoy, lddt_pairs(native), correspondence)
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
    if not example.supervised:
        raise LossUndefinedError(f"example {example.decoy_id!r} carries no supervision")
    loss: Tensor | None = None
    if example.matched_nodes.size:
        residual = gather_rows(fp.coords, example.matched_nodes) - Tensor(
            example.native_coords
        )
        small = (np.abs(residual.data) < HUBER_DELTA).astype(np.float64)
        sign = np.sign(residual.data)
        quadratic = residual * residual * 0.5
        linear = residual * sign * HUBER_DELTA - 0.5 * HUBER_DELTA * HUBER_DELTA
        term = (quadratic * small + linear * (1.0 - small)).mean()
        loss = term * config.psr_loss_weight
    if example.lddt_nodes.size:
        predicted = gather_rows(fp.qa, example.lddt_nodes)
        diff = predicted - Tensor(example.lddt_targets[:, None])
        term = (diff * diff).mean() * config.qa_loss_weight
        loss = term if loss is None else loss + term
    return loss


def backward(
    example: TrainingExample,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    graph: ComplexGraph | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss value and exact parameter gradients for one example.

    ``graph`` may substitute the example's graph (a corrupted copy during
    training). Raises LossUndefinedError when no supervision exists; a
    non-finite loss or gradient is returned as it is.
    """
    graph = example.graph if graph is None else graph
    fp = forward_pass(graph, params, config)
    loss = _loss_tensor(example, fp, config)
    loss.backward()
    grads = {
        name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        for name, leaf in fp.leaves.items()
    }
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
    """Adam step count and moments; rate and decay come from RunConfig."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    run: RunConfig,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One update; parameters and state are modified in place and returned.

    Bias-corrected Adam moments with decoupled weight decay: the learning
    rate of ``run`` stays constant for the whole run, and its weight decay
    is applied directly to the parameters, not through the gradients.
    """
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        params[name] = params[name] - run.learning_rate * (
            m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        ) - run.learning_rate * run.weight_decay * params[name]
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
    _check_validation_set(examples)
    with no_grad():
        return _mean_rmsd(examples, lambda example: forward_pass(
            example.graph, params, config).coords.data)


def _mean_rmsd(examples: list[TrainingExample], coords_of) -> float:
    """Mean RMSD of ``coords_of(example)`` at the matched nodes against the
    reference coordinates, over the examples that have any."""
    return float(np.mean([
        rmsd_without_superposition(coords_of(example)[example.matched_nodes],
                                   example.native_coords)
        for example in examples if example.matched_nodes.size
    ]))


def _check_validation_set(examples: list[TrainingExample]) -> None:
    if not any(example.matched_nodes.size for example in examples):
        raise LossUndefinedError("no validation example has reference coordinates")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmsd: float
    best: bool

    def to_line(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    optimizer: OptimizerState  # the state the best parameters were saved with
    log: list[EpochRecord]
    best_epoch: int
    best_val_rmsd: float

    def log_lines(self) -> list[str]:
        return [record.to_line() for record in self.log]


# A diverging run overflows inside the network before the loop's finiteness
# checks see it; those raise DivergenceError, so numpy's warnings would only
# repeat the report in its own words.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_loop(
    train_examples: list[TrainingExample],
    val_examples: list[TrainingExample],
    config: ModelConfig,
    **settings,
) -> TrainResult:
    """Seeded training with early stopping on validation RMSD.

    ``settings`` are RunConfig fields, checked as RunConfig checks them;
    one left out takes its default. Parameters start from
    ``init_params(config, seed)``. Each epoch shuffles the training set,
    corrupts every example's coordinates with the configured noise (a
    zero sigma disables the corruption) and applies one AdamW step per
    supervised example; an unsupervised one draws its noise and is
    skipped. The best validation checkpoint is returned with the optimizer
    state of the same step; epoch 0 is the unrefined input, which the
    initial parameters reproduce, so a run in which no epoch beats it
    returns them. Training stops when validation RMSD has not improved for
    ``patience`` epochs. A non-finite loss, gradient or validation RMSD
    aborts with DivergenceError carrying the TrainResult so far. An epoch
    in which every example is skipped raises LossUndefinedError, and so
    does a validation set without reference coordinates, before the first
    step. Without ``val_examples`` the training set is validated on.
    """
    run = RunConfig(**settings)
    if not train_examples:
        raise ValueError("training set is empty")
    val_examples = val_examples or train_examples
    _check_validation_set(val_examples)
    params = init_params(config, run.seed)
    state = OptimizerState()
    result = TrainResult(copy.deepcopy(params), copy.deepcopy(state), [], 0,
                         _mean_rmsd(val_examples, lambda example: example.graph.coords))

    for epoch in range(1, run.max_epochs + 1):
        epoch_rng = np.random.default_rng([run.seed, epoch])
        order = epoch_rng.permutation(len(train_examples))
        losses = []
        for idx in order:
            example = train_examples[idx]
            graph = example.graph
            if config.noise_sigma > 0:
                graph = corrupt_coordinates(graph, config.noise_sigma, epoch_rng)
            if not example.supervised:
                continue
            loss, grads = backward(example, params, config, graph=graph)
            bad = [name for name, g in grads.items() if not np.all(np.isfinite(g))]
            if bad:
                raise DivergenceError(
                    f"epoch {epoch}: non-finite gradient in block {bad[0]}", result
                )
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}", result)
            clip_gradients(grads, GRAD_CLIP_NORM)
            params, state = adamw_step(params, grads, state, run)
            losses.append(loss)
        if not losses:
            raise LossUndefinedError("every training example was skipped")

        val_rmsd = validation_rmsd(val_examples, params, config)
        if not math.isfinite(val_rmsd):
            raise DivergenceError(f"non-finite validation RMSD at epoch {epoch}", result)
        improved = val_rmsd < result.best_val_rmsd
        if improved:
            result.params = copy.deepcopy(params)
            result.optimizer = copy.deepcopy(state)
            result.best_epoch, result.best_val_rmsd = epoch, val_rmsd
        result.log.append(EpochRecord(epoch, float(np.mean(losses)), val_rmsd, improved))
        if epoch - result.best_epoch >= run.patience:
            break
    return result
