"""The equivariant refinement network.

A stack of message-passing layers updates node embeddings and 3D
coordinates so that rigid motions of the input graph (including
reflections) commute with the network: coordinates transform, embeddings
and quality outputs do not. From a structure, rotations and translations
commute end to end; reflections also change the chiral features (residue
frames, their relative quaternion, c-alpha backbone dihedrals), so they
commute only for all-atom graphs built with ``include_geometric=False``.

Each layer combines an edge-message MLP, a normalized radial coordinate
update with a learnable skip back to the input coordinates, global linear
attention plus block-local softmax attention over the embeddings, and a
gated node update. A quality head maps final embeddings to per-node scores
in [0, 1], read out at CA nodes.

The edge-message MLP's first layer reads [h_i, h_j, a_ij, |x_i - x_j|^2]
and is linear, so a layer splits its weight ``msg_mlp.w1`` by rows: the
h_i and h_j rows multiply the node embeddings once per layer, each edge
row reads its two node products by index, and only the edge-feature and
squared-distance rows run per edge. The per-edge concatenation of width
2d + E + 1 is never built; ``msg_mlp.w1`` keeps that shape and row order.
The MLP's output layer is linear too and feeds only the coordinate gate's
first layer and the node MLP's mean-message rows ``w1_m``, so it is
folded into both: an edge's gate reads the message MLP's hidden layer
through ``w2 @ cw1``, and the node MLP reads the mean hidden layer through
``w2 @ w1_m``, with ``b2 @ w1_m`` joining its bias. No per-edge message
and no mean message is formed. The message MLP's bias enters with the
h_i product, once per node. A block's edge work (the message MLP's first
layer and norm, the folded gate and the radial update) is one
``autodiff.edge_block`` op with a hand-derived backward.

Every MLP's first-layer weight and bias are centred over their output
columns once per layer, on the tape (the stored parameters are as they
were), so each pre-activation row has mean zero: the layer norm then
needs no row-mean pass and is one ``autodiff.rms_norm_leaky_relu`` op
with the leaky ReLU (inside ``edge_block``, its kernels). The splits and
folds above are linear in the centred blocks, so what they make stays
centred; the function and its gradients are those of the uncentred layer
norm.

A layer runs over windows of ``window_size`` nodes, each one window of the
local attention and one ``autodiff.checkpoint``. A window runs its nodes'
edge work in blocks of at most ``EDGE_BLOCK // k`` whole nodes, one
``edge_block`` op each, reading the coordinates and the per-node message
products by rows and keeping only each node's coordinate shift and mean
hidden message. Then it runs the skip mix, the local attention, the node
MLP and the node skip on its rows. The node MLP's first layer reads
[h, m_agg, attention, f_emb] and is linear, so ``node_mlp.w1`` is split by
rows like ``msg_mlp.w1``, and the global attention h @ M, with the d x d
M = wq wk^T (h^T h) wv / n, folds into its h rows as w1_h + M w1_a: one
more checkpoint per layer, the only one that reads all rows of h. The
backward pass re-runs one checkpoint at a time over its own input tensors
and walks its tape at once down to them, so each window's rows and dense
terms land straight in the inputs' gradients, and training holds the tape
of one window (at most ``window_size`` nodes, one tape node per block of
``EDGE_BLOCK`` edge rows, which keeps that block's rows) plus O(n d) per
layer. Under ``no_grad()`` the checkpoints are plain calls, and a layer
holds O(n d) plus one window's rows.

``ModelConfig`` is the one home of the model and graph settings, their
defaults and their checks; ``featurize.build_knn_graph`` reads the graph
settings from it. The input feature widths are not settings: they follow
from the granularity and the two feature ablation flags. The leaky ReLU
slope and the radial normalization constant are fixed: ``LEAKY_SLOPE``,
``NORM_CONSTANT``.

Parameters live in a flat name -> float64 array mapping with a canonical
block order; the same order drives the binary weights container.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .autodiff import (
    Tensor,
    affine,
    checkpoint,
    concat,
    edge_block,
    no_grad,
    rms_norm_leaky_relu,
    slice_rows,
    softmax_rows,
)
from .errors import (
    ConfigError,
    WeightsHeaderError,
    WeightsShapeError,
    WeightsTruncatedError,
    WeightsVersionError,
)
from .featurize import EDGE_BLOCK, GRANULARITIES, ComplexGraph, feature_widths

# bytes one parameter block holds at hidden_dim 1 (name, array, dict entry):
# tracemalloc measured 116 MB for the 480,010 blocks of 20,000 layers
_BLOCK_BYTES = 243
WEIGHTS_MAGIC = b"EGRW"
WEIGHTS_VERSION = 1
LEAKY_SLOPE = 0.01   # negative-side slope of every MLP's leaky ReLU
NORM_CONSTANT = 1.0  # added to each edge length in the radial update

_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real,
                "bool": (bool, np.bool_), "str": str}


def check_field_types(config) -> None:
    """Raise ConfigError unless each dataclass field holds its declared type.

    Booleans do not count as numbers, and float values must be finite.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        is_bool = isinstance(value, (bool, np.bool_))
        if is_bool != (f.type == "bool") or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass
class ModelConfig:
    """Model, featurization and loss settings; defaults follow the tuned values."""

    num_layers: int = 7
    hidden_dim: int = 64
    psr_loss_weight: float = 1.0
    qa_loss_weight: float = 0.05
    attention_enabled: bool = True
    window_size: int = 128
    noise_sigma: float = 0.1
    granularity: str = "all-atom"
    include_surface: bool = True
    include_geometric: bool = True
    k_neighbors: int = 20

    def __post_init__(self):
        check_field_types(self)
        if self.num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if self.window_size < 1:
            raise ConfigError("window_size must be >= 1")
        if self.k_neighbors < 1:
            raise ConfigError("k_neighbors must be >= 1")
        if self.psr_loss_weight < 0 or self.qa_loss_weight < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"unknown granularity {self.granularity!r}")

    @property
    def node_feat_dim(self) -> int:
        return feature_widths(self)[0]

    @property
    def edge_feat_dim(self) -> int:
        return feature_widths(self)[1]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Inverse of ``to_dict``.

        Older containers also store the two feature widths and the former
        settings ``leaky_slope`` and ``norm_constant``; each is accepted
        when it equals the value this version derives or fixes.
        """
        settings = {f.name for f in fields(cls)}
        config = cls(**{key: value for key, value in data.items() if key in settings})
        fixed = {"node_feat_dim": config.node_feat_dim,
                 "edge_feat_dim": config.edge_feat_dim,
                 "leaky_slope": LEAKY_SLOPE, "norm_constant": NORM_CONSTANT}
        unknown = set(data) - settings - set(fixed)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in fixed.items():
            if key in data and data[key] != value:
                raise ConfigError(f"stored {key} {data[key]!r} != {value!r}")
        return config


@dataclass
class RefinementResult:
    refined_coords: np.ndarray   # (n, 3)
    embeddings: np.ndarray       # (n, hidden_dim)
    predicted_lddt: np.ndarray   # (n_ca,) in [0, 1]
    ca_node_indices: np.ndarray  # node indices carrying the scores


def _mlp_shapes(prefix: str, in_dim: int, hidden: int, out_dim: int) -> list[tuple[str, tuple]]:
    return [
        (prefix + "w1", (in_dim, hidden)),
        (prefix + "b1", (hidden,)),
        (prefix + "ln_gain", (hidden,)),
        (prefix + "ln_bias", (hidden,)),
        (prefix + "w2", (hidden, out_dim)),
        (prefix + "b2", (out_dim,)),
    ]


def _layer_shapes(config: ModelConfig) -> list[tuple[str, tuple]]:
    """Name within the layer -> shape, for the blocks of one layer."""
    d = config.hidden_dim
    return (
        _mlp_shapes("msg_mlp.", 2 * d + config.edge_feat_dim + 1, d, d)
        + _mlp_shapes("coord_mlp.", d, d, 1)
        + [(f"{scope}.{proj}", (d, d)) for scope in ("attn_global", "attn_local")
           for proj in ("wq", "wk", "wv")]
        + _mlp_shapes("node_mlp.", 4 * d, d, d)
    )


def parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Canonical name -> shape declaration for every parameter block."""
    d = config.hidden_dim
    shapes: dict[str, tuple] = {
        "embed.weight": (config.node_feat_dim, d),
        "embed.bias": (d,),
    }
    layer = _layer_shapes(config)
    for index in range(config.num_layers):
        shapes.update((f"layers.{index}.{name}", shape) for name, shape in layer)
    shapes["coord_skip_raw"] = ()
    shapes["node_skip_raw"] = ()
    shapes.update(_mlp_shapes("qa_head.", d, d, 1))
    return shapes


def _block_count(config: ModelConfig) -> int:
    """len(parameter_shapes(config)), without listing every layer's blocks:
    the embedding's two, each layer's, the two skip strengths and the QA
    head's."""
    return 4 + config.num_layers * len(_layer_shapes(config)) + len(_mlp_shapes("", 1, 1, 1))


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Variance-scaled uniform initialization, deterministic in the seed.

    The final layer of every coordinate-gate MLP starts at zero so a fresh
    model moves no coordinates; both skip strengths start at 0.5 (raw 0).
    A block with more bytes than an array can hold, or parameters with more
    bytes or more blocks (at ``_BLOCK_BYTES`` each) than the machine's
    physical memory holds, raise MemoryError before any block is listed in
    full.
    """
    # every layer's blocks have the same shapes, so a one-layer model's
    # blocks tell the size of any depth
    one_layer = parameter_shapes(replace(config, num_layers=1))
    for name, shape in one_layer.items():
        if math.prod(shape) > np.iinfo(np.intp).max // 8:
            raise MemoryError(f"parameter block {name} of shape {shape} is too large "
                              "for an array")
    per_layer = sum(math.prod(shape) for _, shape in _layer_shapes(config))
    size = 8 * (sum(map(math.prod, one_layer.values()))
                + (config.num_layers - 1) * per_layer)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    blocks = _block_count(config)
    for need, what in ((size, f"take {size:,} bytes"), (blocks * _BLOCK_BYTES,
                       f"have {blocks:,} blocks of about {_BLOCK_BYTES} bytes each")):
        if need > memory:
            raise MemoryError(f"the parameters {what}, more than this machine's "
                              f"{memory:,} bytes of memory")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith("ln_gain"):
            params[name] = np.ones(shape, dtype=np.float64)
        elif name.endswith(("ln_bias", "_skip_raw", "coord_mlp.w2", "coord_mlp.b2")):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:  # a weight's or a bias's bound is set by its first dimension
            bound = 1.0 / math.sqrt(max(shape[0], 1))
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _wrap(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor(value) for name, value in params.items()}


def _activate(pre: Tensor, leaves: dict[str, Tensor], prefix: str) -> Tensor:
    """An MLP's hidden layer from its first layer's centred output: layer
    norm, leaky ReLU."""
    return rms_norm_leaky_relu(pre, leaves[prefix + "ln_gain"],
                               leaves[prefix + "ln_bias"], LEAKY_SLOPE)


def _centred_first_layer(leaves: dict[str, Tensor], prefix: str) -> dict[str, Tensor]:
    """The MLP's ``w1`` and ``b1`` under their names, each less its mean over
    the output columns (the last axis), so the first layer's output rows
    have mean zero."""
    blocks = {prefix + name: leaves[prefix + name] for name in ("w1", "b1")}
    return {name: w - w.mean(axis=-1, keepdims=True) for name, w in blocks.items()}


def _mlp(x: Tensor, leaves: dict[str, Tensor], prefix: str) -> Tensor:
    hidden = _activate(affine(x, leaves[prefix + "w1"], leaves[prefix + "b1"]),
                       leaves, prefix)
    return affine(hidden, leaves[prefix + "w2"], leaves[prefix + "b2"])


def _global_attention(h: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """The d x d map M with ``h @ M`` the global linear attention of every
    row of ``h``: (Q / sqrt(n)) (K^T / sqrt(n)) V = h (wq wk^T) (h^T h) wv / n."""
    return (wq @ wk.T) @ (h.T @ h) @ wv * (1.0 / h.data.shape[0])


def _window_attention(h: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Scaled dot-product attention among the rows of ``h``, one window."""
    q, k, v = h @ wq, h @ wk, h @ wv
    weights = softmax_rows((q @ k.T) * (1.0 / math.sqrt(h.data.shape[1])))
    return weights @ v


def _checkpoint(fn, tensors: dict[str, Tensor]):
    """``fn(tensors)`` under ``autodiff.checkpoint``, reading its inputs by name."""
    names = tuple(tensors)
    return checkpoint(lambda *values: fn(dict(zip(names, values))), tensors.values())


def _edge_block(t: dict[str, Tensor], edge_features: np.ndarray,
                neighbors: np.ndarray, start: int, stop: int) -> tuple[Tensor, Tensor]:
    """The coordinate shift and mean hidden message of nodes ``start:stop``:
    one ``autodiff.edge_block`` op.

    A node's update needs only its own k edge rows, and edge row i*k + s
    carries the message from j = neighbors[i, s] to i. The op runs the
    message MLP's first layer from the node products ``h_src`` (with the
    bias) and ``h_dst`` and the edge rows of ``msg_mlp.w1_edge``, its norm,
    the gate MLP folded onto the hidden layer and the radial update, and
    reads ``x``, ``h_src`` and ``h_dst`` only by rows.
    """
    k = neighbors.shape[1]
    return edge_block(
        edge_features[start * k:stop * k], t["x"], t["h_src"], t["h_dst"],
        neighbors[start:stop], start,
        (t["msg_mlp.w1_edge"], t["msg_mlp.ln_gain"], t["msg_mlp.ln_bias"]),
        tuple(t["coord_mlp." + name]
              for name in ("w1", "b1", "ln_gain", "ln_bias", "w2", "b2")),
        LEAKY_SLOPE, NORM_CONSTANT,
    )


def _window(t: dict[str, Tensor], graph: ComplexGraph, config: ModelConfig,
            start: int, stop: int) -> tuple[Tensor, Tensor]:
    """The new coordinates and embeddings of nodes ``start:stop``, one
    window of the local attention.

    The edge work runs in blocks of at most ``EDGE_BLOCK // k`` whole
    nodes, one ``_edge_block`` op each, and only their shifts and mean
    hidden messages are joined. The node MLP's first layer is applied by
    the rows of ``node_mlp.w1`` that multiply h, m_agg, the attention and
    f_emb, so their concatenation is never built; the mean message is
    folded into the m_agg rows, which read the mean hidden message, and
    the global attention into the h rows, so a window reads only its own
    rows.
    """
    step = max(1, EDGE_BLOCK // graph.neighbors.shape[1])
    blocks = [_edge_block(t, graph.edge_features, graph.neighbors, a, min(a + step, stop))
              for a in range(start, stop, step)]
    shift, mean_hidden = (concat(list(parts), axis=0) for parts in zip(*blocks))
    coord_skip, node_skip = t["coord_skip"], t["node_skip"]
    x_new = (coord_skip * graph.coords[start:stop]
             + (1.0 - coord_skip) * slice_rows(t["x"], start, stop) + shift)

    h_rows = slice_rows(t["h"], start, stop)
    pre = (affine(h_rows, t["node_mlp.w1_h"], t["node_mlp.b1"])
           + mean_hidden @ t["node_mlp.w1_m"]
           + slice_rows(t["f_emb"], start, stop) @ t["node_mlp.w1_f"])
    if config.attention_enabled:
        local = _window_attention(h_rows, t["attn_local.wq"], t["attn_local.wk"],
                                  t["attn_local.wv"])
        pre = pre + local @ t["node_mlp.w1_a"]
    update = affine(_activate(pre, t, "node_mlp."), t["node_mlp.w2"], t["node_mlp.b2"])
    return x_new, node_skip * update + (1.0 - node_skip) * h_rows


def _layer(
    x: Tensor,
    h: Tensor,
    f_emb: Tensor,
    graph: ComplexGraph,
    leaves: dict[str, Tensor],
    config: ModelConfig,
    coord_skip: Tensor,
    node_skip: Tensor,
) -> tuple[Tensor, Tensor]:
    """One layer: an ``autodiff.checkpoint`` per window of
    ``config.window_size`` nodes, which runs the window's edge work and
    node update, plus, with attention on, one that folds the global
    attention into the node MLP's h rows. The windows' new coordinates and
    embeddings are joined once. A backward re-tapes one window at a time
    (at most ``window_size`` nodes, edge work in ``EDGE_BLOCK``-row
    blocks); the layer keeps O(n d): the per-node message products, the
    checkpoints' outputs and their join. ``leaves`` holds the layer's
    parameters by their names within the layer."""
    n, d = h.data.shape
    # Each MLP's first layer is centred over its output columns, so its
    # rows arrive at the layer norm with mean zero; the splits and folds
    # below are linear in the centred blocks and keep them centred.
    msg, coord, node = (_centred_first_layer(leaves, prefix)
                        for prefix in ("msg_mlp.", "coord_mlp.", "node_mlp."))
    w1, b1 = msg["msg_mlp.w1"], msg["msg_mlp.b1"]
    # The message MLP ends in the affine map (w2, b2) and the gate MLP
    # starts with (cw1, cb1), with nothing nonlinear between them, so the
    # gate's first layer reads the message MLP's hidden layer a through
    # w2 @ cw1 and b2 @ cw1 + cb1: a window's "coord_mlp.w1" and
    # "coord_mlp.b1". The per-node mean message mean(a) @ w2 + b2
    # meets the node MLP only through its m rows w1_m, so it folds the
    # same way: a window's "node_mlp.w1_m" reads the mean hidden layer
    # through w2 @ w1_m, and b2 @ w1_m joins "node_mlp.b1".
    w2, b2 = leaves["msg_mlp.w2"], leaves["msg_mlp.b2"]
    cw1 = coord["coord_mlp.w1"]
    w1_h, w1_m, w1_a, w1_f = (slice_rows(node["node_mlp.w1"], i * d, (i + 1) * d)
                              for i in range(4))
    if config.attention_enabled:
        # the global attention h @ M meets the node MLP only through w1_a
        (w1_h,) = checkpoint(
            lambda h, wq, wk, wv, w1_h, w1_a: (
                w1_h + _global_attention(h, wq, wk, wv) @ w1_a,),
            (h, leaves["attn_global.wq"], leaves["attn_global.wk"],
             leaves["attn_global.wv"], w1_h, w1_a))
    inputs = {
        **leaves,
        "x": x, "h": h, "f_emb": f_emb, "coord_skip": coord_skip, "node_skip": node_skip,
        # the h_i and h_j rows of the message MLP's w1 and its bias, applied
        # once per node
        "h_src": affine(h, slice_rows(w1, 0, d), b1), "h_dst": h @ slice_rows(w1, d, 2 * d),
        "msg_mlp.w1_edge": slice_rows(w1, 2 * d, w1.data.shape[0]),
        "coord_mlp.w1": w2 @ cw1,
        "coord_mlp.b1": (cw1.T * b2).sum(axis=1) + coord["coord_mlp.b1"],
        "node_mlp.w1_h": w1_h, "node_mlp.w1_m": w2 @ w1_m, "node_mlp.w1_a": w1_a,
        "node_mlp.w1_f": w1_f,
        "node_mlp.b1": (w1_m.T * b2).sum(axis=1) + node["node_mlp.b1"],
    }
    windows = [
        _checkpoint(lambda t, start=start: _window(
            t, graph, config, start, min(start + config.window_size, n)), inputs)
        for start in range(0, n, config.window_size)
    ]
    x_rows, h_rows = zip(*windows)
    return concat(list(x_rows), axis=0), concat(list(h_rows), axis=0)


@dataclass
class ForwardPass:
    """Forward outputs and the parameter leaves their tape leads back to.

    Outside ``no_grad()`` the outputs carry the tape. Per layer it holds a
    checkpoint node for each window and, with attention on, one for the global
    attention folded into ``node_mlp.w1``'s h rows, each keeping its inputs
    and packed outputs, the join of the windows' rows, and the layer's
    per-node message products taped op by op: O(n d) per layer and no edge
    rows. The input embedding, the two skip strengths and the QA head are
    taped op by op too. The backward pass tapes one checkpoint again at a
    time: at most one window of ``window_size`` nodes, whose node update is
    taped op by op and whose edge work is one ``autodiff.edge_block`` node
    per block of at most ``EDGE_BLOCK`` edge rows, the block's rows held in
    its backward.
    """

    coords: Tensor      # (n, 3) refined coordinates
    embeddings: Tensor  # (n, d) final node embeddings
    qa: Tensor          # (n, 1) per-node quality scores in [0, 1]
    leaves: dict[str, Tensor] = field(repr=False, default_factory=dict)


def check_widths(graph: ComplexGraph, config: ModelConfig) -> None:
    if graph.node_features.shape[1] != config.node_feat_dim:
        raise ConfigError(
            f"graph node width {graph.node_features.shape[1]} != "
            f"config {config.node_feat_dim}"
        )
    if graph.edge_features.shape[1] != config.edge_feat_dim:
        raise ConfigError(
            f"graph edge width {graph.edge_features.shape[1]} != "
            f"config {config.edge_feat_dim}"
        )


def forward_pass(
    graph: ComplexGraph, params: dict[str, np.ndarray], config: ModelConfig
) -> ForwardPass:
    """Run the full stack on a graph.

    The outputs carry the autodiff tape back to ``leaves`` unless the call
    runs inside ``no_grad()``; ``train.backward`` differentiates through it.
    Each window of a layer runs inside ``autodiff.checkpoint``, and so does
    the fold of the global attention into the node MLP; the backward pass
    re-runs one of them at a time and walks its tape at once, so a backward
    holds the tape of one window (at most ``window_size`` nodes, edge work in
    ``EDGE_BLOCK``-row blocks) plus O(n d) per layer. A window's rerun writes
    the rows it read of the coordinates, the embeddings and the per-node
    message products straight into their gradients. Gradients differ from a
    pass taped op by op only in the last bits, where contributions to the
    shared leaves add up in another order. Under ``no_grad()`` the checkpoints
    are plain calls. The graph's arrays enter as constants: the node features
    feed the embedding as an array, the coordinates are the first layer's
    input tensor and, as an array, every layer's skip anchor.
    """
    check_widths(graph, config)
    leaves = _wrap(params)
    f_emb = affine(graph.node_features, leaves["embed.weight"], leaves["embed.bias"])
    coord_skip = leaves["coord_skip_raw"].sigmoid()
    node_skip = leaves["node_skip_raw"].sigmoid()

    x, h = Tensor(graph.coords), f_emb
    for layer in range(config.num_layers):
        prefix = f"layers.{layer}."
        layer_leaves = {name[len(prefix):]: leaf for name, leaf in leaves.items()
                        if name.startswith(prefix)}
        x, h = _layer(x, h, f_emb, graph, layer_leaves, config, coord_skip, node_skip)
    qa_head = {**leaves, **_centred_first_layer(leaves, "qa_head.")}
    qa = _mlp(h, qa_head, "qa_head.").sigmoid()
    return ForwardPass(coords=x, embeddings=h, qa=qa, leaves=leaves)


def forward(
    graph: ComplexGraph, params: dict[str, np.ndarray], config: ModelConfig
) -> RefinementResult:
    """Refined coordinates, embeddings, and per-residue quality estimates.

    Runs ``forward_pass`` inside ``no_grad()``: inference keeps no tape, so
    each intermediate is freed once the next layer no longer needs it.
    """
    with no_grad():
        fp = forward_pass(graph, params, config)
    ca_nodes = np.flatnonzero(graph.ca_mask)
    return RefinementResult(
        refined_coords=fp.coords.data.copy(),
        embeddings=fp.embeddings.data.copy(),
        predicted_lddt=fp.qa.data[ca_nodes, 0].copy(),
        ca_node_indices=ca_nodes,
    )


# -- weights container -------------------------------------------------------


def save_weights(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    extra_arrays: dict[str, np.ndarray] | None = None,
    extra_meta: dict | None = None,
) -> bytes:
    """Versioned binary container: magic, version, JSON header, raw arrays.

    The header lists every block's name, shape, and byte offset into the
    data section; arrays are stored as little-endian float64 in canonical
    order, so save/load round-trips are bitwise exact.
    """
    shapes = parameter_shapes(config)
    missing = set(shapes) - set(params)
    if missing:
        raise WeightsShapeError(f"missing parameter blocks: {sorted(missing)}")
    blocks: list[tuple[str, np.ndarray]] = []
    for name, shape in shapes.items():
        arr = np.asarray(params[name], dtype=np.float64)
        if arr.shape != shape:
            raise WeightsShapeError(
                f"block {name} has shape {arr.shape}, expected {shape}"
            )
        blocks.append((name, arr))
    for name in sorted(extra_arrays or {}):
        blocks.append((name, np.asarray(extra_arrays[name], dtype=np.float64)))

    header_blocks = []
    offset = 0
    payload = bytearray()
    for name, arr in blocks:
        data = arr.astype("<f8").tobytes()
        header_blocks.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payload.extend(data)
        offset += len(data)
    header = {
        "config": config.to_dict(),
        "blocks": header_blocks,
        "meta": extra_meta or {},
    }
    header_bytes = json.dumps(header).encode("utf-8")
    out = bytearray()
    out.extend(WEIGHTS_MAGIC)
    out.extend(struct.pack("<I", WEIGHTS_VERSION))
    out.extend(struct.pack("<Q", len(header_bytes)))
    out.extend(header_bytes)
    out.extend(payload)
    return bytes(out)


def load_container(
    data: bytes,
) -> tuple[dict[str, np.ndarray], ModelConfig, dict[str, np.ndarray], dict]:
    """Parse a weights container into (params, config, extra arrays, meta)."""
    if len(data) < 16:
        raise WeightsTruncatedError("stream shorter than the fixed header")
    if data[:4] != WEIGHTS_MAGIC:
        raise WeightsVersionError(f"bad magic bytes {data[:4]!r}")
    (version,) = struct.unpack("<I", data[4:8])
    if version != WEIGHTS_VERSION:
        raise WeightsVersionError(f"unsupported container version {version}")
    (header_len,) = struct.unpack("<Q", data[8:16])
    header_end = 16 + header_len
    if len(data) < header_end:
        raise WeightsTruncatedError("stream ends inside the header")
    try:
        header = json.loads(data[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WeightsVersionError(f"unreadable header: {exc}") from None
    if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and isinstance(header.get("blocks"), list)):
        raise WeightsHeaderError("header needs a config object and a block list")
    try:
        config = ModelConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise WeightsHeaderError(f"invalid config in header: {exc}") from None
    # a config can claim far more blocks than the header lists; listing
    # them all would cost time and memory in proportion to that claim
    expected = _block_count(config)
    if len(header["blocks"]) < expected:
        raise WeightsShapeError(
            f"header lists {len(header['blocks'])} blocks, but a "
            f"{config.num_layers}-layer model has {expected}"
        )
    shapes = parameter_shapes(config)
    params: dict[str, np.ndarray] = {}
    extra: dict[str, np.ndarray] = {}
    body = memoryview(data)[header_end:]  # blocks are read from it, not copied twice
    declared = 0
    for block in header["blocks"]:
        name, shape, start = _block_entry(block)
        size = math.prod(shape) * 8
        if start + size > len(body):
            raise WeightsTruncatedError(f"stream ends inside block {name}")
        # blocks that share bytes would each be copied: a small stream
        # could then fill memory many times over
        declared += size
        if declared > len(body):
            raise WeightsTruncatedError(
                f"blocks up to {name} declare more bytes than the stream holds"
            )
        try:
            arr = np.frombuffer(body[start:start + size], dtype="<f8").reshape(shape)
        except ValueError:  # more dimensions, or larger ones, than numpy holds
            raise WeightsShapeError(f"block {name} has an unusable shape") from None
        arr = arr.copy()
        if name in shapes:
            if shape != shapes[name]:
                raise WeightsShapeError(
                    f"block {name} has shape {shape}, expected {shapes[name]}"
                )
            params[name] = arr
        else:
            extra[name] = arr
    missing = sorted(set(shapes) - set(params))
    if missing:
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise WeightsShapeError(f"missing parameter blocks: {missing[:5]}{more}")
    return params, config, extra, header.get("meta", {})


def _block_entry(block) -> tuple[str, tuple[int, ...], int]:
    """(name, shape, offset) of one header block entry."""
    try:
        name, shape, offset = block["name"], tuple(block["shape"]), block["offset"]
    except (KeyError, TypeError):
        raise WeightsHeaderError(f"malformed block entry {block!r}") from None
    if not isinstance(name, str) or not all(
        type(value) is int and value >= 0 for value in (*shape, offset)
    ):
        raise WeightsHeaderError(f"malformed block entry {block!r}")
    return name, shape, offset


def load_weights(data: bytes) -> tuple[dict[str, np.ndarray], ModelConfig]:
    params, config, _, _ = load_container(data)
    return params, config
