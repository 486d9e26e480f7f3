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
first layer and the per-node mean message, so it is folded into both: an
edge's gate reads the message MLP's hidden layer through ``w2 @ cw1``, and
the mean message is the mean hidden layer times ``w2``. No per-edge
message is formed. One ``autodiff.edge_affine`` op forms the message
MLP's pre-activation, and every MLP's layer norm and leaky ReLU are one
``autodiff.layer_norm_leaky_relu`` op.

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
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import (
    Tensor,
    affine,
    checkpoint,
    concat,
    edge_affine,
    gather_rows,
    group_mean,
    layer_norm_leaky_relu,
    no_grad,
    repeat_rows,
    row_norm,
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
from .featurize import GRANULARITIES, ComplexGraph, feature_widths

WEIGHTS_MAGIC = b"EGRW"
WEIGHTS_VERSION = 1
# Edge rows per block of a layer's edge pass: per-edge temporaries of this
# many rows stay cache-sized. With the fused edge ops, 1,024 rows ran
# faster than 512 or 2,048.
EDGE_BLOCK = 1024
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
    A block with more bytes than an array can hold raises MemoryError.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if math.prod(shape) > np.iinfo(np.intp).max // 8:
            raise MemoryError(f"parameter block {name} of shape {shape} is too large "
                              "for an array")
        if name.endswith(("ln_gain",)):
            params[name] = np.ones(shape, dtype=np.float64)
        elif name.endswith(("ln_bias",)):
            params[name] = np.zeros(shape, dtype=np.float64)
        elif name in ("coord_skip_raw", "node_skip_raw"):
            params[name] = np.zeros(shape, dtype=np.float64)
        elif "coord_mlp.w2" in name or "coord_mlp.b2" in name:
            params[name] = np.zeros(shape, dtype=np.float64)
        elif name.endswith((".w1", ".w2", ".wq", ".wk", ".wv", "weight")):
            fan_in = shape[0]
            bound = 1.0 / math.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:  # biases
            fan_in = max(shape[0], 1) if shape else 1
            bound = 1.0 / math.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _wrap(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor(value) for name, value in params.items()}


def _activate(pre: Tensor, leaves: dict[str, Tensor], prefix: str) -> Tensor:
    """An MLP's hidden layer from its first layer's output: layer norm, leaky ReLU."""
    return layer_norm_leaky_relu(pre, leaves[prefix + "ln_gain"],
                                 leaves[prefix + "ln_bias"], LEAKY_SLOPE)


def _mlp(x: Tensor, leaves: dict[str, Tensor], prefix: str) -> Tensor:
    hidden = _activate(affine(x, leaves[prefix + "w1"], leaves[prefix + "b1"]),
                       leaves, prefix)
    return affine(hidden, leaves[prefix + "w2"], leaves[prefix + "b2"])


def _linear_attention(h: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Global attention in its associativity-rearranged linear-time form."""
    n = h.data.shape[0]
    inv_sqrt = 1.0 / math.sqrt(n)
    q = h @ wq
    k = h @ wk
    v = h @ wv
    return (q * inv_sqrt) @ ((k.T * inv_sqrt) @ v)


def _window_attention(
    h: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, window: int
) -> Tensor:
    """Scaled dot-product attention inside consecutive index blocks."""
    n, d = h.data.shape
    q = h @ wq
    k = h @ wk
    v = h @ wv
    scale = 1.0 / math.sqrt(d)
    blocks = []
    for start in range(0, n, window):
        stop = min(start + window, n)
        qb = slice_rows(q, start, stop)
        kb = slice_rows(k, start, stop)
        vb = slice_rows(v, start, stop)
        weights = softmax_rows((qb @ kb.T) * scale)
        blocks.append(weights @ vb)
    if len(blocks) == 1:
        return blocks[0]
    return concat(blocks, axis=0)


def _layer(
    x: Tensor,
    h: Tensor,
    x0: Tensor,
    f_emb: Tensor,
    edge_features: np.ndarray,
    neighbors: np.ndarray,
    leaves: dict[str, Tensor],
    prefix: str,
    config: ModelConfig,
    coord_skip: Tensor,
    node_skip: Tensor,
) -> tuple[Tensor, Tensor]:
    n, k = neighbors.shape
    d = h.data.shape[1]
    msg, gate_mlp = prefix + "msg_mlp.", prefix + "coord_mlp."

    # the h_i and h_j rows of the message MLP's w1, applied once per node
    w1 = leaves[msg + "w1"]
    h_src = h @ slice_rows(w1, 0, d)
    h_dst = h @ slice_rows(w1, d, 2 * d)
    w1_edge = slice_rows(w1, 2 * d, w1.data.shape[0])

    # The message MLP ends in the affine map (w2, b2) and the gate MLP
    # starts with (cw1, cb1), with nothing nonlinear between them, so the
    # gate's first layer reads the message MLP's hidden layer a through
    # w2 @ cw1 and b2 @ cw1 + cb1. The per-node mean message is
    # group_mean(a) @ w2 + b2, as the mean is linear too.
    w2, b2 = leaves[msg + "w2"], leaves[msg + "b2"]
    cw1 = leaves[gate_mlp + "w1"]
    gate_weight = w2 @ cw1
    gate_bias = (cw1.T * b2).sum(axis=1) + leaves[gate_mlp + "b1"]

    # The edge pass runs over blocks of whole nodes: a node's update needs
    # only its own k edge rows, so every per-edge temporary stays at about
    # EDGE_BLOCK rows. A block yields its nodes' coordinate shift and mean
    # hidden message.
    step = max(1, EDGE_BLOCK // k)
    shifts, hiddens = [], []
    for start in range(0, n, step):
        stop = min(start + step, n)
        # edge row i*k + s carries the message from j = neighbors[i, s] to i
        nbrs = neighbors[start:stop].ravel()
        diff = repeat_rows(slice_rows(x, start, stop), k) - gather_rows(x, nbrs)
        sqdist = (diff * diff).sum(axis=1, keepdims=True)
        hidden = _activate(
            edge_affine(edge_features[start * k:stop * k], sqdist, w1_edge,
                        leaves[msg + "b1"], slice_rows(h_src, start, stop),
                        h_dst, nbrs),
            leaves, msg,
        )
        gate_hidden = _activate(affine(hidden, gate_weight, gate_bias), leaves, gate_mlp)
        gate = affine(gate_hidden, leaves[gate_mlp + "w2"], leaves[gate_mlp + "b2"])
        radial = diff / (row_norm(diff) + NORM_CONSTANT)
        shifts.append(group_mean(radial * gate, k))
        hiddens.append(group_mean(hidden, k))
    x_new = coord_skip * x0 + (1.0 - coord_skip) * x + concat(shifts, axis=0)
    m_agg = affine(concat(hiddens, axis=0), w2, b2)

    if config.attention_enabled:
        attn = _linear_attention(
            h,
            leaves[prefix + "attn_global.wq"],
            leaves[prefix + "attn_global.wk"],
            leaves[prefix + "attn_global.wv"],
        ) + _window_attention(
            h,
            leaves[prefix + "attn_local.wq"],
            leaves[prefix + "attn_local.wk"],
            leaves[prefix + "attn_local.wv"],
            config.window_size,
        )
    else:
        attn = Tensor(np.zeros_like(h.data))

    update = _mlp(concat([h, m_agg, attn, f_emb], axis=1), leaves, prefix + "node_mlp.")
    h_new = node_skip * update + (1.0 - node_skip) * h
    return x_new, h_new


@dataclass
class ForwardPass:
    """Forward outputs and the parameter leaves their tape leads back to.

    Outside ``no_grad()`` the outputs carry the tape: each layer is one
    checkpoint node holding its inputs and packed outputs, and only the
    input embedding, the two skip strengths and the QA head are taped op
    by op. The layers' edge blocks are taped again one layer at a time
    during the backward pass.
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
    Each layer runs inside ``autodiff.checkpoint``: its inputs are the
    coordinates, the embeddings, ``f_emb``, the two skip strengths and the
    layer's own parameter leaves, and the backward pass re-runs it, so a
    backward holds the tape of one layer at a time. Gradients then differ
    from a pass taped op by op only in the last bits, where contributions
    to the shared leaves add up in another order. Under ``no_grad()`` the
    layers run directly. The graph's arrays enter as constants: the one
    coordinate tensor is both the first layer's input and every layer's
    skip anchor.
    """
    check_widths(graph, config)
    leaves = _wrap(params)
    x0 = Tensor(graph.coords)
    f_emb = affine(
        Tensor(graph.node_features), leaves["embed.weight"], leaves["embed.bias"]
    )
    coord_skip = leaves["coord_skip_raw"].sigmoid()
    node_skip = leaves["node_skip_raw"].sigmoid()

    x, h = x0, f_emb
    for layer in range(config.num_layers):
        prefix = f"layers.{layer}."
        names = [name for name in leaves if name.startswith(prefix)]

        def run(x, h, f_emb, coord_skip, node_skip, *blocks, prefix=prefix, names=names):
            return _layer(
                x, h, x0, f_emb, graph.edge_features, graph.neighbors,
                dict(zip(names, blocks)), prefix, config, coord_skip, node_skip,
            )

        x, h = checkpoint(
            run, (x, h, f_emb, coord_skip, node_skip, *(leaves[name] for name in names))
        )
    qa = _mlp(h, leaves, "qa_head.").sigmoid()
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
    body = data[header_end:]
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
