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

``ModelConfig`` is the one home of the model settings, their defaults and
their checks. The input feature widths are not settings: they follow from
the granularity and the two feature ablation flags, and ``build_graph``
featurizes a structure the way a config expects.

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
    concat,
    gather_rows,
    group_mean,
    layer_norm,
    no_grad,
    repeat_rows,
    row_norm,
    softmax_rows,
)
from .errors import (
    ConfigError,
    WeightsHeaderError,
    WeightsShapeError,
    WeightsTruncatedError,
    WeightsVersionError,
)
from .featurize import GRANULARITIES, ComplexGraph, build_knn_graph, feature_widths
from .structio import ComplexStructure

WEIGHTS_MAGIC = b"EGRW"
WEIGHTS_VERSION = 1

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
    norm_constant: float = 1.0
    noise_sigma: float = 0.1
    leaky_slope: float = 0.01
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
        return feature_widths(
            self.granularity, self.include_surface, self.include_geometric
        )[0]

    @property
    def edge_feat_dim(self) -> int:
        return feature_widths(
            self.granularity, self.include_surface, self.include_geometric
        )[1]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Inverse of ``to_dict``.

        Older containers also store the two feature widths; they are
        accepted when they equal the widths derived from the settings.
        """
        data = dict(data)
        stored = {key: data.pop(key) for key in ("node_feat_dim", "edge_feat_dim")
                  if key in data}
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**data)
        for key, value in stored.items():
            if value != getattr(config, key):
                raise ConfigError(
                    f"stored {key} {value!r} != derived {getattr(config, key)}"
                )
        return config


def build_graph(
    structure: ComplexStructure,
    config: ModelConfig,
    surface_values: np.ndarray | None = None,
) -> ComplexGraph:
    """The featurized k-NN graph that ``config`` expects for a structure."""
    return build_knn_graph(
        structure,
        granularity=config.granularity,
        k=config.k_neighbors,
        surface_values=surface_values,
        include_surface=config.include_surface,
        include_geometric=config.include_geometric,
    )


@dataclass
class RefinementResult:
    refined_coords: np.ndarray   # (n, 3)
    embeddings: np.ndarray       # (n, hidden_dim)
    predicted_lddt: np.ndarray   # (n_ca,) in [0, 1]
    ca_node_indices: np.ndarray  # node indices carrying the scores


def _mlp_shapes(in_dim: int, hidden: int, out_dim: int) -> list[tuple[str, tuple]]:
    return [
        ("w1", (in_dim, hidden)),
        ("b1", (hidden,)),
        ("ln_gain", (hidden,)),
        ("ln_bias", (hidden,)),
        ("w2", (hidden, out_dim)),
        ("b2", (out_dim,)),
    ]


def parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Canonical name -> shape declaration for every parameter block."""
    d = config.hidden_dim
    shapes: dict[str, tuple] = {
        "embed.weight": (config.node_feat_dim, d),
        "embed.bias": (d,),
    }
    msg_in = 2 * d + config.edge_feat_dim + 1
    for layer in range(config.num_layers):
        prefix = f"layers.{layer}."
        for name, shape in _mlp_shapes(msg_in, d, d):
            shapes[prefix + "msg_mlp." + name] = shape
        for name, shape in _mlp_shapes(d, d, 1):
            shapes[prefix + "coord_mlp." + name] = shape
        for scope in ("attn_global", "attn_local"):
            for proj in ("wq", "wk", "wv"):
                shapes[f"{prefix}{scope}.{proj}"] = (d, d)
        for name, shape in _mlp_shapes(4 * d, d, d):
            shapes[prefix + "node_mlp." + name] = shape
    shapes["coord_skip_raw"] = ()
    shapes["node_skip_raw"] = ()
    for name, shape in _mlp_shapes(d, d, 1):
        shapes["qa_head." + name] = shape
    return shapes


def parameter_count(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for shape in parameter_shapes(config).values())


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Variance-scaled uniform initialization, deterministic in the seed.

    The final layer of every coordinate-gate MLP starts at zero so a fresh
    model moves no coordinates; both skip strengths start at 0.5 (raw 0).
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
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


def _mlp(x: Tensor, leaves: dict[str, Tensor], prefix: str, slope: float) -> Tensor:
    hidden = affine(x, leaves[prefix + "w1"], leaves[prefix + "b1"])
    hidden = layer_norm(hidden, leaves[prefix + "ln_gain"], leaves[prefix + "ln_bias"])
    hidden = hidden.leaky_relu(slope)
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
        idx = np.arange(start, min(start + window, n))
        qb = gather_rows(q, idx)
        kb = gather_rows(k, idx)
        vb = gather_rows(v, idx)
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
    edge_feats: Tensor,
    neighbors: np.ndarray,
    leaves: dict[str, Tensor],
    prefix: str,
    config: ModelConfig,
    coord_skip: Tensor,
    node_skip: Tensor,
) -> tuple[Tensor, Tensor]:
    k = neighbors.shape[1]
    slope = config.leaky_slope

    # edge row i*k + s carries the message from j = neighbors[i, s] to i
    h_i = repeat_rows(h, k)
    h_j = gather_rows(h, neighbors.ravel())
    diff = repeat_rows(x, k) - gather_rows(x, neighbors.ravel())  # x_i - x_j
    sqdist = (diff * diff).sum(axis=1, keepdims=True)

    messages = _mlp(
        concat([h_i, h_j, edge_feats, sqdist], axis=1),
        leaves, prefix + "msg_mlp.", slope,
    )

    gate = _mlp(messages, leaves, prefix + "coord_mlp.", slope)  # (E, 1)
    radial = diff / (row_norm(diff) + config.norm_constant)
    x_new = coord_skip * x0 + (1.0 - coord_skip) * x + group_mean(radial * gate, k)

    m_agg = group_mean(messages, k)
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

    update = _mlp(
        concat([h, m_agg, attn, f_emb], axis=1), leaves, prefix + "node_mlp.", slope
    )
    h_new = node_skip * update + (1.0 - node_skip) * h
    return x_new, h_new


@dataclass
class ForwardPass:
    """Forward tensors kept alive for gradient computation."""

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
    """
    check_widths(graph, config)
    leaves = _wrap(params)
    x0 = Tensor(graph.initial_coords)
    x = Tensor(graph.coords)
    edge_feats = Tensor(graph.edge_features)
    f_emb = affine(
        Tensor(graph.node_features), leaves["embed.weight"], leaves["embed.bias"]
    )
    coord_skip = leaves["coord_skip_raw"].sigmoid()
    node_skip = leaves["node_skip_raw"].sigmoid()

    h = f_emb
    for layer in range(config.num_layers):
        x, h = _layer(
            x, h, x0, f_emb, edge_feats, graph.neighbors,
            leaves, f"layers.{layer}.", config, coord_skip, node_skip,
        )
    qa = _mlp(h, leaves, "qa_head.", config.leaky_slope).sigmoid()
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WeightsVersionError(f"unreadable header: {exc}") from None
    if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and isinstance(header.get("blocks"), list)):
        raise WeightsHeaderError("header needs a config object and a block list")
    try:
        config = ModelConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise WeightsHeaderError(f"invalid config in header: {exc}") from None
    shapes = parameter_shapes(config)
    params: dict[str, np.ndarray] = {}
    extra: dict[str, np.ndarray] = {}
    body = data[header_end:]
    for block in header["blocks"]:
        name, shape, start = _block_entry(block)
        size = math.prod(shape) * 8
        if start + size > len(body):
            raise WeightsTruncatedError(f"stream ends inside block {name}")
        arr = np.frombuffer(body[start:start + size], dtype="<f8").reshape(shape).copy()
        if name in shapes:
            if shape != shapes[name]:
                raise WeightsShapeError(
                    f"block {name} has shape {shape}, expected {shapes[name]}"
                )
            params[name] = arr
        else:
            extra[name] = arr
    missing = set(shapes) - set(params)
    if missing:
        raise WeightsShapeError(f"missing parameter blocks: {sorted(missing)}")
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
