import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiref import autodiff, model
from equiref.autodiff import Tensor, no_grad
from equiref.errors import (
    ConfigError,
    WeightsFormatError,
    WeightsShapeError,
    WeightsTruncatedError,
    WeightsVersionError,
)
from equiref.featurize import GRANULARITIES, build_knn_graph
from equiref.model import (
    ModelConfig,
    forward,
    forward_pass,
    init_params,
    load_container,
    load_weights,
    parameter_shapes,
    save_weights,
)
from equiref.train import backward

from conftest import make_complex, random_rotation, rewrite_header, traced_peak
from oracles import message_preactivation, mlp_tail, quadratic_attention, unfused_edge_pass

SMALL = ModelConfig(num_layers=2, hidden_dim=8)


def container_bytes(header: bytes, body: bytes = b"") -> bytes:
    """Weights container with the given raw header and data section."""
    return (model.WEIGHTS_MAGIC + struct.pack("<I", model.WEIGHTS_VERSION)
            + struct.pack("<Q", len(header)) + header + body)


def container(header, body: bytes = b"") -> bytes:
    return container_bytes(json.dumps(header).encode("utf-8"), body)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
BLOCK_NAMES = sorted(parameter_shapes(ModelConfig(num_layers=1, hidden_dim=1)))
BLOCKS = st.fixed_dictionaries({
    "name": st.sampled_from(BLOCK_NAMES) | JSON_VALUES,
    "shape": st.lists(st.integers(-1, 2 ** 70), max_size=4) | JSON_VALUES,
    "offset": st.integers(-1, 80) | JSON_VALUES,
}) | JSON_VALUES
CONFIGS = st.dictionaries(
    st.sampled_from(sorted(ModelConfig().to_dict())) | st.text(max_size=6),
    st.integers(-2, 2 ** 40) | JSON_VALUES,
    max_size=5,
)
HEADERS = JSON_VALUES | st.fixed_dictionaries(
    {"config": CONFIGS | JSON_VALUES,
     "blocks": st.lists(BLOCKS, max_size=40) | JSON_VALUES},
    optional={"meta": JSON_VALUES},
)


def on_arrays(fn, *arrays, **kwargs):
    """``fn`` of Tensor inputs run on numpy arrays under no_grad()."""
    with no_grad():
        return fn(*map(Tensor, arrays), **kwargs).data


def linear_attention(h, wq, wk, wv):
    """The model's global attention of every row of ``h``."""
    return h @ model._global_attention(h, wq, wk, wv)


def softmax_attention(h, wq, wk, wv):
    """Scaled dot-product attention among all rows of ``h``, in numpy."""
    q, k, v = h @ wq, h @ wk, h @ wv
    scores = q @ k.T / np.sqrt(h.shape[1])
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    return (e / e.sum(axis=1, keepdims=True)) @ v


def node_update_windows(rng, monkeypatch, h, wq, wk, wv, window):
    """(rows read, output) of each window attention call in one layer's
    node update on embeddings ``h``, whose local attention weighs ``wq``,
    ``wk`` and ``wv`` and whose windows hold ``window`` rows."""
    n, d = h.shape
    config = ModelConfig(num_layers=1, hidden_dim=d, window_size=window)
    graph = random_graph(rng, n=n, d_f=config.node_feat_dim, d_e=config.edge_feat_dim)
    params = randomize(init_params(config, 0), rng)
    params.update({"layers.0.attn_local.wq": wq, "layers.0.attn_local.wk": wk,
                   "layers.0.attn_local.wv": wv})
    calls = []
    attend = model._window_attention

    def recording(rows, *weights):
        out = attend(rows, *weights)
        calls.append((rows.data, out.data))
        return out

    monkeypatch.setattr(model, "_window_attention", recording)
    layer_step(graph, params, config, 0, graph.coords, h, rng.normal(size=h.shape))
    return calls


def layer_step(graph, params, config, layer, x, h, f_emb):
    """One layer on explicit state arrays; the anchor is the graph's."""
    with no_grad():
        leaves = {name: Tensor(value) for name, value in params.items()}
        prefix = f"layers.{layer}."
        x_new, h_new = model._layer(
            Tensor(x), Tensor(h), Tensor(f_emb), graph,
            {name[len(prefix):]: leaf for name, leaf in leaves.items()
             if name.startswith(prefix)},
            config, leaves["coord_skip_raw"].sigmoid(), leaves["node_skip_raw"].sigmoid(),
        )
    return x_new.data, h_new.data


def randomize(params, rng, scale=0.3):
    """Non-degenerate random parameter set (coordinate gates included)."""
    return {k: rng.normal(scale=scale, size=v.shape) for k, v in params.items()}


def random_graph(rng, n=25, d_f=39, d_e=15, window_cap=None):
    """Synthetic featurized graph with directly sampled feature blocks."""
    from equiref.featurize import ComplexGraph, knn_edges

    coords = rng.normal(scale=6.0, size=(n, 3))
    neighbors = knn_edges(coords, 20)
    graph = ComplexGraph(
        coords=coords,
        node_features=rng.normal(size=(n, d_f)),
        neighbors=neighbors,
        edge_features=rng.normal(size=(neighbors.size, d_e)),
        ca_mask=rng.random(n) < 0.3,
        node_atom_indices=np.arange(n),
    )
    if not graph.ca_mask.any():
        graph.ca_mask[0] = True
    return graph


def transform_graph(graph, rot, shift):
    from dataclasses import replace

    return replace(graph, coords=graph.coords @ rot.T + shift)


class TestInit:
    def test_deterministic(self):
        a = init_params(SMALL, seed=5)
        b = init_params(SMALL, seed=5)
        assert set(a) == set(b)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_coordinate_gate_zero_initialized(self):
        params = init_params(SMALL, seed=0)
        for layer in range(SMALL.num_layers):
            np.testing.assert_array_equal(
                params[f"layers.{layer}.coord_mlp.w2"], 0.0
            )
            np.testing.assert_array_equal(
                params[f"layers.{layer}.coord_mlp.b2"], 0.0
            )

    def test_skip_strengths_start_at_half(self):
        params = init_params(SMALL, seed=0)
        assert params["coord_skip_raw"] == 0.0
        assert params["node_skip_raw"] == 0.0

    def test_parameter_count_closed_form(self):
        d, d_f, d_e, layers = 8, 39, 15, 2
        mlp = lambda din, dout: din * d + d + 2 * d + d * dout + dout
        expected = (
            d_f * d + d                      # input embedding
            + layers * (
                mlp(2 * d + d_e + 1, d)      # edge-message MLP
                + mlp(d, 1)                  # coordinate gate MLP
                + 6 * d * d                  # global + local Q/K/V
                + mlp(4 * d, d)              # node-update MLP
            )
            + 2                              # skip strengths
            + mlp(d, 1)                      # quality head
        )
        assert sum(math.prod(s) for s in parameter_shapes(SMALL).values()) == expected
        total = sum(v.size for v in init_params(SMALL, 0).values())
        assert total == expected


class TestLinearAttention:
    def test_matches_quadratic_form(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 65))
            d = int(rng.integers(2, 65))
            h = rng.normal(size=(n, d))
            wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
            lin = on_arrays(linear_attention, h, wq, wk, wv)
            quad = quadratic_attention(h, wq, wk, wv)
            denom = np.abs(quad).max() + 1e-12
            assert np.abs(lin - quad).max() / denom < 1e-10

    def test_single_token(self, rng):
        h = rng.normal(size=(1, 6))
        wq, wk, wv = (rng.normal(size=(6, 6)) for _ in range(3))
        q, k, v = h @ wq, h @ wk, h @ wv
        expected = q @ (k.T @ v)  # n = 1: the normalization cancels
        out = on_arrays(linear_attention, h, wq, wk, wv)
        np.testing.assert_allclose(out, expected)

    def test_zero_embeddings(self, rng):
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        out = on_arrays(linear_attention, np.zeros((7, 4)), wq, wk, wv)
        np.testing.assert_array_equal(out, 0.0)


class TestWindowAttention:
    def test_single_block_equals_full_attention(self, rng):
        h = rng.normal(size=(10, 6))
        wq, wk, wv = (rng.normal(size=(6, 6)) for _ in range(3))
        out = on_arrays(model._window_attention, h, wq, wk, wv)
        np.testing.assert_allclose(out, softmax_attention(h, wq, wk, wv), atol=1e-12)

    def test_blocks_are_independent(self, rng, monkeypatch):
        # a layer hands the window attention consecutive windows of
        # window_size rows, the last one short, and each sees only its own
        window = 8
        h = rng.normal(size=(2 * window + 3, 5))
        wq, wk, wv = (rng.normal(size=(5, 5)) for _ in range(3))
        base = node_update_windows(rng, monkeypatch, h, wq, wk, wv, window)
        for (rows, _), start in zip(base, range(0, len(h), window), strict=True):
            np.testing.assert_array_equal(rows, h[start:start + window])
        h2 = h.copy()
        h2[window:2 * window] = rng.normal(size=(window, 5))
        out = node_update_windows(rng, monkeypatch, h2, wq, wk, wv, window)
        np.testing.assert_array_equal(out[0][1], base[0][1])
        assert not np.allclose(out[1][1], base[1][1])
        np.testing.assert_array_equal(out[2][1], base[2][1])

    def test_hand_sized_bruteforce(self, rng, monkeypatch):
        h = rng.normal(size=(4, 2))
        wq, wk, wv = (rng.normal(size=(2, 2)) for _ in range(3))
        calls = node_update_windows(rng, monkeypatch, h, wq, wk, wv, window=2)
        for (_, out), block in zip(calls, (slice(0, 2), slice(2, 4)), strict=True):
            np.testing.assert_allclose(out, softmax_attention(h[block], wq, wk, wv),
                                       atol=1e-12)


class TestLayer:
    def _state(self, rng, params, graph):
        f_emb = graph.node_features @ params["embed.weight"] + params["embed.bias"]
        x = graph.coords + rng.normal(scale=0.3, size=graph.coords.shape)
        h = rng.normal(size=f_emb.shape)
        return x, h, f_emb

    def test_zero_gate_zero_skip_leaves_coords(self, rng):
        # saturated raw skip: the coordinate skip strength is exactly 0,
        # and the zero-initialized gate contributes nothing
        graph = random_graph(rng, n=12, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        params = init_params(SMALL, seed=1)
        params["coord_skip_raw"] = np.array(-1000.0)
        x, h, f_emb = self._state(rng, params, graph)
        x_new, _ = layer_step(graph, params, SMALL, 0, x, h, f_emb)
        np.testing.assert_array_equal(x_new, x)

    def test_zero_gate_full_skip_resets_to_anchor(self, rng):
        graph = random_graph(rng, n=12, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        params = init_params(SMALL, seed=1)
        params["coord_skip_raw"] = np.array(1000.0)
        x, h, f_emb = self._state(rng, params, graph)
        x_new, _ = layer_step(graph, params, SMALL, 0, x, h, f_emb)
        np.testing.assert_array_equal(x_new, graph.coords)

    @pytest.mark.parametrize("config", [SMALL, ModelConfig(num_layers=1)],
                             ids=["small", "default"])
    def test_split_message_layer_matches_concatenated_input(self, rng, monkeypatch,
                                                            config):
        # The layer applies the message MLP's centred first layer as node
        # products read by edge plus the edge rows, and folds the MLP's
        # output layer into the gate MLP's first layer and into the node
        # MLP's mean-message rows. The oracle multiplies the whole edge
        # input with the raw weights and runs both MLPs in full on every
        # edge.
        graph = random_graph(rng, n=30, d_f=config.node_feat_dim,
                             d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng, scale=0.2)
        x, h, f_emb = self._state(rng, params, graph)
        prefix = "layers.0."
        pre = message_preactivation(h, x, graph.edge_features, graph.neighbors,
                                    params[prefix + "msg_mlp.w1"],
                                    params[prefix + "msg_mlp.b1"])
        message, gate = unfused_edge_pass(h, x, graph.edge_features, graph.neighbors,
                                          params, prefix)
        n, k = graph.neighbors.shape
        diff = np.repeat(x, k, axis=0) - x[graph.neighbors.ravel()]
        radial = diff / (np.linalg.norm(diff, axis=1, keepdims=True) + model.NORM_CONSTANT)
        skip = 1.0 / (1.0 + np.exp(-params["coord_skip_raw"]))
        x_ref = (skip * graph.coords + (1.0 - skip) * x
                 + (radial * gate).reshape(n, k, 3).mean(axis=1))

        # the shared norm kernel sees the message MLP's pre-activation first:
        # the layer has one window of one edge block
        seen, mean_hidden, folds = [], [], []
        norm, edge_block, window = autodiff._rms_norm_leaky_relu, model._edge_block, model._window

        def recording_norm(pre_activation, *args):
            seen.append(pre_activation)
            return norm(pre_activation, *args)

        def recording_edge_block(*args):
            shift, hidden = edge_block(*args)
            mean_hidden.append(hidden.data)
            return shift, hidden

        def recording_window(t, *args):
            folds.append((t["node_mlp.w1_m"].data, t["node_mlp.b1"].data))
            return window(t, *args)

        monkeypatch.setattr(autodiff, "_rms_norm_leaky_relu", recording_norm)
        monkeypatch.setattr(model, "_edge_block", recording_edge_block)
        monkeypatch.setattr(model, "_window", recording_window)
        monkeypatch.setattr(model, "EDGE_BLOCK", graph.neighbors.size)
        x_new, _ = layer_step(graph, params, config, 0, x, h, f_emb)
        d = config.hidden_dim
        # the node MLP reads the mean message m through its rows w1_m and
        # its bias b1, centred over the output columns; the fold reads the
        # mean hidden layer instead
        (w1_m_folded, b1_folded), = folds
        m_rows = np.concatenate(mean_hidden) @ w1_m_folded + b1_folded
        m_ref = (message.reshape(n, k, d).mean(axis=1)
                 @ params[prefix + "node_mlp.w1"][d:2 * d] + params[prefix + "node_mlp.b1"])
        for actual, reference in ((seen[0], pre - pre.mean(axis=1, keepdims=True)),
                                  (m_rows, m_ref - m_ref.mean(axis=1, keepdims=True)),
                                  (x_new, x_ref)):
            np.testing.assert_allclose(actual, reference, rtol=1e-12,
                                       atol=1e-12 * np.abs(reference).max())

    @pytest.mark.parametrize("n, window, attention", [
        (50, 16, True), (30, 30, True), (30, 64, True), (50, 16, False),
    ], ids=["ragged", "one_window", "window_past_n", "no_attention"])
    def test_split_node_update_matches_concatenated_input(self, rng, monkeypatch, n,
                                                          window, attention):
        # Each window multiplies h, the mean hidden message, the local
        # attention and f_emb each by its own rows of the centred
        # node_mlp.w1, the mean message and the global attention folded in.
        # The reference runs the node MLP with the raw weights and the true
        # layer norm on their concatenation over all rows at once. The
        # windows' edge blocks hand over given rows of the mean hidden
        # message.
        config = ModelConfig(num_layers=1, hidden_dim=8, window_size=window,
                             attention_enabled=attention)
        params = randomize(init_params(config, 0), rng)
        prefix = "layers.0."
        inputs = {name[len(prefix):]: value for name, value in params.items()
                  if name.startswith(prefix)}
        d = config.hidden_dim
        h, f_emb, mean_hidden = (rng.normal(size=(n, d)) for _ in range(3))
        shift = rng.normal(size=(n, 3))
        attn = np.zeros((n, d))
        if attention:
            attn = on_arrays(linear_attention, h, *(inputs[f"attn_global.{proj}"]
                                                    for proj in ("wq", "wk", "wv")))
            local = [inputs[f"attn_local.{proj}"] for proj in ("wq", "wk", "wv")]
            attn += np.concatenate([softmax_attention(h[start:start + window], *local)
                                    for start in range(0, n, window)])
        graph = random_graph(rng, n=n, d_f=config.node_feat_dim, d_e=config.edge_feat_dim)
        monkeypatch.setattr(model, "_edge_block", lambda t, edge_features, neighbors,
                            start, stop: (Tensor(shift[start:stop]),
                                          Tensor(mean_hidden[start:stop])))
        _, h_new = layer_step(graph, params, config, 0, rng.normal(size=(n, 3)), h, f_emb)
        m_agg = mean_hidden @ inputs["msg_mlp.w2"] + inputs["msg_mlp.b2"]
        pre = (np.concatenate([h, m_agg, attn, f_emb], axis=1) @ inputs["node_mlp.w1"]
               + inputs["node_mlp.b1"])
        update = mlp_tail(pre, inputs, "node_mlp.")
        skip = 1.0 / (1.0 + np.exp(-params["node_skip_raw"]))
        reference = skip * update + (1.0 - skip) * h
        np.testing.assert_allclose(h_new, reference, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max())

    @pytest.mark.parametrize("n, window, attention", [
        (50, 16, True), (50, 128, True), (50, 16, False),
    ], ids=["ragged", "one_window", "no_attention"])
    def test_one_checkpoint_per_window(self, rng, monkeypatch, n, window, attention):
        # a layer checkpoints each window of window_size nodes, its edge
        # work included, and the fold of the global attention once
        config = ModelConfig(num_layers=1, hidden_dim=8, window_size=window,
                             attention_enabled=attention)
        graph = random_graph(rng, n=n, d_f=config.node_feat_dim, d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng)
        calls, checkpoint = [], model.checkpoint

        def counting(fn, inputs):
            calls.append(fn)
            return checkpoint(fn, inputs)

        monkeypatch.setattr(model, "EDGE_BLOCK", 7 * graph.neighbors.shape[1])
        monkeypatch.setattr(model, "checkpoint", counting)
        forward_pass(graph, params, config)
        assert len(calls) == math.ceil(n / window) + attention

    def test_single_layer_equivariance(self, rng):
        graph = random_graph(rng, n=16, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        params = randomize(init_params(SMALL, 0), rng)
        x, h, f_emb = self._state(rng, params, graph)
        x_out, h_out = layer_step(graph, params, SMALL, 0, x, h, f_emb)
        rot = random_rotation(rng)
        shift = rng.normal(scale=10.0, size=3)
        moved = transform_graph(graph, rot, shift)
        x_moved, h_moved = layer_step(
            moved, params, SMALL, 0, x @ rot.T + shift, h, f_emb
        )
        expected = x_out @ rot.T + shift
        rel = np.abs(x_moved - expected).max() / np.abs(expected).max()
        assert rel < 1e-5
        np.testing.assert_allclose(h_moved, h_out, atol=1e-9)


class TestCentring:
    """Every MLP's first layer is centred over its output columns, so the
    norm op sees rows of mean zero and is the layer norm of the raw MLP."""

    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no_attention"])
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_norm_inputs_are_centred_rows(self, rng, monkeypatch, granularity, attention):
        config = ModelConfig(num_layers=2, hidden_dim=8, window_size=16,
                             granularity=granularity, attention_enabled=attention)
        graph = random_graph(rng, n=40, d_f=config.node_feat_dim, d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng)
        # every norm, the edge blocks' included, runs the shared kernel
        inputs, norm = [], autodiff._rms_norm_leaky_relu

        def recording(x, *args):
            inputs.append(x)
            return norm(x, *args)

        monkeypatch.setattr(autodiff, "_rms_norm_leaky_relu", recording)
        forward_pass(graph, params, config)
        # windows of 16, 16 and 8 nodes, each one edge block: per layer and
        # window the message, gate and node MLPs; the QA head once
        assert len(inputs) == config.num_layers * 3 * 3 + 1
        for rows in inputs:
            rms = np.sqrt((rows * rows).mean(axis=1))
            assert np.all(np.abs(rows.mean(axis=1)) <= 1e-12 * rms)

    @pytest.mark.parametrize("prefix", ["qa_head.", "layers.0.node_mlp."])
    def test_centred_mlp_matches_layer_norm_on_raw_weights(self, rng, prefix):
        params = randomize(init_params(SMALL, 0), rng)
        params[prefix + "w1"] += 1.0  # rows far from centred
        params[prefix + "b1"] -= 2.0
        leaves = {name: Tensor(value) for name, value in params.items()
                  if name.startswith(prefix)}
        w1, b1 = params[prefix + "w1"], params[prefix + "b1"]
        x = rng.normal(size=(30, w1.shape[0]))
        with no_grad():
            centred = {**leaves, **model._centred_first_layer(leaves, prefix)}
            out = model._mlp(Tensor(x), centred, prefix).data
        reference = mlp_tail(x @ w1 + b1, params, prefix)
        np.testing.assert_allclose(out, reference, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max())


class TestForward:
    def test_zero_init_identity(self, rng):
        graph = random_graph(rng, n=18, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        params = init_params(SMALL, seed=3)
        result = forward(graph, params, SMALL)
        np.testing.assert_array_equal(result.refined_coords, graph.coords)

    def test_zero_init_identity_on_structure_graph(self):
        structure = make_complex()
        config = ModelConfig(num_layers=3, hidden_dim=16)
        graph = build_knn_graph(structure, config)
        params = init_params(config, seed=9)
        result = forward(graph, params, config)
        np.testing.assert_array_equal(result.refined_coords, graph.coords)

    def test_qa_in_unit_interval(self, rng):
        for trial in range(25):
            graph = random_graph(rng, n=int(rng.integers(5, 40)),
                                 d_f=SMALL.node_feat_dim, d_e=SMALL.edge_feat_dim)
            params = randomize(init_params(SMALL, 0), rng, scale=1.5)
            result = forward(graph, params, SMALL)
            assert result.predicted_lddt.min() >= 0.0
            assert result.predicted_lddt.max() <= 1.0
            assert result.predicted_lddt.shape[0] == graph.ca_mask.sum()

    def test_width_mismatch_raises(self, rng):
        graph = random_graph(rng, n=10, d_f=12, d_e=SMALL.edge_feat_dim)
        with pytest.raises(ConfigError):
            forward(graph, init_params(SMALL, 0), SMALL)

    def test_equivariance_proper_and_improper(self, rng):
        graph = random_graph(rng, n=30, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        params = randomize(init_params(SMALL, 0), rng)
        base = forward(graph, params, SMALL)
        for proper in (True, False):
            rot = random_rotation(rng, proper=proper)
            shift = rng.normal(scale=30.0, size=3)
            moved = transform_graph(graph, rot, shift)
            out = forward(moved, params, SMALL)
            expected = base.refined_coords @ rot.T + shift
            scale = np.abs(expected).max()
            assert np.abs(out.refined_coords - expected).max() / scale < 1e-9
            np.testing.assert_allclose(out.embeddings, base.embeddings, atol=1e-9)
            np.testing.assert_allclose(
                out.predicted_lddt, base.predicted_lddt, atol=1e-9
            )

    def test_permutation_equivariance(self, rng):
        # window covers the whole graph, so block-local attention is
        # permutation-safe; node and edge data travel with the permutation:
        # neighbor rows and their edge-feature blocks move with their center,
        # and their entries are renamed to the new node indices
        from dataclasses import replace

        graph = random_graph(rng, n=20, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        params = randomize(init_params(SMALL, 0), rng)
        base = forward(graph, params, SMALL)

        perm = rng.permutation(graph.num_nodes)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(graph.num_nodes)
        n, k = graph.neighbors.shape
        edge_blocks = graph.edge_features.reshape(n, k, -1)
        permuted = replace(
            graph,
            coords=graph.coords[perm],
            node_features=graph.node_features[perm],
            neighbors=inverse[graph.neighbors[perm]],
            edge_features=edge_blocks[perm].reshape(n * k, -1),
            ca_mask=graph.ca_mask[perm],
            node_atom_indices=graph.node_atom_indices[perm],
        )
        out = forward(permuted, params, SMALL)
        np.testing.assert_allclose(
            out.refined_coords, base.refined_coords[perm], atol=1e-9
        )
        np.testing.assert_allclose(out.embeddings, base.embeddings[perm], atol=1e-9)

    def test_displacement_bounded_by_gate_magnitude(self, rng):
        # force the coordinate gate to a constant M: per-layer displacement
        # is an average of vectors no longer than M
        config = ModelConfig(num_layers=1, hidden_dim=8)
        graph = random_graph(rng, n=15, d_f=config.node_feat_dim,
                             d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng)
        bound = 2.5
        params["layers.0.coord_mlp.w2"] = np.zeros((8, 1))
        params["layers.0.coord_mlp.b2"] = np.full((1,), bound)
        params["coord_skip_raw"] = np.array(-80.0)  # skip weight ~ 0
        result = forward(graph, params, config)
        displacement = np.linalg.norm(result.refined_coords - graph.coords, axis=1)
        assert displacement.max() <= bound + 1e-9

    def test_coincident_points_are_safe(self, rng):
        graph = random_graph(rng, n=12, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        graph.coords[1] = graph.coords[0]
        params = randomize(init_params(SMALL, 0), rng)
        result = forward(graph, params, SMALL)
        assert np.all(np.isfinite(result.refined_coords))

    def test_attention_disabled_still_runs(self, rng):
        config = ModelConfig(num_layers=2, hidden_dim=8, attention_enabled=False)
        graph = random_graph(rng, n=12, d_f=config.node_feat_dim,
                             d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng)
        result = forward(graph, params, config)
        assert np.all(np.isfinite(result.refined_coords))


def tape_nodes(*outputs):
    """Every tensor reachable from ``outputs`` through recorded parents."""
    seen, stack = {}, list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def recorded_edge_blocks(monkeypatch):
    """The tape nodes of the ``autodiff.edge_block`` ops the model runs,
    appended to the returned list as they run."""
    blocks, edge_block = [], model.edge_block

    def recording(*args):
        outputs = edge_block(*args)
        blocks.append(outputs[0]._parents[0])
        return outputs

    monkeypatch.setattr(model, "edge_block", recording)
    return blocks


class TestTape:
    def _case(self, rng):
        graph = random_graph(rng, n=20, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        return graph, randomize(init_params(SMALL, 0), rng)

    def test_forward_keeps_no_tape(self, rng, monkeypatch):
        graph, params = self._case(rng)
        passes = []

        def recording(*args):
            passes.append(forward_pass(*args))
            return passes[-1]

        monkeypatch.setattr(model, "forward_pass", recording)
        forward(graph, params, SMALL)
        fp = passes[0]
        nodes = tape_nodes(fp.coords, fp.embeddings, fp.qa)
        assert len(nodes) == 3
        assert all(node._backward is None for node in nodes)
        assert (Tensor(1.0) * 2)._parents  # the taping mode is restored

    def test_forward_equals_taped_forward_pass(self, rng):
        graph, params = self._case(rng)
        result = forward(graph, params, SMALL)
        fp = forward_pass(graph, params, SMALL)
        np.testing.assert_array_equal(result.refined_coords, fp.coords.data)
        np.testing.assert_array_equal(result.embeddings, fp.embeddings.data)
        np.testing.assert_array_equal(
            result.predicted_lddt, fp.qa.data[np.flatnonzero(graph.ca_mask), 0]
        )
        # the taped outputs lead back to every parameter leaf
        (fp.coords.sum() + fp.embeddings.sum() + fp.qa.sum()).backward()
        assert all(leaf.grad is not None for leaf in fp.leaves.values())

    def test_graph_arrays_are_constants(self, rng, monkeypatch):
        # the node and edge features enter as constant arrays, so no taped
        # tensor holds any of their rows and the backward computes no
        # gradient for them; every parentless coordinate tensor is the
        # graph's own array (the first layer's input and, in each layer's
        # skip mix, the anchor). The checkpoints run unwrapped, as the
        # backward pass re-runs them, so that their ops are on the tape
        graph, params = self._case(rng)
        monkeypatch.setattr(model, "EDGE_BLOCK", 7 * graph.neighbors.shape[1])
        monkeypatch.setattr(model, "checkpoint", lambda fn, inputs: fn(*inputs))
        fp = forward_pass(graph, params, SMALL)
        nodes = tape_nodes(fp.coords, fp.embeddings, fp.qa)
        coords = [node for node in nodes
                  if not node._parents and node.shape == graph.coords.shape]
        assert coords and all(np.shares_memory(node.data, graph.coords) for node in coords)
        for features in (graph.node_features, graph.edge_features):
            assert not any(np.shares_memory(node.data, features) for node in nodes)
            assert all(node.data.ndim < 2 or node.shape[1] != features.shape[1]
                       for node in nodes)

    def test_constant_inputs_get_no_gradient(self, rng):
        # the embedding reads the node features as an array, so the backward
        # forms no (n, d_f) gradient for them, and the skip anchor is no
        # checkpoint input: the first layer's input is the one parentless
        # coordinate tensor on the tape
        graph, params = self._case(rng)
        fp = forward_pass(graph, params, SMALL)
        nodes = tape_nodes(fp.coords, fp.embeddings, fp.qa)
        coords = [node for node in nodes
                  if not node._parents and node.shape == graph.coords.shape]
        assert len(coords) == 1
        (fp.coords.sum() + fp.qa.sum()).backward()
        assert not any(node.grad is not None and node.shape == graph.node_features.shape
                       for node in nodes)

    @pytest.mark.parametrize("config", [ModelConfig(num_layers=2, hidden_dim=6),
                                        ModelConfig(num_layers=1)],
                             ids=["small", "default"])
    def test_no_concatenated_message_input(self, rng, monkeypatch, config):
        # the message MLP's first layer is split, so no taped tensor holds
        # the per-edge input [h_i, h_j, a_ij, |x_i - x_j|^2]; at d = 8 the
        # node MLP's input of width 4d would have that width too. The edge
        # pass is on the tape as its edge-block nodes
        graph = random_graph(rng, n=20, d_f=config.node_feat_dim,
                             d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng)
        monkeypatch.setattr(model, "checkpoint", lambda fn, inputs: fn(*inputs))
        blocks = recorded_edge_blocks(monkeypatch)
        fp = forward_pass(graph, params, config)
        width = 2 * config.hidden_dim + config.edge_feat_dim + 1
        nodes = tape_nodes(fp.coords, fp.embeddings, fp.qa)
        assert blocks and {id(block) for block in blocks} <= {id(node) for node in nodes}
        assert all(node.data.ndim < 2 or node.shape[1] != width for node in nodes)

    @pytest.mark.parametrize("config", [ModelConfig(num_layers=1, hidden_dim=6),
                                        ModelConfig(num_layers=1)],
                             ids=["small", "default"])
    def test_edge_block_tapes_few_wide_tensors(self, rng, monkeypatch, config):
        # an edge block is one tape node: its edge rows live in its
        # backward, and no tensor of edge rows (the pre-activations, the
        # hidden layers, a gathered copy, a per-edge message) is on the tape
        graph = random_graph(rng, n=30, d_f=config.node_feat_dim,
                             d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng)
        monkeypatch.setattr(model, "checkpoint", lambda fn, inputs: fn(*inputs))
        monkeypatch.setattr(model, "EDGE_BLOCK", graph.neighbors.size)
        blocks = recorded_edge_blocks(monkeypatch)
        fp = forward_pass(graph, params, config)
        nodes = tape_nodes(fp.coords, fp.embeddings, fp.qa)
        assert len(blocks) == config.num_layers  # one window of one block
        assert {id(block) for block in blocks} <= {id(node) for node in nodes}
        assert all(node.data.ndim == 0 or len(node.data) != graph.neighbors.size
                   for node in nodes)

    def test_tape_holds_no_edge_rows(self, rng, monkeypatch):
        # after the forward pass each window is one checkpoint node that
        # keeps its nodes' outputs: the edge rows of its blocks are taped
        # only while the backward pass re-runs them, one window at a time
        graph, params = self._case(rng)
        n, k = graph.neighbors.shape
        for block in (2 * k, graph.neighbors.size):
            monkeypatch.setattr(model, "EDGE_BLOCK", block)
            step = block // k
            edge_rows = {min(step, n - start) * k for start in range(0, n, step)}
            fp = forward_pass(graph, params, SMALL)
            nodes = tape_nodes(fp.coords, fp.embeddings, fp.qa)
            assert all(node.data.ndim == 0 or len(node.data) not in edge_rows
                       for node in nodes)

    def test_backward_keeps_only_exact_leaf_grads(self, rng):
        graph, params = self._case(rng)
        w_coords = rng.normal(size=graph.coords.shape)
        w_qa = rng.normal(size=(graph.num_nodes, 1))

        def loss_of(fp):
            return (fp.coords * Tensor(w_coords)).sum() + (fp.qa * Tensor(w_qa)).sum()

        fp = forward_pass(graph, params, SMALL)
        loss = loss_of(fp)
        nodes = tape_nodes(loss)
        interior = [node for node in nodes if node._parents]
        loss.backward()
        assert all(node.grad is None and node._parents == () for node in interior)
        assert all(leaf.grad is not None for leaf in fp.leaves.values())

        # one entry of the message MLP's w1 in each row range it splits:
        # h_i, h_j, the edge features and the squared distance
        d, e = SMALL.hidden_dim, SMALL.edge_feat_dim
        w1_rows = [(0, d), (d, 2 * d), (2 * d, 2 * d + e), (2 * d + e, 2 * d + e + 1)]
        w1_entries = [rng.integers(a, b) * d + rng.integers(d) for a, b in w1_rows]

        step = 1e-5
        for name in ("embed.weight", "layers.0.msg_mlp.w1", "layers.1.coord_mlp.w2",
                     "coord_skip_raw", "qa_head.b2"):
            flat = params[name].reshape(-1)
            entries = (w1_entries if name == "layers.0.msg_mlp.w1" else
                       rng.choice(flat.size, size=min(3, flat.size), replace=False))
            for i in entries:
                orig = flat[i]
                values = []
                for shifted in (orig + step, orig - step):
                    flat[i] = shifted
                    with no_grad():
                        fp_shifted = forward_pass(graph, params, SMALL)
                    values.append(float(loss_of(fp_shifted).data))
                flat[i] = orig
                fd = (values[0] - values[1]) / (2 * step)
                analytic = fp.leaves[name].grad.reshape(-1)[i]
                assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-8), name


class TestEdgeBlocks:
    """The edge work in node blocks equals one block that holds a window.

    ``random_graph`` gives every node k = 20 neighbours once n > 20.
    """

    # 7 nodes per block, so one window of 50 nodes makes 8 blocks, the
    # last of 1 node; EDGE_BLOCK 1 gives every node a block of its own.
    # Windows of 16 nodes split 50 nodes into windows of 16, 16, 16 and 2,
    # and each window of 16 into blocks of 7, 7 and 2 nodes
    BLOCKS = pytest.mark.parametrize("config, edge_block", [
        (SMALL, 7 * 20 + 3), (SMALL, 1),
        (replace(SMALL, window_size=16), 7 * 20 + 3), (replace(SMALL, window_size=16), 1),
    ], ids=["ragged", "one_node", "windows_16", "windows_16_one_node"])

    @BLOCKS
    def test_forward_bitwise(self, rng, monkeypatch, config, edge_block):
        # the matrices are small enough that OpenBLAS multiplies them on
        # one thread, so the bitwise claim holds here at any thread setting
        graph = random_graph(rng, n=50, d_f=config.node_feat_dim,
                             d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng)
        monkeypatch.setattr(model, "EDGE_BLOCK", graph.neighbors.size)
        whole = forward(graph, params, config)
        monkeypatch.setattr(model, "EDGE_BLOCK", edge_block)
        blocked = forward(graph, params, config)
        np.testing.assert_array_equal(blocked.refined_coords, whole.refined_coords)
        np.testing.assert_array_equal(blocked.embeddings, whole.embeddings)
        np.testing.assert_array_equal(blocked.predicted_lddt, whole.predicted_lddt)

    @BLOCKS
    def test_gradients(self, rng, monkeypatch, config, edge_block):
        # the blocks sum each weight gradient in another order
        from test_train import synthetic_example

        example = synthetic_example(rng, n=50, config=config)
        params = randomize(init_params(config, 0), rng)
        monkeypatch.setattr(model, "EDGE_BLOCK", example.graph.neighbors.size)
        loss, grads = backward(example, params, config)
        monkeypatch.setattr(model, "EDGE_BLOCK", edge_block)
        blocked_loss, blocked = backward(example, params, config)
        assert blocked_loss == loss
        for name, grad in grads.items():
            np.testing.assert_allclose(blocked[name], grad, rtol=1e-12,
                                       atol=1e-12 * np.abs(grad).max(), err_msg=name)

    def test_equivariance(self, rng, monkeypatch):
        # 30 nodes: blocks of 7, 7, 7, 7 and 2 nodes
        monkeypatch.setattr(model, "EDGE_BLOCK", 7 * 20)
        TestForward().test_equivariance_proper_and_improper(rng)

    def test_inference_memory_is_one_block(self, rng):
        # Without a tape a layer holds O(n d) state plus one block of edge
        # rows. At 1,000 nodes (k = 20, d = 64) the message input of all
        # 20,000 edges alone is 23 MB: the unblocked layer peaked at 92 MB
        # in numpy allocations, the blocked one at 9.4 MB. Bound: 20 MB.
        config = ModelConfig(num_layers=1)
        graph = random_graph(rng, n=1000, d_f=config.node_feat_dim,
                             d_e=config.edge_feat_dim)
        params = randomize(init_params(config, 0), rng, scale=0.2)
        assert traced_peak(forward, graph, params, config) < 20 * 2 ** 20

    def test_inference_memory_on_a_complex(self):
        # 1,980 atoms, default model: with the node update over whole
        # arrays (its node MLP input of width 4d included) the forward
        # peaked at 14.8 MB in numpy allocations, over windows of rows at
        # 7.0 MB. Bound: 10 MB.
        config = ModelConfig()
        graph = build_knn_graph(make_complex(n_res_a=250, n_res_b=245), config)
        params = randomize(init_params(config, 0), np.random.default_rng(0), scale=0.05)
        assert traced_peak(forward, graph, params, config) < 10 * 2 ** 20

    def test_training_memory_is_one_block(self, rng):
        # The backward pass re-tapes one window, its edge blocks and node
        # update, at a time and walks it at once. At 1,000 nodes (k = 20,
        # d = 64) a backward that re-taped the whole layer before walking
        # it peaked at 85 MB in numpy allocations, one taping an edge block
        # or the whole node update at a time at 21 MB, and one taping a
        # window at a time at 17 MB. Bound: 40 MB.
        from test_train import synthetic_example

        config = ModelConfig(num_layers=1)
        example = synthetic_example(rng, n=1000, config=config)
        params = randomize(init_params(config, 0), rng, scale=0.2)
        assert traced_peak(backward, example, params, config) < 40 * 2 ** 20


class TestWeightsContainer:
    def test_round_trip_bitwise(self):
        params = init_params(SMALL, seed=11)
        blob = save_weights(params, SMALL)
        loaded, config = load_weights(blob)
        assert config == SMALL
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_load_copies_each_block_once(self):
        # the blocks are read through a view of the stream: the whole
        # default container peaked at twice its size in numpy and bytes
        # allocations when the data section was sliced out first
        config = ModelConfig()
        blob = save_weights(init_params(config, 0), config)
        assert traced_peak(load_weights, blob) < 1.2 * len(blob)

    def test_bad_magic(self):
        blob = save_weights(init_params(SMALL, 0), SMALL)
        with pytest.raises(WeightsVersionError):
            load_weights(b"XXXX" + blob[4:])

    def test_bad_version(self):
        import struct

        blob = save_weights(init_params(SMALL, 0), SMALL)
        with pytest.raises(WeightsVersionError):
            load_weights(blob[:4] + struct.pack("<I", 99) + blob[8:])

    def test_truncated_stream(self):
        blob = save_weights(init_params(SMALL, 0), SMALL)
        with pytest.raises(WeightsTruncatedError):
            load_weights(blob[: len(blob) - 40])

    def test_shape_mismatch(self):
        params = init_params(SMALL, 0)
        params["embed.weight"] = np.zeros((2, 2))
        with pytest.raises(WeightsShapeError):
            save_weights(params, SMALL)

    def test_extra_arrays_and_meta(self):
        params = init_params(SMALL, 0)
        extra = {"opt.step": np.array(7.0)}
        blob = save_weights(params, SMALL, extra_arrays=extra,
                            extra_meta={"epoch": 3})
        loaded, config, arrays, meta = load_container(blob)
        assert meta == {"epoch": 3}
        np.testing.assert_array_equal(arrays["opt.step"], 7.0)

    def test_header_with_stored_widths_loads_bitwise(self, rng):
        # containers written before the widths were derived store them too,
        # and those written before the slope and the radial constant were
        # fixed also store both
        params = randomize(init_params(SMALL, 0), rng)
        widths = {"node_feat_dim": 39, "edge_feat_dim": 15}
        former = {**widths, "leaky_slope": 0.01, "norm_constant": 1.0}
        for stored in (widths, former):
            blob = rewrite_header(
                save_weights(params, SMALL),
                lambda header: header["config"].update(stored),
            )
            loaded, config = load_weights(blob)
            assert config == SMALL
            for k in params:
                np.testing.assert_array_equal(loaded[k], params[k])

    def test_forward_identical_after_round_trip(self, rng):
        graph = random_graph(rng, n=14, d_f=SMALL.node_feat_dim,
                             d_e=SMALL.edge_feat_dim)
        params = randomize(init_params(SMALL, 0), rng)
        before = forward(graph, params, SMALL)
        loaded, config = load_weights(save_weights(params, SMALL))
        after = forward(graph, loaded, config)
        np.testing.assert_array_equal(before.refined_coords, after.refined_coords)
        np.testing.assert_array_equal(before.predicted_lddt, after.predicted_lddt)

    def test_header_claiming_more_blocks_than_listed(self, monkeypatch):
        listed = []
        real = model.parameter_shapes
        monkeypatch.setattr(model, "parameter_shapes", lambda config: (
            listed.append(config.num_layers) or real(config)))
        blob = container({"config": {"num_layers": 100000}, "blocks": []})
        with pytest.raises(WeightsShapeError, match="lists 0 blocks"):
            load_container(blob)
        assert listed == []  # the blocks are counted, not listed

    @pytest.mark.parametrize("config", [
        SMALL, ModelConfig(), ModelConfig(num_layers=3, hidden_dim=5, granularity="c-alpha",
                                          include_surface=False, include_geometric=False),
    ], ids=["small", "default", "c_alpha"])
    def test_block_count_matches_the_shape_table(self, config):
        assert model._block_count(config) == len(parameter_shapes(config))

    def test_blocks_sharing_bytes_are_rejected(self):
        def repeat_first_block(header):
            first = header["blocks"][0]
            header["blocks"] += [{**first, "name": f"copy.{i}"} for i in range(50)]

        blob = rewrite_header(save_weights(init_params(SMALL, 0), SMALL),
                              repeat_first_block)
        with pytest.raises(WeightsTruncatedError, match="more bytes"):
            load_container(blob)

    def test_missing_block_names_are_capped(self):
        def rename_blocks(header):
            for i, block in enumerate(header["blocks"]):
                block["name"] = f"other.{i}"

        blob = rewrite_header(save_weights(init_params(SMALL, 0), SMALL),
                              rename_blocks)
        count = len(parameter_shapes(SMALL))
        with pytest.raises(WeightsShapeError, match=f"and {count - 5} more$"):
            load_container(blob)

    @pytest.mark.parametrize("shape", [[0, 2 ** 70], [0] * 70])
    def test_unusable_block_shape(self, shape):
        blob = rewrite_header(
            save_weights(init_params(SMALL, 0), SMALL),
            lambda header: header["blocks"][0].update(shape=shape),
        )
        with pytest.raises(WeightsShapeError, match="unusable shape"):
            load_container(blob)

    def test_deeply_nested_header(self):
        with pytest.raises(WeightsFormatError):
            load_container(container_bytes(b"[" * 100000))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(header=HEADERS, body=st.binary(max_size=64))
    def test_any_header_raises_a_format_error(self, header, body):
        # a WeightsFormatError is exit 3 for refine; anything else would be
        # a traceback
        with pytest.raises(WeightsFormatError):
            load_container(container(header, body))


class TestConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"num_layers": 2, "hidden_dim": 8, "typo": 1})

    def test_rejects_bad_values(self):
        for bad in (
            {"num_layers": 0},
            {"window_size": 0},
            {"qa_loss_weight": -0.1},
            {"k_neighbors": 0},
            {"noise_sigma": -0.5},
            {"granularity": "bogus"},
            {"num_layers": "2"},
            {"hidden_dim": 8.0},
            {"k_neighbors": True},
            {"include_surface": 1},
            {"noise_sigma": float("nan")},
        ):
            with pytest.raises(ConfigError):
                ModelConfig(**bad)

    def test_stored_widths_must_match_derived(self):
        data = SMALL.to_dict()
        assert "node_feat_dim" not in data and "edge_feat_dim" not in data
        legacy = {**data, "node_feat_dim": 39, "edge_feat_dim": 15}
        assert ModelConfig.from_dict(legacy) == SMALL
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({**legacy, "node_feat_dim": 38})

    def test_widths_helper_agrees_with_featurize(self):
        structure = make_complex()
        for granularity in ("all-atom", "c-alpha"):
            for surface in (True, False):
                for geometric in (True, False):
                    config = ModelConfig(
                        num_layers=1, hidden_dim=4,
                        granularity=granularity,
                        include_surface=surface,
                        include_geometric=geometric,
                    )
                    graph = build_knn_graph(structure, config)
                    assert config.node_feat_dim == graph.node_features.shape[1]
                    assert config.edge_feat_dim == graph.edge_features.shape[1]
                    forward(graph, init_params(config, 0), config)
