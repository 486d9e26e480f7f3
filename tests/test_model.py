import numpy as np
import pytest

from equiref import model
from equiref.autodiff import Tensor, no_grad
from equiref.errors import (
    ConfigError,
    WeightsShapeError,
    WeightsTruncatedError,
    WeightsVersionError,
)
from equiref.featurize import build_knn_graph
from equiref.model import (
    ModelConfig,
    build_graph,
    forward,
    forward_pass,
    init_params,
    load_container,
    load_weights,
    parameter_count,
    save_weights,
)

from conftest import make_complex, random_rotation, rewrite_header
from oracles import quadratic_attention

SMALL = ModelConfig(num_layers=2, hidden_dim=8)


def on_arrays(fn, *arrays, **kwargs):
    """``fn`` of Tensor inputs run on numpy arrays under no_grad()."""
    with no_grad():
        return fn(*map(Tensor, arrays), **kwargs).data


def layer_step(graph, params, config, layer, x, h, f_emb):
    """One layer on explicit state arrays; the anchor is the graph's."""
    with no_grad():
        leaves = {name: Tensor(value) for name, value in params.items()}
        x_new, h_new = model._layer(
            Tensor(x), Tensor(h), Tensor(graph.initial_coords), Tensor(f_emb),
            Tensor(graph.edge_features), graph.neighbors,
            leaves, f"layers.{layer}.", config,
            leaves["coord_skip_raw"].sigmoid(), leaves["node_skip_raw"].sigmoid(),
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
        initial_coords=coords.copy(),
        node_features=rng.normal(size=(n, d_f)),
        neighbors=neighbors,
        edge_features=rng.normal(size=(neighbors.size, d_e)),
        ca_mask=rng.random(n) < 0.3,
        residue_of_node=np.arange(n),
        chain_of_node=np.array(["A"] * n),
        granularity="all-atom",
    )
    if not graph.ca_mask.any():
        graph.ca_mask[0] = True
    return graph


def transform_graph(graph, rot, shift):
    from dataclasses import replace

    return replace(
        graph,
        coords=graph.coords @ rot.T + shift,
        initial_coords=graph.initial_coords @ rot.T + shift,
    )


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
        assert parameter_count(SMALL) == expected
        total = sum(v.size for v in init_params(SMALL, 0).values())
        assert total == expected


class TestLinearAttention:
    def test_matches_quadratic_form(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 65))
            d = int(rng.integers(2, 65))
            h = rng.normal(size=(n, d))
            wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
            lin = on_arrays(model._linear_attention, h, wq, wk, wv)
            quad = quadratic_attention(h, wq, wk, wv)
            denom = np.abs(quad).max() + 1e-12
            assert np.abs(lin - quad).max() / denom < 1e-10

    def test_single_token(self, rng):
        h = rng.normal(size=(1, 6))
        wq, wk, wv = (rng.normal(size=(6, 6)) for _ in range(3))
        q, k, v = h @ wq, h @ wk, h @ wv
        expected = q @ (k.T @ v)  # n = 1: the normalization cancels
        out = on_arrays(model._linear_attention, h, wq, wk, wv)
        np.testing.assert_allclose(out, expected)

    def test_zero_embeddings(self, rng):
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        out = on_arrays(model._linear_attention, np.zeros((7, 4)), wq, wk, wv)
        np.testing.assert_array_equal(out, 0.0)


class TestWindowAttention:
    def full_softmax(self, h, wq, wk, wv):
        q, k, v = h @ wq, h @ wk, h @ wv
        scores = q @ k.T / np.sqrt(h.shape[1])
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        return (e / e.sum(axis=1, keepdims=True)) @ v

    def test_single_block_equals_full_attention(self, rng):
        h = rng.normal(size=(10, 6))
        wq, wk, wv = (rng.normal(size=(6, 6)) for _ in range(3))
        out = on_arrays(model._window_attention, h, wq, wk, wv, window=128)
        np.testing.assert_allclose(out, self.full_softmax(h, wq, wk, wv), atol=1e-12)

    def test_blocks_are_independent(self, rng):
        window = 8
        h = rng.normal(size=(2 * window, 5))
        wq, wk, wv = (rng.normal(size=(5, 5)) for _ in range(3))
        base = on_arrays(model._window_attention, h, wq, wk, wv, window=window)
        h2 = h.copy()
        h2[window:] = rng.normal(size=(window, 5))
        out = on_arrays(model._window_attention, h2, wq, wk, wv, window=window)
        np.testing.assert_array_equal(out[:window], base[:window])
        assert not np.allclose(out[window:], base[window:])

    def test_hand_sized_bruteforce(self, rng):
        h = rng.normal(size=(4, 2))
        wq, wk, wv = (rng.normal(size=(2, 2)) for _ in range(3))
        out = on_arrays(model._window_attention, h, wq, wk, wv, window=2)
        for block in (slice(0, 2), slice(2, 4)):
            hb = h[block]
            np.testing.assert_allclose(
                out[block], self.full_softmax(hb, wq, wk, wv), atol=1e-12
            )


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
        np.testing.assert_array_equal(x_new, graph.initial_coords)

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
        graph = build_knn_graph(structure, "all-atom")
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
            initial_coords=graph.initial_coords[perm],
            node_features=graph.node_features[perm],
            neighbors=inverse[graph.neighbors[perm]],
            edge_features=edge_blocks[perm].reshape(n * k, -1),
            ca_mask=graph.ca_mask[perm],
            residue_of_node=graph.residue_of_node[perm],
            chain_of_node=graph.chain_of_node[perm],
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
        graph.initial_coords[1] = graph.initial_coords[0]
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
        assert len(tape_nodes(fp.coords)) > 100
        np.testing.assert_array_equal(result.refined_coords, fp.coords.data)
        np.testing.assert_array_equal(result.embeddings, fp.embeddings.data)
        np.testing.assert_array_equal(
            result.predicted_lddt, fp.qa.data[np.flatnonzero(graph.ca_mask), 0]
        )

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

        step = 1e-5
        for name in ("embed.weight", "layers.0.msg_mlp.w1", "layers.1.coord_mlp.w2",
                     "coord_skip_raw", "qa_head.b2"):
            flat = params[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
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


class TestWeightsContainer:
    def test_round_trip_bitwise(self):
        params = init_params(SMALL, seed=11)
        blob = save_weights(params, SMALL)
        loaded, config = load_weights(blob)
        assert config == SMALL
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])

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
        # containers written before the widths were derived store them too
        params = randomize(init_params(SMALL, 0), rng)
        blob = rewrite_header(
            save_weights(params, SMALL),
            lambda header: header["config"].update(node_feat_dim=39,
                                                   edge_feat_dim=15),
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
                    graph = build_graph(structure, config)
                    assert config.node_feat_dim == graph.node_features.shape[1]
                    assert config.edge_feat_dim == graph.edge_features.shape[1]
                    forward(graph, init_params(config, 0), config)
