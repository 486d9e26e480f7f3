import json
from dataclasses import replace

import numpy as np
import pytest

from equiref.autodiff import no_grad
from equiref import train
from equiref.errors import ConfigError, DivergenceError, LossUndefinedError
from equiref.model import ModelConfig, forward, forward_pass, init_params
from equiref.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    OptimizerState,
    RunConfig,
    TrainingExample,
    _loss_tensor,
    adamw_step,
    backward,
    clip_gradients,
    make_training_example,
    train_loop,
    validation_rmsd,
)

from conftest import make_complex, random_rotation, take_rows, transform_structure
from oracles import huber, psr_loss, qa_loss, total_loss

# Feature widths (27, 2): the narrowest combination the featurizer produces.
TINY = ModelConfig(num_layers=2, hidden_dim=6, granularity="c-alpha",
                   include_surface=False, include_geometric=False)


def loss_value(example, params, config):
    """The total loss of ``example`` from a forward pass that builds no tape."""
    with no_grad():
        fp = forward_pass(example.graph, params, config)
        return float(_loss_tensor(example, fp, config).data)


def synthetic_example(rng, n=10, config=TINY, residual_scale=0.4,
                      with_psr=True, with_qa=True):
    """Random graph plus supervision targets of controllable residual size."""
    from test_model import random_graph

    graph = random_graph(rng, n=n, d_f=config.node_feat_dim,
                         d_e=config.edge_feat_dim)
    if with_psr:
        matched = rng.choice(n, size=max(2, n // 2), replace=False)
        matched.sort()
        native = graph.coords[matched] + rng.normal(
            scale=residual_scale, size=(matched.size, 3)
        )
    else:
        matched = np.array([], dtype=np.intp)
        native = np.zeros((0, 3))
    ca_nodes = np.flatnonzero(graph.ca_mask)
    if with_qa and ca_nodes.size:
        targets = rng.uniform(0, 1, size=ca_nodes.size)
    else:
        ca_nodes = np.array([], dtype=np.intp)
        targets = np.zeros(0)
    return TrainingExample(
        graph=graph,
        matched_nodes=np.asarray(matched, dtype=np.intp),
        native_coords=native,
        lddt_nodes=ca_nodes,
        lddt_targets=targets,
        decoy_id="synthetic",
    )


class TestHuber:
    def test_quadratic_branch(self):
        assert huber(0.5) == 0.125

    def test_linear_branch(self):
        assert huber(2.0) == 1.5

    def test_branches_agree_at_delta(self):
        below = huber(np.nextafter(1.0, 0.0))
        at = huber(1.0)
        assert at == 0.5
        assert abs(below - at) < 1e-12

    def test_derivative_continuous_at_delta(self):
        h = 1e-7
        slope_below = (huber(1.0 - h) - huber(1.0 - 3 * h)) / (2 * h)
        slope_above = (huber(1.0 + 3 * h) - huber(1.0 + h)) / (2 * h)
        assert slope_below == pytest.approx(slope_above, abs=1e-6)
        assert slope_above == pytest.approx(1.0, abs=1e-6)


class TestPsrLoss:
    def test_perfect_refinement(self, rng):
        refined = rng.normal(size=(6, 3))
        nodes = np.arange(6)
        value, grad = psr_loss(refined, refined.copy(), nodes)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_component_residual(self):
        refined = np.zeros((1, 3))
        native = np.array([[-0.5, 0.0, 0.0]])
        value, _ = psr_loss(refined, native, np.array([0]))
        assert value == pytest.approx(0.125 / 3)

    def test_gradient_matches_finite_difference(self, rng):
        refined = rng.normal(scale=1.2, size=(5, 3))
        native = refined[:3] + rng.normal(scale=0.9, size=(3, 3))
        nodes = np.array([0, 1, 2])
        value, grad = psr_loss(refined, native, nodes)
        step = 1e-6
        for i in range(5):
            for c in range(3):
                bumped = refined.copy()
                bumped[i, c] += step
                up, _ = psr_loss(bumped, native, nodes)
                bumped[i, c] -= 2 * step
                down, _ = psr_loss(bumped, native, nodes)
                fd = (up - down) / (2 * step)
                assert grad[i, c] == pytest.approx(fd, abs=1e-8)
        np.testing.assert_array_equal(grad[3:], 0.0)

    def test_empty_set_raises(self):
        with pytest.raises(LossUndefinedError):
            psr_loss(np.zeros((3, 3)), np.zeros((0, 3)), np.array([], dtype=int))


class TestQaLoss:
    def test_perfect(self):
        predicted = np.array([0.2, 0.9, 0.5])
        value, grad = qa_loss(predicted, predicted[:2].copy(), np.array([0, 1]))
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_node_unit_error(self):
        value, _ = qa_loss(np.array([0.0]), np.array([1.0]), np.array([0]))
        assert value == 1.0

    def test_two_node_arithmetic(self):
        value, _ = qa_loss(
            np.array([0.2, 0.8]), np.array([0.4, 0.4]), np.array([0, 1])
        )
        assert value == pytest.approx(0.10)

    def test_gradient(self):
        predicted = np.array([0.3, 0.7, 0.1])
        targets = np.array([0.5, 0.2])
        nodes = np.array([0, 1])
        _, grad = qa_loss(predicted, targets, nodes)
        np.testing.assert_allclose(grad[:2], 2 * (predicted[:2] - targets) / 2)
        assert grad[2] == 0.0


class TestTotalLoss:
    def build(self, rng, psr_target=2.0, qa_value=1.0):
        example = synthetic_example(rng, with_psr=True, with_qa=True)
        # residual components of 2.5 give a per-component Huber value of 2.0
        example.matched_nodes = np.array([0])
        example.native_coords = example.graph.coords[:1] - 2.5
        example.lddt_nodes = np.array([1])
        example.lddt_targets = np.array([1.0])
        refined = example.graph.coords
        predicted = np.zeros(example.graph.num_nodes)
        return example, refined, predicted

    def test_weighted_sum(self, rng):
        example, refined, predicted = self.build(rng)
        config = ModelConfig(num_layers=1, hidden_dim=4, granularity="c-alpha",
                             include_surface=False, include_geometric=False)
        value = total_loss(example, refined, predicted, config)
        assert value == pytest.approx(1.0 * 2.0 + 0.05 * 1.0)

    def test_qa_mask(self, rng):
        example, refined, predicted = self.build(rng)
        example.lddt_nodes = np.array([], dtype=np.intp)
        example.lddt_targets = np.zeros(0)
        value = total_loss(example, refined, predicted, TINY)
        assert value == pytest.approx(2.0)

    def test_psr_mask(self, rng):
        example, refined, predicted = self.build(rng)
        example.matched_nodes = np.array([], dtype=np.intp)
        example.native_coords = np.zeros((0, 3))
        value = total_loss(example, refined, predicted, TINY)
        assert value == pytest.approx(0.05 * 1.0)

    def test_both_empty_skips(self, rng):
        example, refined, predicted = self.build(rng)
        example.matched_nodes = np.array([], dtype=np.intp)
        example.native_coords = np.zeros((0, 3))
        example.lddt_nodes = np.array([], dtype=np.intp)
        example.lddt_targets = np.zeros(0)
        with pytest.raises(LossUndefinedError):
            total_loss(example, refined, predicted, TINY)


class TestBackward:
    def test_tape_loss_equals_oracle(self, rng):
        # residuals of scale 1.5 fall on both sides of the Huber delta
        from test_model import randomize

        example = synthetic_example(rng, n=12, residual_scale=1.5)
        params = randomize(init_params(TINY, 0), rng)
        fp = forward_pass(example.graph, params, TINY)
        expected = total_loss(example, fp.coords.data, fp.qa.data[:, 0], TINY)
        assert loss_value(example, params, TINY) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_loss_gives_zero_gradients(self, rng):
        example = synthetic_example(rng, with_qa=False)
        params = init_params(TINY, seed=0)  # zero-init: refined == input
        example.native_coords = example.graph.coords[example.matched_nodes].copy()
        result = forward(example.graph, params, TINY)
        ca = np.flatnonzero(example.graph.ca_mask)
        example.lddt_nodes = ca
        example.lddt_targets = result.predicted_lddt.copy()
        loss, grads = backward(example, params, TINY)
        assert loss == 0.0
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, 0.0, err_msg=name)

    def test_gradients_match_finite_difference(self, rng):
        # step 1e-5: a rectifier kink inside a wider window contaminates
        # the difference quotient without indicating a gradient error
        from test_model import randomize

        example = synthetic_example(rng, n=10)
        params = randomize(init_params(TINY, 0), rng)
        value, grads = backward(example, params, TINY)
        step = 1e-5
        for name in params:
            analytic = grads[name]
            fd = np.zeros_like(analytic)
            flat_fd = fd.reshape(-1)
            flat_p = params[name].reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + step
                up = loss_value(example, params, TINY)
                flat_p[i] = orig - step
                down = loss_value(example, params, TINY)
                flat_p[i] = orig
                flat_fd[i] = (up - down) / (2 * step)
            rel = np.linalg.norm(analytic - fd) / (np.linalg.norm(analytic) + 1e-8)
            assert rel < 1e-4, f"block {name}: {rel}"

    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no_attention"])
    def test_gradient_blocks_are_c_contiguous(self, rng, attention):
        # the fold of the global attention reads attn_global.wk through a
        # transpose first; its gradient must still be a row-major array
        from test_model import randomize

        config = replace(TINY, attention_enabled=attention)
        example = synthetic_example(rng, n=10, config=config)
        params = randomize(init_params(config, 0), rng)
        _, grads = backward(example, params, config)
        assert [name for name, grad in grads.items() if not grad.flags.c_contiguous] == []

    def test_loss_scales_linearly_with_weights(self, rng):
        from test_model import randomize

        example = synthetic_example(rng)
        params = randomize(init_params(TINY, 0), rng)
        base_value, base_grads = backward(example, params, TINY)
        scaled_config = replace(
            TINY,
            psr_loss_weight=3.0 * TINY.psr_loss_weight,
            qa_loss_weight=3.0 * TINY.qa_loss_weight,
        )
        value, grads = backward(example, params, scaled_config)
        assert value == pytest.approx(3.0 * base_value, rel=1e-12)
        for name in grads:
            np.testing.assert_allclose(
                grads[name], 3.0 * base_grads[name], atol=1e-12
            )

    def test_unmatched_rows_do_not_change_losses(self, rng):
        refined = rng.normal(size=(8, 3))
        native = refined[:4] + rng.normal(scale=0.5, size=(4, 3))
        nodes = np.arange(4)
        base, _ = psr_loss(refined, native, nodes)
        extended = np.vstack([refined, rng.normal(size=(5, 3))])
        value, _ = psr_loss(extended, native, nodes)
        assert value == base

        predicted = rng.uniform(0, 1, size=8)
        targets = rng.uniform(0, 1, size=3)
        qa_base, _ = qa_loss(predicted, targets, np.arange(3))
        qa_ext, _ = qa_loss(np.concatenate([predicted, [0.5]]), targets, np.arange(3))
        assert qa_ext == qa_base

    def test_total_loss_rigid_motion_invariant_in_quadratic_branch(self, rng):
        # residuals stay below the Huber delta, where the component-wise
        # loss reduces to half the squared norm and is rotation invariant
        from test_model import randomize, transform_graph

        example = synthetic_example(rng, residual_scale=0.15)
        params = randomize(init_params(TINY, 0), rng, scale=0.2)
        base = loss_value(example, params, TINY)
        for _ in range(3):
            rot = random_rotation(rng)
            shift = rng.normal(scale=10.0, size=3)
            moved_graph = transform_graph(example.graph, rot, shift)
            moved_example = TrainingExample(
                graph=moved_graph,
                matched_nodes=example.matched_nodes,
                native_coords=example.native_coords @ rot.T + shift,
                lddt_nodes=example.lddt_nodes,
                lddt_targets=example.lddt_targets,
            )
            value = loss_value(moved_example, params, TINY)
            assert value == pytest.approx(base, abs=1e-9)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = {"w": np.array([1.0, -2.0])}
        adamw_step(params, {"w": np.zeros(2)}, OptimizerState(),
                   RunConfig(weight_decay=0.0))
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_single_step_hand_evaluation(self):
        lr, wd = 1e-3, 1e-2
        theta = 0.7
        params = {"w": np.array(theta)}
        adamw_step(params, {"w": np.array(1.0)}, OptimizerState(),
                   RunConfig(learning_rate=lr, weight_decay=wd))
        expected = theta - lr * (1.0 / (1.0 + ADAM_EPS)) - lr * wd * theta
        assert params["w"] == pytest.approx(expected, rel=1e-15)

    def test_weight_decay_only_shrinks_multiplicatively(self):
        lr, wd = 1e-2, 1e-1
        params = {"w": np.array(2.0)}
        state = OptimizerState()
        run = RunConfig(learning_rate=lr, weight_decay=wd)
        for step in range(1, 4):
            adamw_step(params, {"w": np.array(0.0)}, state, run)
            assert params["w"] == pytest.approx(2.0 * (1 - lr * wd) ** step)

    def test_moments_are_bias_corrected(self):
        params = {"w": np.array(0.0)}
        adamw_step(params, {"w": np.array(0.5)}, OptimizerState(),
                   RunConfig(learning_rate=1.0, weight_decay=0.0))
        # first step: m_hat = g, v_hat = g^2, update ~ -lr * sign(g)
        assert params["w"] == pytest.approx(-1.0, abs=1e-6)

    def test_writes_into_no_array_it_is_given(self):
        lr, wd = 1e-2, 1e-1
        frozen = {"w": np.array([0.7, -0.7]), "m": np.array([0.2, -0.2]),
                  "v": np.array([0.3, 0.1]), "g": np.array([0.5, -0.5])}
        for array in frozen.values():
            array.flags.writeable = False
        params = {"w": frozen["w"]}
        state = OptimizerState(step=1, m={"w": frozen["m"]}, v={"w": frozen["v"]})
        adamw_step(params, {"w": frozen["g"]}, state,
                   RunConfig(learning_rate=lr, weight_decay=wd))
        m = ADAM_BETA1 * frozen["m"] + (1 - ADAM_BETA1) * frozen["g"]
        v = ADAM_BETA2 * frozen["v"] + (1 - ADAM_BETA2) * frozen["g"] ** 2
        update = (m / (1 - ADAM_BETA1 ** 2)) / (np.sqrt(v / (1 - ADAM_BETA2 ** 2))
                                                 + ADAM_EPS)
        expected = frozen["w"] - lr * update - lr * wd * frozen["w"]
        assert state.step == 2
        np.testing.assert_allclose(state.m["w"], m, rtol=1e-15)
        np.testing.assert_allclose(state.v["w"], v, rtol=1e-15)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-15)
        np.testing.assert_array_equal(frozen["w"], [0.7, -0.7])
        np.testing.assert_array_equal(frozen["m"], [0.2, -0.2])


class TestClip:
    def test_below_threshold_untouched(self):
        grads = {"a": np.array([0.3, 0.0]), "b": np.array([0.4])}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.0])

    def test_above_threshold_scaled_to_limit(self):
        grads = {"a": np.array([3.0, 4.0])}
        clip_gradients(grads, 1.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)

    def test_finite_gradient_whose_squares_overflow(self):
        grads = {"a": np.array([1e200, 1.0])}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(1e200, rel=1e-15)
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)

    def test_norm_beyond_float64_is_infinite_and_untouched(self):
        grads = {"a": np.full(4, 1e308), "b": np.array([1.0])}
        assert clip_gradients(grads, 1.0) == np.inf
        np.testing.assert_array_equal(grads["a"], np.full(4, 1e308))


def structure_pair(rng, sigma=0.5):
    native = make_complex(n_res_a=5, n_res_b=4)
    noisy = native.coords + rng.normal(scale=sigma, size=(native.num_atoms, 3))
    decoy = native.with_coords(noisy)
    return decoy, native


class TestMakeTrainingExample:
    def test_full_match_counts(self, rng):
        config = ModelConfig(num_layers=1, hidden_dim=4)
        decoy, native = structure_pair(rng)
        example = make_training_example(decoy, native, config)
        assert example.matched_nodes.size == decoy.num_atoms
        n_res = decoy.num_residues
        assert example.lddt_nodes.size == n_res
        assert np.all((example.lddt_targets >= 0) & (example.lddt_targets <= 1))

    def test_native_alignment_is_frame_independent(self, rng):
        config = ModelConfig(num_layers=1, hidden_dim=4)
        decoy, native = structure_pair(rng)
        base = make_training_example(decoy, native, config)
        rot = random_rotation(rng)
        moved_native = transform_structure(native, rot, np.array([30.0, -4.0, 8.0]))
        moved = make_training_example(decoy, moved_native, config)
        np.testing.assert_allclose(
            moved.native_coords, base.native_coords, atol=1e-8
        )

    def test_ca_granularity_supervises_ca_nodes_only(self, rng):
        config = ModelConfig(num_layers=1, hidden_dim=4, granularity="c-alpha")
        decoy, native = structure_pair(rng)
        example = make_training_example(decoy, native, config)
        n_res = decoy.num_residues
        assert example.graph.num_nodes == n_res
        assert example.matched_nodes.size == n_res


class TestGroundTruthLddt:
    CONFIG = ModelConfig(num_layers=1, hidden_dim=4)

    def test_identical_all_ones(self, rng):
        decoy, native = structure_pair(rng, sigma=0.0)
        labels = make_training_example(decoy, native, self.CONFIG).lddt_targets
        assert labels.size > 0
        np.testing.assert_array_equal(labels, 1.0)

    def test_scrambled_all_zero(self, rng):
        native = make_complex(n_res_a=5, n_res_b=4)
        decoy = native.with_coords(
            native.coords + rng.normal(scale=300.0, size=(native.num_atoms, 3))
        )
        labels = make_training_example(decoy, native, self.CONFIG).lddt_targets
        assert labels.size > 0
        assert labels.max() < 0.05


@pytest.fixture
def tiny_dataset(rng):
    config = ModelConfig(
        num_layers=1, hidden_dim=8, noise_sigma=0.0, k_neighbors=10
    )
    examples = []
    for i in range(2):
        decoy, native = structure_pair(np.random.default_rng(100 + i))
        examples.append(
            make_training_example(decoy, native, config, "t", f"d{i}")
        )
    return config, examples


class TestTrainLoop:
    def test_fixed_seed_reproducible_log(self, tiny_dataset):
        config, examples = tiny_dataset
        runs = []
        for _ in range(2):
            result = train_loop(
                examples, examples, config, seed=7, max_epochs=3, patience=50
            )
            runs.append(result.log_lines())
        assert runs[0] == runs[1]
        for k in runs[0][0], runs[0][1]:
            json.loads(k)  # structured text, one record per line

    def test_returns_global_best_checkpoint(self, tiny_dataset):
        config, examples = tiny_dataset
        result = train_loop(
            examples, examples, config, seed=3, max_epochs=6, patience=50
        )
        # epoch 0 is the input, which the initial parameters reproduce
        initial = validation_rmsd(examples, init_params(config, 3), config)
        rmsds = [initial] + [rec.val_rmsd for rec in result.log]
        assert result.best_val_rmsd == pytest.approx(min(rmsds))
        assert rmsds[result.best_epoch] == result.best_val_rmsd
        recomputed = validation_rmsd(examples, result.params, config)
        assert recomputed == pytest.approx(result.best_val_rmsd, rel=1e-12)

    def test_patience_bounds_trailing_non_best_epochs(self, tiny_dataset):
        config, examples = tiny_dataset
        patience = 2
        result = train_loop(
            examples, examples, config, seed=5, max_epochs=40, patience=patience
        )
        trailing = len(result.log) - result.best_epoch
        assert trailing <= patience
        if len(result.log) < 40:
            assert trailing == patience

    def test_an_epoch_that_does_not_beat_the_input_is_not_kept(self, tiny_dataset):
        config, examples = tiny_dataset
        result = train_loop(examples, examples, config, seed=3, max_epochs=1,
                            learning_rate=10.0)
        (record,) = result.log
        initial = validation_rmsd(examples, init_params(config, 3), config)
        assert record.val_rmsd > initial and not record.best
        assert result.best_epoch == 0 and result.best_val_rmsd == initial
        assert result.optimizer.step == 0
        expected = init_params(config, 3)
        assert all(np.array_equal(result.params[k], expected[k]) for k in expected)

    def test_non_finite_validation_rmsd_diverges(self, tiny_dataset, monkeypatch):
        config, examples = tiny_dataset
        monkeypatch.setattr(train, "validation_rmsd", lambda *args: float("nan"))
        with pytest.raises(DivergenceError, match="validation RMSD at epoch 1") as info:
            train_loop(examples, examples, config, seed=3, max_epochs=2)
        assert info.value.result.log == [] and info.value.result.best_epoch == 0

    def test_best_state_is_the_state_of_its_epoch(self, tiny_dataset):
        # the moments go on changing after the best epoch; the state kept
        # for it must not
        config, examples = tiny_dataset
        longer = train_loop(examples, examples, config, seed=3, max_epochs=5,
                            patience=50, learning_rate=1.0)
        assert longer.best_epoch == 3 and len(longer.log) == 5
        stopped = train_loop(examples, examples, config, seed=3, max_epochs=3,
                             patience=50, learning_rate=1.0)
        assert longer.optimizer.step == stopped.optimizer.step
        for kept, reference in ((longer.params, stopped.params),
                                (longer.optimizer.m, stopped.optimizer.m),
                                (longer.optimizer.v, stopped.optimizer.v)):
            assert kept.keys() == reference.keys()
            assert all(kept[k].tobytes() == reference[k].tobytes() for k in kept)

    def test_gradient_norm_beyond_float64_diverges(self, tiny_dataset, monkeypatch):
        config, examples = tiny_dataset
        params = init_params(config, 3)
        huge = {name: np.full(value.shape, 1e308) for name, value in params.items()}
        monkeypatch.setattr(train, "backward", lambda *args, **kwargs: (1.0, huge))
        with pytest.raises(DivergenceError,
                           match="epoch 1: gradient norm overflows float64") as info:
            train_loop(examples, examples, config, seed=3, max_epochs=2)
        assert info.value.result.log == [] and info.value.result.optimizer.step == 0

    def test_non_finite_gradient_is_named_before_the_loss(self, tiny_dataset,
                                                          monkeypatch):
        config, examples = tiny_dataset
        grads = {name: np.zeros(value.shape)
                 for name, value in init_params(config, 3).items()}
        second = list(grads)[1]
        grads[second] = np.full(grads[second].shape, np.nan)
        monkeypatch.setattr(train, "backward",
                            lambda *args, **kwargs: (float("nan"), grads))
        with pytest.raises(DivergenceError,
                           match=f"epoch 1: non-finite gradient in block {second}$"):
            train_loop(examples, examples, config, seed=3, max_epochs=2)

    def test_training_reduces_loss_and_rmsd(self, rng):
        config = ModelConfig(
            num_layers=1, hidden_dim=8, noise_sigma=0.0, k_neighbors=10
        )
        decoy, native = structure_pair(np.random.default_rng(4), sigma=0.6)
        example = make_training_example(decoy, native, config, "t", "d")
        initial = validation_rmsd([example], init_params(config, 11), config)
        result = train_loop(
            [example], [example], config, seed=11, max_epochs=60,
            patience=60, learning_rate=2e-3,
        )
        assert result.log[-1].train_loss < result.log[0].train_loss
        assert result.best_val_rmsd < initial

    def test_corruption_changes_training_stream(self, tiny_dataset):
        config, examples = tiny_dataset
        noisy_config = ModelConfig(
            num_layers=1, hidden_dim=8, noise_sigma=0.05, k_neighbors=10
        )
        clean = train_loop(examples, examples, config, seed=9, max_epochs=2,
                           patience=50)
        noisy = train_loop(examples, examples, noisy_config, seed=9,
                           max_epochs=2, patience=50)
        assert clean.log[0].train_loss != noisy.log[0].train_loss

    @pytest.mark.parametrize("settings, error", [
        ({"optimizer": None}, TypeError),
        ({"epochs": 3}, TypeError),
        ({"seed": -1}, ConfigError),
        ({"learning_rate": "x"}, ConfigError),
        ({"weight_decay": float("nan")}, ConfigError),
        ({"max_epochs": 2.0}, ConfigError),
        ({"patience": True}, ConfigError),
        ({"learning_rate": -1e-3}, ConfigError),
        ({"weight_decay": -1e-4}, ConfigError),
        ({"max_epochs": 0}, ConfigError),
        ({"patience": 0}, ConfigError),
    ], ids=["optimizer", "unknown", "negative_seed", "string_rate", "nan_decay",
            "float_epochs", "bool_patience", "negative_rate", "negative_decay",
            "no_epochs", "no_patience"])
    def test_settings_are_checked_as_in_a_config_file(self, tiny_dataset,
                                                      settings, error):
        config, examples = tiny_dataset
        with pytest.raises(error):
            train_loop(examples, examples, config, **settings)

    def test_unsupervised_example_costs_no_forward_pass(self, monkeypatch):
        # c-alpha nodes are CA atoms and the last native has none, so its
        # example supervises nothing and is skipped before its forward pass
        import equiref.train as train

        config = ModelConfig(num_layers=1, hidden_dim=8, k_neighbors=10,
                             granularity="c-alpha")
        examples = []
        for i in range(4):
            decoy, native = structure_pair(np.random.default_rng(100 + i))
            if i == 3:
                native = take_rows(native, native.name != "CA")
            examples.append(make_training_example(decoy, native, config, "t",
                                                  f"d{i}"))
        assert [ex.supervised for ex in examples] == [True, True, True, False]
        in_step = []
        passes = []
        taped_step, taped_pass = train.backward, train.forward_pass

        def counted_step(*args, **kwargs):
            in_step.append(True)
            try:
                return taped_step(*args, **kwargs)
            finally:
                in_step.pop()

        def counted_pass(*args, **kwargs):
            passes.append(bool(in_step))
            return taped_pass(*args, **kwargs)

        monkeypatch.setattr(train, "backward", counted_step)
        monkeypatch.setattr(train, "forward_pass", counted_pass)
        train_loop(examples, examples[:3], config, seed=0, max_epochs=1,
                   patience=1)
        assert passes.count(True) == 3  # one taped pass per supervised example

    def test_empty_training_set_rejected(self, tiny_dataset):
        config, _ = tiny_dataset
        with pytest.raises(ValueError):
            train_loop([], [], config, seed=0)
