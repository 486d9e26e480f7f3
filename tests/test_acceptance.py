"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criterion 7 trains a small model and takes a few minutes; it
is marked ``slow`` and can be deselected with ``-m "not slow"``.
"""

import math
import time

import numpy as np
import pytest

from equiref import model
from equiref.featurize import build_knn_graph, knn_edges
from equiref.metrics import (
    DecoyScore,
    RankingInput,
    Reference,
    dockq,
    format_mean_std,
    format_triple,
    hit_rate,
    lddt_ca,
    lddt_pairs,
    ranking_loss,
    score_pair,
)
from equiref.model import ModelConfig, forward, init_params
from equiref.structio import AtomIndex, match_atoms, parse_pdb, write_pdb
from equiref.train import (
    backward,
    make_training_example,
    train_loop,
    validation_rmsd,
)

from conftest import (
    build_structure,
    make_complex,
    random_rotation,
    transform_structure,
)
from oracles import lddt_bruteforce, quadratic_attention
from test_model import (
    linear_attention,
    on_arrays,
    random_graph,
    randomize,
    transform_graph,
)
from test_train import loss_value, synthetic_example


def report(number: int, detail: str) -> None:
    print(f"[criterion {number:02d}] PASS - {detail}")


def test_criterion_01_equivariance_suite(rng):
    """Forward commutes with random proper and improper rigid motions."""
    config = ModelConfig(num_layers=7, hidden_dim=64)
    params = randomize(init_params(config, 0), rng, scale=0.2)
    # the time bounds of these criteria are on the process's own CPU time,
    # which other work on a shared host does not lengthen
    started = time.process_time()
    worst_coord = 0.0
    worst_invariant = 0.0
    for trial in range(100):
        n = int(rng.integers(10, 201))
        graph = random_graph(rng, n=n, d_f=config.node_feat_dim,
                             d_e=config.edge_feat_dim)
        base = forward(graph, params, config)
        rot = random_rotation(rng, proper=bool(trial % 2))
        shift = rng.normal(scale=25.0, size=3)
        moved = forward(transform_graph(graph, rot, shift), params, config)
        expected = base.refined_coords @ rot.T + shift
        rel = np.linalg.norm(moved.refined_coords - expected) / np.linalg.norm(
            expected
        )
        worst_coord = max(worst_coord, rel)
        worst_invariant = max(
            worst_invariant,
            np.abs(moved.embeddings - base.embeddings).max(),
            np.abs(moved.predicted_lddt - base.predicted_lddt).max(),
        )
    elapsed = time.process_time() - started
    assert worst_coord < 1e-5
    assert worst_invariant < 1e-6
    assert elapsed < 60.0
    report(1, f"100 graphs, coord rel {worst_coord:.2e}, "
              f"invariants {worst_invariant:.2e}, {elapsed:.1f}s")


def test_criterion_02_linear_attention_identity(rng):
    """Linear-time attention equals the quadratic form on 1000 trials."""
    started = time.process_time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 65))
        h = rng.normal(size=(n, d))
        wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
        lin = on_arrays(linear_attention, h, wq, wk, wv)
        quad = quadratic_attention(h, wq, wk, wv)
        scale = np.abs(quad).max() + 1e-300
        worst = max(worst, np.abs(lin - quad).max() / scale)
    elapsed = time.process_time() - started
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(2, f"1000 trials, worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_gradient_oracle():
    """Central finite differences confirm every parameter block's gradient."""
    config = ModelConfig(num_layers=2, hidden_dim=8, granularity="c-alpha",
                         include_surface=False, include_geometric=False)
    rng = np.random.default_rng(101)
    example = synthetic_example(rng, n=12, config=config, residual_scale=0.3)
    params = randomize(init_params(config, 0), rng, scale=0.25)
    started = time.process_time()
    _, grads = backward(example, params, config)
    step = 1e-4
    worst = 0.0
    for name in params:
        analytic = grads[name]
        fd = np.zeros_like(analytic)
        flat_fd = fd.reshape(-1)
        flat_p = params[name].reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = loss_value(example, params, config)
            flat_p[i] = orig - step
            down = loss_value(example, params, config)
            flat_p[i] = orig
            flat_fd[i] = (up - down) / (2 * step)
        rel = np.linalg.norm(analytic - fd) / (np.linalg.norm(analytic) + 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-4, f"block {name}: {rel}"
    elapsed = time.process_time() - started
    assert elapsed < 120.0
    report(3, f"{len(params)} blocks on a 12-atom 2-layer model, "
              f"worst rel {worst:.2e}, {elapsed:.0f}s")


def test_criterion_03_gradient_oracle_in_edge_blocks(monkeypatch):
    """Criterion 03 with the edge pass split into ragged node blocks."""
    # criterion 03 has 12 nodes of k = 11 neighbours: blocks of 5, 5 and 2
    monkeypatch.setattr(model, "EDGE_BLOCK", 5 * 11)
    test_criterion_03_gradient_oracle()


def test_criterion_04_dockq_analytic_points(rng):
    """Exact anchors and monotonicity of the composite quality score."""
    assert dockq(1.0, 0.0, 0.0) == 1.0
    assert abs(dockq(0.5, 8.5, 1.5) - 0.5) < 1e-12
    for _ in range(10_000):
        f = float(rng.uniform(0, 1))
        lr = float(rng.uniform(0, 40))
        ir = float(rng.uniform(0, 12))
        base = dockq(f, lr, ir)
        assert dockq(min(f + 1e-3, 1.0), lr, ir) >= base
        assert dockq(f, lr + 1e-2, ir) <= base
        assert dockq(f, lr, ir + 1e-2) <= base
    report(4, "anchors exact to 1e-12, monotone on 10^4 samples")


def _random_ca_pair(rng, max_residues=30):
    n_res = int(rng.integers(4, max_residues + 1))
    split = int(rng.integers(1, n_res))
    rows = []
    index = 0
    for chain_id, count in (("A", split), ("B", n_res - split)):
        for _ in range(count):
            index += 1
            rows.append((chain_id, index, "GLY", "CA", rng.normal(scale=8.0, size=3)))
    native = build_structure(rows)
    decoy = native.with_coords(
        native.coords + rng.normal(scale=1.5, size=(native.num_atoms, 3))
    )
    return decoy, native


def test_criterion_05_lddt_oracle_equivalence(rng):
    """Vectorized LDDT equals exhaustive enumeration, float-for-float."""
    for _ in range(50):
        decoy, native = _random_ca_pair(rng)
        corr = match_atoms(decoy, AtomIndex(native))
        scores, mean = lddt_ca(decoy, lddt_pairs(native), corr)
        decoy_ca = [decoy.coords[d] for d, _ in corr.matched_ca]
        native_ca = [native.coords[n] for _, n in corr.matched_ca]
        oracle_scores, oracle_mean = lddt_bruteforce(decoy_ca, native_ca)
        assert mean == oracle_mean
        for got, want in zip(scores, oracle_scores):
            assert got == want or (math.isnan(got) and math.isnan(want))
    report(5, "50 random pairs (<= 30 residues) equal the brute-force oracle")


def test_criterion_06_metric_rigid_motion_invariance(rng):
    """Metric suite is stable under rigid motions of the inputs."""
    from equiref.metrics import fnat_fnonnat, irmsd, lrmsd

    def metrics_of(decoy, native):
        ref = Reference(native)
        corr = match_atoms(decoy, ref.index)
        return (fnat_fnonnat(decoy, ref)[0], score_pair(decoy, ref).dockq,
                lddt_ca(decoy, ref.lddt_pairs, corr)[1], irmsd(decoy, ref, corr),
                lrmsd(decoy, ref, corr))

    for _ in range(50):
        native = make_complex(
            n_res_a=int(rng.integers(4, 7)), n_res_b=int(rng.integers(3, 6))
        )
        decoy = native.with_coords(
            native.coords
            + rng.normal(scale=0.6, size=(native.num_atoms, 3))
        )
        base_fnat, base_dockq, base_lddt, base_irmsd, base_lrmsd = metrics_of(
            decoy, native)

        rot = random_rotation(rng, proper=True)
        shift = rng.normal(scale=20.0, size=3)
        decoy_m = transform_structure(decoy, rot, shift)
        native_m = transform_structure(native, rot, shift)

        moved_fnat, moved_dockq, moved_lddt, _, _ = metrics_of(decoy_m, native_m)
        assert abs(moved_fnat - base_fnat) < 1e-9
        assert abs(moved_dockq - base_dockq) < 1e-9
        assert abs(moved_lddt - base_lddt) < 1e-9
        # decoy-only motion: superposed metrics unchanged
        _, _, _, moved_irmsd, moved_lrmsd = metrics_of(decoy_m, native)
        assert abs(moved_irmsd - base_irmsd) < 1e-6
        assert abs(moved_lrmsd - base_lrmsd) < 1e-6
    report(6, "50 pairs: fnat/dockq/lddt to 1e-9, irmsd/lrmsd to 1e-6")


@pytest.mark.slow
def test_criterion_07_overfit_smoke_test():
    """A small model halves the coordinate error of three noisy complexes."""
    config = ModelConfig(num_layers=4, hidden_dim=32, noise_sigma=0.0)
    rng = np.random.default_rng(7)
    examples = []
    for i in range(3):
        native = make_complex(n_res_a=18, n_res_b=16, separation=7.0)
        assert native.num_atoms <= 300
        decoy = native.with_coords(
            native.coords + rng.normal(scale=0.5, size=(native.num_atoms, 3))
        )
        examples.append(
            make_training_example(decoy, native, config, f"t{i}", f"d{i}")
        )
    initial = validation_rmsd(examples, init_params(config, 0), config)
    started = time.process_time()
    epochs = 200  # 3 steps per epoch: 600 steps, well under the 2000 cap
    result = train_loop(
        examples, examples, config, seed=0, max_epochs=epochs,
        patience=epochs + 1, learning_rate=1e-3,
    )
    elapsed = time.process_time() - started
    final = validation_rmsd(examples, result.params, config)
    assert final <= 0.5 * initial
    assert elapsed < 600.0
    report(7, f"rmsd {initial:.3f} -> {final:.3f} A "
              f"({final / initial:.0%}) in {epochs * 3} steps, {elapsed:.0f}s")


def test_criterion_08_zero_init_identity():
    """A freshly initialized model reproduces its input exactly."""
    structure = make_complex()
    config = ModelConfig(num_layers=7, hidden_dim=64)
    graph = build_knn_graph(structure, config)
    params = init_params(config, seed=42)
    result = forward(graph, params, config)
    np.testing.assert_array_equal(result.refined_coords, graph.coords)
    refined = structure.with_coords(result.refined_coords)
    assert write_pdb(refined) == write_pdb(structure)
    round_trip = parse_pdb(write_pdb(refined))
    np.testing.assert_allclose(
        round_trip.coords, structure.coords, atol=5e-4
    )
    report(8, "refined coordinates identical; PDB text byte-equal")


def test_criterion_09_hit_rate_and_ranking_loss_fixtures():
    """Hand-enumerated triples and summary formatting on 11 targets."""
    # per target: true DockQ values in predicted-rank order (best first),
    # and the expected top-10 (acceptable/medium/high) triple
    table = [
        ([0.95] * 12, "10/10/10"),
        ([0.3, 0.5, 0.25] + [0.1] * 7, "3/1/0"),
        ([0.05] * 11, "0/0/0"),
        ([0.85, 0.6, 0.3, 0.2, 0.1], "3/2/1"),
        ([0.23, 0.49, 0.80] + [0.0] * 9, "3/2/1"),
        ([0.5] * 4, "4/4/0"),
        ([0.24] * 10 + [0.9], "10/0/0"),
        ([0.7, 0.7, 0.1, 0.1], "2/2/0"),
        ([0.81, 0.79], "2/2/1"),
        ([0.0] * 10, "0/0/0"),
        ([1.0] + [0.4] * 10, "10/1/1"),
    ]
    targets = []
    expected_losses = []
    for t, (values, _) in enumerate(table):
        decoys = [
            DecoyScore(f"d{i:02d}", float(len(values) - i), q)
            for i, q in enumerate(values)
        ]
        targets.append(RankingInput(f"t{t:02d}", decoys))
        expected_losses.append(1.0 - values[0])
    per_target, summary = hit_rate(targets, top_n=10)
    for (target_id, triple), (_, expected) in zip(per_target, table):
        assert format_triple(triple) == expected, target_id
    assert format_triple(summary) == "9/8/5"  # targets with a/b/c hits
    losses = [ranking_loss(t) for t in targets]
    np.testing.assert_allclose(losses, expected_losses)
    line = format_mean_std(losses)
    mean = float(np.mean(expected_losses))
    std = float(np.std(expected_losses, ddof=1))
    assert line == f"{mean:.4f} ± {std:.4f}"
    assert format_mean_std([0.2, 0.4]) == "0.3000 ± 0.1414"
    report(9, f"11 targets, summary {format_triple(summary)}, losses {line}")


def test_criterion_10_knn_correctness(rng):
    """k-NN edges equal a brute-force sort on every size up to 500."""
    from test_featurize import brute_force_neighbors

    sizes = [2, 3, 7, 20, 21, 64, 201, 500]
    for n in sizes:
        coords = rng.normal(scale=12.0, size=(n, 3))
        neighbors = knn_edges(coords, 20)
        k_eff = min(20, n - 1)
        assert neighbors.shape == (n, k_eff)
        expected = brute_force_neighbors(coords, 20)
        for i in range(n):
            assert neighbors[i].tolist() == expected[i], f"node {i} of n={n}"
    report(10, f"brute-force equality at sizes {sizes}; edge counts exact")
