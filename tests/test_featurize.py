import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiref import structio
from equiref.errors import GraphTooSmallError, SurfaceOverrideError
from equiref.featurize import (
    ATOM_TYPES,
    GRANULARITIES,
    RESIDUE_TYPES,
    SURFACE_MAX_NEIGHBORS,
    SURFACE_RADIUS,
    backbone_dihedrals,
    build_knn_graph,
    corrupt_coordinates,
    feature_widths,
    knn_edges,
    node_features_allatom,
    read_surface_file,
    surface_proximity,
)
from equiref.model import ModelConfig
from conftest import (
    build_structure,
    random_rotation,
    reference_contacts,
    replace_columns,
    transform_structure,
)
from oracles import contacts_bruteforce


ALL_ATOM = ModelConfig()
C_ALPHA = ModelConfig(granularity="c-alpha")


def brute_force_neighbors(coords, k):
    """Independent O(n^2) neighbor lists: sort by (distance, index)."""
    n = coords.shape[0]
    k_eff = min(k, n - 1)
    out = []
    for i in range(n):
        ranked = sorted(
            (float(np.linalg.norm(coords[j] - coords[i])), j)
            for j in range(n)
            if j != i
        )
        out.append([j for _, j in ranked[:k_eff]])
    return out


def edge_endpoints(graph):
    """(source, center) node of every edge-feature row, in row order."""
    n, k = graph.neighbors.shape
    return graph.neighbors.ravel(), np.repeat(np.arange(n), k)


def point_chain(coords, chain_id="A", name="CA", resname="GLY"):
    """Rows of one single-atom residue per coordinate."""
    return [(chain_id, i + 1, resname, name, c) for i, c in enumerate(coords)]


class TestKnnGraph:
    def test_k_clips_to_n_minus_1(self, rng):
        coords = rng.normal(size=(5, 3)) * 5
        s = build_structure(point_chain(coords))
        g = build_knn_graph(s, ModelConfig(k_neighbors=20))
        assert g.num_edges == 5 * 4

    def test_paper_edge_count(self, rng):
        coords = rng.normal(size=(21, 3)) * 8
        s = build_structure(point_chain(coords))
        g = build_knn_graph(s, ModelConfig(k_neighbors=20))
        assert g.num_edges == 21 * 20

    def test_tetrahedron_ties_break_by_index(self):
        coords = np.array(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
        )
        neighbors = knn_edges(coords, 20)
        for i in range(4):
            assert neighbors[i].tolist() == [j for j in range(4) if j != i]

    def test_matches_brute_force(self, rng):
        for n in (2, 3, 7, 40, 120):
            coords = rng.normal(size=(n, 3)) * 10
            neighbors = knn_edges(coords, 20)
            expected = brute_force_neighbors(coords, 20)
            k_eff = min(20, n - 1)
            assert neighbors.shape == (n, k_eff)
            for i in range(n):
                assert neighbors[i].tolist() == expected[i]

    def test_too_small(self):
        s = build_structure(point_chain(np.zeros((1, 3))))
        with pytest.raises(GraphTooSmallError):
            build_knn_graph(s, ALL_ATOM)


class TestWidths:
    def test_all_atom_widths(self, two_chain_complex):
        g = build_knn_graph(two_chain_complex, ALL_ATOM)
        assert g.node_features.shape[1] == 39
        assert g.edge_features.shape[1] == 15

    def test_ca_widths(self, two_chain_complex):
        g = build_knn_graph(two_chain_complex, C_ALPHA)
        assert g.node_features.shape[1] == 28
        assert g.edge_features.shape[1] == 14
        assert g.num_nodes == two_chain_complex.num_residues

    def test_ablation_widths(self, two_chain_complex):
        for config, widths in (
            (replace(ALL_ATOM, include_surface=False), (38, 15)),
            (replace(ALL_ATOM, include_geometric=False), (39, 3)),
            (replace(C_ALPHA, include_surface=False), (27, 14)),
            (replace(C_ALPHA, include_geometric=False), (28, 2)),
        ):
            g = build_knn_graph(two_chain_complex, config)
            assert (g.node_features.shape[1], g.edge_features.shape[1]) == widths
            assert feature_widths(config) == widths

    def test_one_hot_blocks_sum_to_one(self, two_chain_complex):
        g = build_knn_graph(two_chain_complex, ALL_ATOM)
        np.testing.assert_array_equal(
            g.node_features[:, : len(ATOM_TYPES)].sum(axis=1), 1.0
        )
        g = build_knn_graph(two_chain_complex, C_ALPHA)
        np.testing.assert_array_equal(
            g.node_features[:, : len(RESIDUE_TYPES)].sum(axis=1), 1.0
        )


class TestNodeFeatures:
    def test_ca_one_hot_index(self, two_chain_complex):
        feats = node_features_allatom(two_chain_complex, None)
        ca_rows = np.flatnonzero(two_chain_complex.name == "CA")
        idx = ATOM_TYPES.index("CA")
        for r in ca_rows:
            assert feats[r, idx] == 1.0
            assert feats[r].sum() == 1.0

    def test_unknown_atom_name_maps_to_unk(self):
        coords = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        s = build_structure(point_chain(coords, name="XX1"))
        feats = node_features_allatom(s, None)
        np.testing.assert_array_equal(feats[:, ATOM_TYPES.index("UNK")], 1.0)

    def test_glycine_residue_one_hot(self, two_chain_complex):
        g = build_knn_graph(two_chain_complex, C_ALPHA)
        res_names = two_chain_complex.resname[two_chain_complex.residue_starts]
        gly = RESIDUE_TYPES.index("GLY")
        for row, name in zip(g.node_features, res_names):
            assert row[gly] == (1.0 if name == "GLY" else 0.0)


class TestSurfaceProximity:
    def test_isolated_atom_fully_exposed(self):
        lone = point_chain(np.array([[50.0, 50.0, 50.0]]), chain_id="B")
        other = point_chain(np.zeros((1, 3)), chain_id="A")
        s = build_structure(other + lone)
        values = surface_proximity(s)
        np.testing.assert_array_equal(values, 1.0)

    def test_crowded_atom_fully_buried(self, rng):
        coords = np.vstack([[0.0, 0.0, 0.0], rng.normal(scale=2.0, size=(70, 3))])
        s = build_structure(point_chain(coords))
        values = surface_proximity(s)
        assert values[0] == 0.0

    def test_three_atom_chain(self):
        coords = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        s = build_structure(point_chain(coords))
        np.testing.assert_allclose(surface_proximity(s), 1.0 - 2.0 / 64.0)

    def test_cross_chain_atoms_do_not_count(self):
        a = point_chain(np.array([[0.0, 0.0, 0.0]]), chain_id="A")
        b = point_chain(np.array([[1.0, 0.0, 0.0]]), chain_id="B")
        s = build_structure(a + b)
        np.testing.assert_array_equal(surface_proximity(s), 1.0)

    def test_values_in_unit_interval(self, two_chain_complex):
        values = surface_proximity(two_chain_complex)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_override_file(self, two_chain_complex, tmp_path):
        n = two_chain_complex.num_atoms
        path = tmp_path / "surface.txt"
        path.write_text("\n".join(["0.25"] * n) + "\n")
        values = read_surface_file(path, n)
        np.testing.assert_array_equal(values, 0.25)
        g = build_knn_graph(two_chain_complex, ALL_ATOM, values)
        np.testing.assert_array_equal(g.node_features[:, -1], 0.25)

    def test_override_count_mismatch(self, two_chain_complex, tmp_path):
        path = tmp_path / "surface.txt"
        path.write_text("0.5\n0.5\n")
        with pytest.raises(SurfaceOverrideError):
            read_surface_file(path, two_chain_complex.num_atoms)

    def test_override_range_checked(self, tmp_path):
        path = tmp_path / "surface.txt"
        for text in ("0.5\n1.5\n", "0.5\nnan\n", "0.5\nx\n", "0.5\n\u00e9\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(SurfaceOverrideError):
                read_surface_file(path, 2)


def oracle_torsion(p1, p2, p3, p4):
    """Independent torsion route: plane normals and their cross product."""
    b1 = p2 - p1
    b2 = p3 - p2
    b3 = p4 - p3
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    bhat = b2 / np.linalg.norm(b2)
    ang = math.atan2(float(np.cross(n1, n2) @ bhat), float(n1 @ n2))
    return math.sin(ang), math.cos(ang)


class TestDihedrals:
    def test_terminal_angles_encode_zero_one(self, two_chain_complex):
        rows = backbone_dihedrals(two_chain_complex)
        # first residue of each chain: phi and omega undefined
        residue_chain = two_chain_complex.chain[two_chain_complex.residue_starts]
        first_rows = [0, int(np.count_nonzero(residue_chain == "A"))]
        for r in first_rows:
            np.testing.assert_array_equal(rows[r, 0:2], [0.0, 1.0])
            np.testing.assert_array_equal(rows[r, 4:6], [0.0, 1.0])
        # last residue of each chain: psi undefined
        last_rows = [first_rows[1] - 1, rows.shape[0] - 1]
        for r in last_rows:
            np.testing.assert_array_equal(rows[r, 2:4], [0.0, 1.0])

    def test_midchain_matches_oracle(self, two_chain_complex):
        rows = backbone_dihedrals(two_chain_complex)
        s = two_chain_complex
        n_res_a = int(np.count_nonzero(s.chain[s.residue_starts] == "A"))
        n, ca, c = (s.coords[s.residue_rows(name)] for name in ("N", "CA", "C"))
        for i in range(1, n_res_a - 1):
            phi = oracle_torsion(c[i - 1], n[i], ca[i], c[i])
            psi = oracle_torsion(n[i], ca[i], c[i], n[i + 1])
            omega = oracle_torsion(ca[i - 1], c[i - 1], n[i], ca[i])
            np.testing.assert_allclose(rows[i, 0:2], phi, atol=1e-12)
            np.testing.assert_allclose(rows[i, 2:4], psi, atol=1e-12)
            np.testing.assert_allclose(rows[i, 4:6], omega, atol=1e-12)

    def test_numbering_gap_breaks_adjacency(self):
        from conftest import helix_backbone, make_chain

        s = build_structure(make_chain("A", helix_backbone(4)))
        # residue numbers 1, 2, 10, 11: a gap before residue 2
        s = replace_columns(s, resnum=s.resnum + 7 * (s.residue >= 2))
        rows = backbone_dihedrals(s)
        np.testing.assert_array_equal(rows[2, 0:2], [0.0, 1.0])  # phi undefined
        np.testing.assert_array_equal(rows[1, 2:4], [0.0, 1.0])  # psi undefined

    def test_zero_length_axis_is_undefined(self):
        from conftest import helix_backbone, make_chain

        s = build_structure(make_chain("A", helix_backbone(3)))
        coords = s.coords.copy()
        coords[4] = coords[5]  # the N of residue 1 sits on its CA
        rows = backbone_dihedrals(s.with_coords(coords))
        assert np.all(np.isfinite(rows))
        np.testing.assert_array_equal(rows[1, 0:2], [0.0, 1.0])  # phi undefined


class TestEdgeFeatures:
    def test_same_chain_flag(self, two_chain_complex):
        g = build_knn_graph(two_chain_complex, ALL_ATOM)
        src, dst = edge_endpoints(g)
        chain = two_chain_complex.chain[g.node_atom_indices]
        same = chain[src] == chain[dst]
        np.testing.assert_array_equal(g.edge_features[:, 0], same.astype(float))
        assert set(np.unique(g.edge_features[:, 0])) == {0.0, 1.0}

    def test_sinusoidal_index_encoding(self, two_chain_complex):
        # node indices, which differ from atom indices at c-alpha
        for granularity in GRANULARITIES:
            g = build_knn_graph(two_chain_complex, ModelConfig(granularity=granularity))
            src, dst = edge_endpoints(g)
            delta = (dst - src).astype(float)
            np.testing.assert_allclose(g.edge_features[:, 1], np.sin(delta),
                                       atol=1e-12)

    def test_covalent_flag_by_distance(self):
        # two bonded atoms (1.5 A) and one distant atom in the same residue
        s = build_structure([
            ("A", 1, "ALA", "N", (0.0, 0.0, 0.0)),
            ("A", 1, "ALA", "CA", (1.5, 0.0, 0.0)),
            ("A", 1, "ALA", "CB", (5.5, 0.0, 0.0)),
        ])
        g = build_knn_graph(s, ALL_ATOM)
        cov = g.edge_features[:, -1]
        src, dst = edge_endpoints(g)
        for e in range(g.num_edges):
            d = np.linalg.norm(g.coords[src[e]] - g.coords[dst[e]])
            assert cov[e] == (1.0 if d <= 1.9 else 0.0)
        assert cov.sum() == 2.0  # the N-CA bond, both directions

    def test_covalent_requires_adjacent_residue(self):
        # 1.5 A apart but two residue indices apart: not covalent
        s = build_structure([
            ("A", 1, "GLY", "CA", (0.0, 0.0, 0.0)),
            ("A", 3, "GLY", "CA", (1.5, 0.0, 0.0)),
        ])
        g = build_knn_graph(s, ALL_ATOM)
        np.testing.assert_array_equal(g.edge_features[:, -1], 0.0)

    def test_geometric_block_rigid_motion_invariant(self, two_chain_complex, rng):
        # order within near-equal distances may change under rotation, so
        # compare edges in a canonical (dst, src) ordering
        def canonical(graph):
            src, dst = edge_endpoints(graph)
            order = np.lexsort((src, dst))
            return src[order], dst[order], graph.edge_features[order]

        base = build_knn_graph(two_chain_complex, ALL_ATOM)
        base_src, base_dst, base_feats = canonical(base)
        for _ in range(5):
            rot = random_rotation(rng)
            shift = rng.normal(scale=15.0, size=3)
            moved = transform_structure(two_chain_complex, rot, shift)
            g = build_knn_graph(moved, ALL_ATOM)
            src, dst, feats = canonical(g)
            np.testing.assert_array_equal(src, base_src)
            np.testing.assert_array_equal(dst, base_dst)
            np.testing.assert_allclose(feats, base_feats, atol=1e-9)
            np.testing.assert_allclose(
                g.node_features, base.node_features, atol=1e-9
            )


class TestCorruption:
    def test_sigma_zero_is_identity(self, two_chain_complex, rng):
        g = build_knn_graph(two_chain_complex, ALL_ATOM)
        out = corrupt_coordinates(g, 0.0, rng)
        np.testing.assert_array_equal(out.coords, g.coords)
        assert out.coords is not g.coords

    def test_fixed_seed_reproducible(self, two_chain_complex):
        g = build_knn_graph(two_chain_complex, ALL_ATOM)
        a = corrupt_coordinates(g, 0.1, np.random.default_rng(33))
        b = corrupt_coordinates(g, 0.1, np.random.default_rng(33))
        np.testing.assert_array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, g.coords)

    def test_anchor_follows_corruption(self, two_chain_complex):
        # only the coordinates change, and with the coordinate skip
        # saturated and the gates at zero the model returns its anchor
        from dataclasses import fields

        from equiref.model import forward, init_params

        g = build_knn_graph(two_chain_complex, ALL_ATOM)
        out = corrupt_coordinates(g, 0.5, np.random.default_rng(1))
        for field in fields(g):
            if field.name != "coords":
                assert getattr(out, field.name) is getattr(g, field.name)
        config = ModelConfig(num_layers=2, hidden_dim=8)
        params = init_params(config, seed=0)
        params["coord_skip_raw"] = np.array(1000.0)
        refined = forward(out, params, config).refined_coords
        np.testing.assert_array_equal(refined, out.coords)
        assert not np.array_equal(refined, g.coords)

    def test_empirical_sigma(self, two_chain_complex):
        g = build_knn_graph(two_chain_complex, ALL_ATOM)
        rng = np.random.default_rng(99)
        sigma = 0.1
        deltas = []
        samples_needed = 100_000
        while sum(d.size for d in deltas) < samples_needed:
            out = corrupt_coordinates(g, sigma, rng)
            deltas.append((out.coords - g.coords).ravel())
        observed = np.concatenate(deltas).std()
        assert abs(observed - sigma) / sigma < 0.02


def test_edge_count_invariant(rng):
    for n in (2, 5, 21, 60):
        coords = rng.normal(size=(n, 3)) * 6
        s = build_structure(point_chain(coords))
        g = build_knn_graph(s, ALL_ATOM)
        assert g.num_edges == n * min(20, n - 1)


def test_small_pair_chunks_match_brute_force(rng, monkeypatch):
    """Many ragged row blocks give the brute-force neighbours and surface values."""
    coords_a = rng.normal(size=(37, 3)) * 6
    coords_b = rng.normal(size=(23, 3)) * 6 + 4.0
    s = build_structure(point_chain(coords_a, "A") + point_chain(coords_b, "B"))
    coords = s.coords
    monkeypatch.setattr(structio, "PAIR_CHUNK", 7 * coords.shape[0] + 3)

    neighbors = knn_edges(coords, 20)
    assert neighbors.tolist() == brute_force_neighbors(coords, 20)

    expected = []
    for pts in (coords_a, coords_b):
        for p in pts:
            count = sum(((p - q) ** 2).sum() <= 100.0 for q in pts) - 1
            expected.append(1.0 - min(1.0, count / 64))
    values = surface_proximity(s)
    assert len(set(expected)) > 5
    np.testing.assert_array_equal(values, expected)


@st.composite
def lattice_complex(draw):
    """Two chains of atoms on a 1 A integer lattice, several per residue.

    Squared distances are exact integers, so many pairs tie, also at the
    k-th neighbour, the 10 A surface radius and the 5 A contact cutoff.
    """
    rows = []
    for chain_id in ("A", "B"):
        points = draw(st.lists(
            st.tuples(*[st.integers(-7, 7)] * 3), min_size=1, max_size=24,
        ))
        per_residue = draw(st.integers(1, 3))
        for i, point in enumerate(points):
            rows.append((chain_id, i // per_residue + 1, "GLY", "CA", point))
    return build_structure(rows)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(structure=lattice_complex(), k=st.integers(1, 50),
       chunk=st.integers(1, 120))
def test_tied_lattice_matches_brute_force(structure, k, chunk):
    """Neighbours, surface values and contacts equal their brute-force
    oracles under exact ties, with ragged row blocks of the distance kernel."""
    with mock.patch.object(structio, "PAIR_CHUNK", chunk):
        neighbors = knn_edges(structure.coords, k)
        values = surface_proximity(structure)
        found = reference_contacts(structure)
    assert neighbors.tolist() == brute_force_neighbors(structure.coords, k)
    expected = []
    for _, rows in structure.chain_slices():
        pts = structure.coords[rows]
        for p in pts:
            count = sum(((p - q) ** 2).sum() <= SURFACE_RADIUS ** 2 for q in pts) - 1
            expected.append(1.0 - min(1.0, count / SURFACE_MAX_NEIGHBORS))
    np.testing.assert_array_equal(values, expected)
    assert found == contacts_bruteforce(structure)
