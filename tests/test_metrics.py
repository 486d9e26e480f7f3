import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiref import metrics, structio
from equiref.errors import NoInterfaceError, NoOverlapError, UndefinedMetricError
from equiref.metrics import (
    CONTACT_CUTOFF,
    INTERFACE_CUTOFF,
    LDDT_RADIUS,
    DecoyScore,
    RankingInput,
    Reference,
    dockq,
    fnat_fnonnat,
    format_triple,
    hit_rate,
    irmsd,
    lddt_ca,
    lddt_pairs,
    lrmsd,
    quality_class,
    ranking_loss,
    reports_to_csv,
    score_pair,
)
from equiref.structio import AtomIndex, match_atoms

from conftest import (
    build_structure,
    random_rotation,
    reference_contacts,
    replace_columns,
    take_rows,
    transform_structure,
)
from oracles import (
    contacts_bruteforce,
    lddt_bruteforce,
    lddt_per_decoy_search,
    superposed_rmsd_by_trace,
)


def paired_chains(contact_flags, spacing=20.0, contact_gap=3.0, far_gap=100.0):
    """Chain A residues on a line; chain B residue i close iff flags[i]."""
    a_rows, b_rows = [], []
    for i, close in enumerate(contact_flags):
        y = spacing * i
        a_rows.append(("A", i + 1, "GLY", "CA", (0.0, y, 0.0)))
        gap = contact_gap if close else far_gap
        b_rows.append(("B", i + 1, "GLY", "CA", (gap, y, 0.0)))
    return build_structure(a_rows + b_rows)


def correspondence_of(decoy, native):
    return match_atoms(decoy, AtomIndex(native))


def lddt_of(decoy, native):
    return lddt_ca(decoy, lddt_pairs(native), correspondence_of(decoy, native))


def superposed(metric, decoy, native):
    """``irmsd`` or ``lrmsd`` of a decoy against a fresh reference."""
    ref = Reference(native)
    return metric(decoy, ref, match_atoms(decoy, ref.index))


class TestContacts:
    def test_far_apart_chains_have_no_contacts(self):
        s = paired_chains([False, False])
        assert reference_contacts(s) == set()

    def test_single_close_pair(self):
        s = paired_chains([True])
        assert reference_contacts(s) == {(("A", 1), ("B", 1))}

    def test_single_chain_raises(self):
        s = build_structure([("A", 1, "GLY", "CA", (0.0, 0.0, 0.0))])
        ref = Reference(s)  # builds, with no contacts
        assert ref.contacts.size == 0
        with pytest.raises(NoInterfaceError):
            irmsd(s, ref, match_atoms(s, ref.index))

    def test_three_chain_fixture_matches_bruteforce(self, rng):
        rows = []
        for chain_id, offset in (("A", 0.0), ("B", 4.0), ("C", 8.0)):
            for i in range(6):
                coord = rng.normal(scale=3.0, size=3) + [offset, i * 2.5, 0.0]
                rows.append((chain_id, i + 1, "GLY", "CA", coord))
        s = build_structure(rows)
        assert reference_contacts(s) == contacts_bruteforce(s)


class TestFnat:
    def test_identical(self):
        s = paired_chains([True, True, False])
        assert fnat_fnonnat(s, Reference(s)) == (1.0, 0.0)

    def test_disjoint(self):
        native = paired_chains([True, True, False, False])
        decoy = paired_chains([False, False, True, True])
        assert fnat_fnonnat(decoy, Reference(native)) == (0.0, 1.0)

    def test_partial_overlap(self):
        native = paired_chains([True, True, True, True, False])
        decoy = paired_chains([True, True, False, False, True])
        fnat, fnonnat = fnat_fnonnat(decoy, Reference(native))
        assert fnat == pytest.approx(0.5)
        assert fnonnat == pytest.approx(1.0 / 3.0)

    def test_empty_conventions(self):
        native = paired_chains([False, False])
        decoy = paired_chains([True, False])
        fnat, fnonnat = fnat_fnonnat(decoy, Reference(native))
        assert fnat == 0.0
        assert fnonnat == 1.0  # all decoy contacts are non-native

    def test_extra_residue_and_reversed_chains_match_contact_sets(self):
        native = paired_chains([True, True, True, False])
        # chain B listed before chain A; B9 is a residue the native lacks,
        # placed against A2 while B2 moves away
        b_rows = [("B", i + 1, "GLY", "CA", (gap, 20.0 * i, 0.0))
                  for i, gap in enumerate((3.0, 100.0, 3.0, 3.0))]
        b_rows.append(("B", 9, "GLY", "CA", (3.0, 20.0, 0.0)))
        a_rows = [("A", i + 1, "GLY", "CA", (0.0, 20.0 * i, 0.0)) for i in range(4)]
        decoy = build_structure(b_rows + a_rows)
        decoy_set = contacts_bruteforce(decoy)
        native_set = contacts_bruteforce(native)
        assert (("A", 2), ("B", 9)) in decoy_set
        expected = (
            len(decoy_set & native_set) / len(native_set),
            len(decoy_set - native_set) / len(decoy_set),
        )
        assert fnat_fnonnat(decoy, Reference(native)) == expected
        assert expected == (2 / 3, 2 / 4)


class TestInterfaceRmsd:
    def test_identical_is_zero(self, two_chain_complex):
        assert superposed(irmsd, two_chain_complex, two_chain_complex) < 1e-10

    def test_rigid_transform_is_zero(self, two_chain_complex, rng):
        rot = random_rotation(rng)
        moved = transform_structure(two_chain_complex, rot, np.array([4.0, -2.0, 9.0]))
        assert superposed(irmsd, moved, two_chain_complex) < 1e-9

    def test_displaced_residue_matches_trace_oracle(self, two_chain_complex):
        coords = two_chain_complex.coords.copy()
        # displace the first residue of chain B orthogonally to the interface
        n_a = int(np.count_nonzero(two_chain_complex.chain == "A"))
        coords[n_a:n_a + 4] += np.array([0.0, 0.0, 2.0])
        decoy = two_chain_complex.with_coords(coords)
        value = superposed(irmsd, decoy, two_chain_complex)

        # interface backbone atoms picked by exhaustive scans, in atom order
        interface = {
            key
            for pair in contacts_bruteforce(two_chain_complex, cutoff=10.0)
            for key in pair
        }
        mobile, target = [], []
        for row, name in enumerate(decoy.name):
            key = (decoy.chain[row], decoy.resnum[row])
            if name in ("N", "CA", "C", "O") and key in interface:
                mobile.append(decoy.coords[row])
                target.append(two_chain_complex.coords[row])
        assert value == pytest.approx(
            superposed_rmsd_by_trace(mobile, target), abs=1e-9
        )
        assert value > 0.1

    def test_no_interface(self):
        native = paired_chains([False, False, False])
        with pytest.raises(UndefinedMetricError):
            superposed(irmsd, native, native)


class TestLigandRmsd:
    def test_identical_is_zero(self, two_chain_complex):
        assert superposed(lrmsd, two_chain_complex, two_chain_complex) < 1e-10

    def test_pure_ligand_translation(self, two_chain_complex):
        coords = two_chain_complex.coords.copy()
        n_a = int(np.count_nonzero(two_chain_complex.chain == "A"))
        coords[n_a:] += np.array([0.0, 4.0, 0.0])  # chain B is the ligand
        decoy = two_chain_complex.with_coords(coords)
        assert superposed(lrmsd, decoy, two_chain_complex) == pytest.approx(4.0, abs=1e-9)

    def test_rotated_ligand_matches_two_step_oracle(self, two_chain_complex, rng):
        coords = two_chain_complex.coords.copy()
        n_a = int(np.count_nonzero(two_chain_complex.chain == "A"))
        rot = random_rotation(rng)
        center = coords[n_a:].mean(axis=0)
        coords[n_a:] = (coords[n_a:] - center) @ rot.T + center
        decoy = two_chain_complex.with_coords(coords)
        value = superposed(lrmsd, decoy, two_chain_complex)

        # independent two-step check: receptor is untouched so the optimal
        # receptor alignment is the identity; deviation is the raw ligand RMSD
        lig_decoy, lig_native = [], []
        for row, name in enumerate(decoy.name):
            if decoy.chain[row] == "B" and name in ("N", "CA", "C", "O"):
                lig_decoy.append(decoy.coords[row])
                lig_native.append(two_chain_complex.coords[row])
        expected = math.sqrt(
            np.mean(
                [sum((a - b) ** 2) for a, b in zip(lig_decoy, lig_native)]
            )
        )
        assert value == pytest.approx(expected, abs=1e-9)


class TestDockq:
    def test_perfect(self):
        assert dockq(1.0, 0.0, 0.0) == 1.0

    def test_half_value_at_scales(self):
        assert abs(dockq(0.5, 8.5, 1.5) - 0.5) < 1e-12

    def test_large_rmsd_limit(self):
        assert dockq(0.0, 1e9, 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_monotonicity_sampling(self, rng):
        for _ in range(2000):
            f = rng.uniform(0, 1)
            lr = rng.uniform(0, 30)
            ir = rng.uniform(0, 10)
            base = dockq(f, lr, ir)
            assert dockq(min(f + 0.05, 1.0), lr, ir) >= base
            assert dockq(f, lr + 1.0, ir) <= base
            assert dockq(f, lr, ir + 1.0) <= base

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dockq(1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            dockq(0.5, -1.0, 0.0)


class TestLddt:
    def test_identical_scores_one(self, two_chain_complex):
        scores, mean = lddt_of(two_chain_complex, two_chain_complex)
        np.testing.assert_array_equal(scores[~np.isnan(scores)], 1.0)
        assert mean == 1.0

    def test_rigid_motion_of_decoy_only(self, two_chain_complex, rng):
        rot = random_rotation(rng)
        decoy = transform_structure(two_chain_complex, rot, np.array([3.0, 1.0, -8.0]))
        scores, mean = lddt_of(decoy, two_chain_complex)
        np.testing.assert_allclose(scores, 1.0, atol=1e-9)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_scrambled_decoy_scores_zero(self, two_chain_complex, rng):
        coords = two_chain_complex.coords
        scramble = rng.normal(scale=500.0, size=coords.shape)
        decoy = two_chain_complex.with_coords(coords + scramble)
        scores, mean = lddt_of(decoy, two_chain_complex)
        assert mean < 0.05

    def test_displaced_ca_matches_bruteforce_exactly(self, two_chain_complex):
        coords = two_chain_complex.coords.copy()
        ca_rows = np.flatnonzero(two_chain_complex.name == "CA")
        coords[ca_rows[1]] += np.array([0.0, 1.5, 0.0])
        decoy = two_chain_complex.with_coords(coords)
        corr = correspondence_of(decoy, two_chain_complex)
        scores, mean = lddt_ca(decoy, lddt_pairs(two_chain_complex), corr)

        decoy_ca = [decoy.coords[d] for d, _ in corr.matched_ca]
        native_ca = [two_chain_complex.coords[n] for _, n in corr.matched_ca]
        expected_scores, expected_mean = lddt_bruteforce(decoy_ca, native_ca)
        for got, want in zip(scores, expected_scores):
            assert got == want or (math.isnan(got) and math.isnan(want))
        assert mean == expected_mean

    def test_requires_two_matched_ca(self):
        s = build_structure([("A", 1, "GLY", "CA", (0.0, 0.0, 0.0))])
        with pytest.raises(UndefinedMetricError):
            lddt_of(s, s)


@st.composite
def native_and_decoy(draw):
    """2-3 chains of 1-4 residues with 1-4 backbone atoms each; about one
    residue in four sits 80 A or more from every other atom, and about one
    in four is a copy of the residue before it moved by 15 A, a signed
    permutation of (9, 12, 0). The decoy moves every atom by up to 2 A per
    axis.

    Coordinates are whole Angstroms, so squared distances are exact and
    distances of exactly 5 A and of exactly the 15 A LDDT radius, and
    errors of exactly a threshold, occur.
    """
    rows = []
    isolated = 0
    atoms = None
    for chain_id in "ABC"[: draw(st.integers(2, 3))]:
        for index in range(1, draw(st.integers(1, 4)) + 1):
            if atoms is not None and draw(st.integers(0, 3)) == 0:
                offset = np.array(draw(st.permutations((9.0, 12.0, 0.0))))
                offset *= draw(st.sampled_from((1.0, -1.0)))
                atoms = [(name, coord + offset) for name, coord in atoms]
            else:
                center = np.array([draw(st.integers(-5, 5)) for _ in range(3)], float)
                if draw(st.integers(0, 3)) == 0:
                    isolated += 1
                    center[0] += 100.0 * isolated
                names = draw(st.lists(
                    st.sampled_from(("N", "CA", "C", "O")), min_size=1, max_size=4,
                    unique=True,
                ))
                atoms = [(name, center + [draw(st.integers(-1, 1)) for _ in range(3)])
                         for name in names]
            rows.extend((chain_id, index, "GLY", name, coord) for name, coord in atoms)
    native = build_structure(rows)
    moves = draw(st.lists(
        st.integers(-2, 2), min_size=3 * native.num_atoms,
        max_size=3 * native.num_atoms,
    ))
    shift = np.array(moves, dtype=np.float64).reshape(-1, 3)
    return native, native.with_coords(native.coords + shift)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(pair=native_and_decoy())
def test_contacts_and_lddt_match_oracles(pair):
    native, decoy = pair
    assert reference_contacts(native) == contacts_bruteforce(native)
    assert reference_contacts(decoy) == contacts_bruteforce(decoy)

    decoy_ca = list(decoy.coords[decoy.name == "CA"])
    native_ca = list(native.coords[native.name == "CA"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # mean of no scores
        expected_scores, expected_mean = lddt_bruteforce(decoy_ca, native_ca)
    if math.isnan(expected_mean):
        with pytest.raises(UndefinedMetricError):
            lddt_of(decoy, native)
        return
    scores, mean = lddt_of(decoy, native)
    assert len(scores) == len(expected_scores)
    for got, want in zip(scores, expected_scores):
        assert got == want or (math.isnan(got) and math.isnan(want))
    assert mean == expected_mean


def test_lddt_small_pair_chunks_match_oracle(rng):
    """Ragged row blocks of the distance kernel give the brute-force LDDT."""
    native_ca = rng.normal(scale=6.0, size=(45, 3))
    decoy_ca = native_ca + rng.normal(scale=1.5, size=native_ca.shape)
    rows = [("A", i + 1, "GLY", "CA", xyz) for i, xyz in enumerate(native_ca)]
    native = build_structure(rows)
    decoy = native.with_coords(decoy_ca)
    with mock.patch.object(structio, "PAIR_CHUNK", 4 * 45 + 7):
        scores, mean = lddt_of(decoy, native)
    expected_scores, expected_mean = lddt_bruteforce(list(decoy_ca), list(native_ca))
    assert scores.tolist() == expected_scores
    assert mean == expected_mean


class TestQualityClass:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.23, "acceptable"),
            (0.80, "high"),
            (0.10, "incorrect"),
            (0.49, "medium"),
            (0.489999, "acceptable"),
            (1.0, "high"),
            (0.0, "incorrect"),
        ],
    )
    def test_boundaries(self, value, expected):
        assert quality_class(value) == expected


def ranked_target(target_id, dockq_values, descending=True):
    """Decoys whose predicted order follows the given true DockQ order."""
    n = len(dockq_values)
    decoys = [
        DecoyScore(f"d{i:03d}", float(n - i) if descending else float(i), q)
        for i, q in enumerate(dockq_values)
    ]
    return RankingInput(target_id, decoys)


class TestHitRate:
    def test_three_one_zero(self):
        values = [0.3, 0.5, 0.25] + [0.1] * 7
        per_target, summary = hit_rate([ranked_target("t1", values)], top_n=10)
        assert per_target == [("t1", (3, 1, 0))]
        assert summary == (1, 1, 0)
        assert format_triple(per_target[0][1]) == "3/1/0"

    def test_all_incorrect(self):
        per_target, summary = hit_rate([ranked_target("t1", [0.05] * 12)], top_n=10)
        assert per_target == [("t1", (0, 0, 0))]
        assert summary == (0, 0, 0)

    def test_ten_ten_ten_format(self):
        values = [0.95] * 12
        per_target, _ = hit_rate([ranked_target("t1", values)], top_n=10)
        assert format_triple(per_target[0][1]) == "10/10/10"

    def test_triple_non_increasing(self, rng):
        for _ in range(50):
            values = rng.uniform(0, 1, size=15).tolist()
            per_target, _ = hit_rate([ranked_target("t", values)], top_n=10)
            a, b, c = per_target[0][1]
            assert a >= b >= c

    def test_prediction_ties_break_by_decoy_id(self):
        decoys = [
            DecoyScore("b", 1.0, 0.9),
            DecoyScore("a", 1.0, 0.1),
        ]
        per_target, _ = hit_rate([RankingInput("t", decoys)], top_n=1)
        assert per_target == [("t", (0, 0, 0))]  # "a" wins the tie


class TestRankingLoss:
    def test_definition(self):
        target = RankingInput("t", [DecoyScore("x", 2.0, 0.6), DecoyScore("y", 1.0, 0.9)])
        assert ranking_loss(target) == pytest.approx(0.4)

    def test_perfect_decoy_first(self):
        target = RankingInput("t", [DecoyScore("x", 5.0, 1.0)])
        assert ranking_loss(target) == 0.0

    def test_mean_over_targets(self, rng):
        targets = []
        expected = []
        for t in range(11):
            values = rng.uniform(0, 1, size=8).tolist()
            target = ranked_target(f"t{t}", values)
            targets.append(target)
            best = max(target.decoys, key=lambda d: (d.predicted, d.decoy_id))
            expected.append(1.0 - best.true_dockq)
        losses = [ranking_loss(t) for t in targets]
        assert np.mean(losses) == pytest.approx(np.mean(expected))


class TestScorePair:
    def test_identical_pair_report(self, two_chain_complex):
        report = score_pair(two_chain_complex, Reference(two_chain_complex))
        assert report.dockq == pytest.approx(1.0, abs=1e-9)
        assert report.quality_class == "high"
        assert report.lddt_ca_global == pytest.approx(1.0)
        assert report.fnonnat == 0.0

    def test_translated_ligand_incorrect(self, two_chain_complex):
        coords = two_chain_complex.coords.copy()
        n_a = int(np.count_nonzero(two_chain_complex.chain == "A"))
        coords[n_a:] += np.array([100.0, 0.0, 0.0])
        decoy = two_chain_complex.with_coords(coords)
        report = score_pair(decoy, Reference(two_chain_complex))
        assert report.fnat == 0.0
        assert report.quality_class == "incorrect"

    def test_dockq_recomputable_from_components(self, two_chain_complex, rng):
        coords = two_chain_complex.coords + rng.normal(
            scale=0.7, size=(two_chain_complex.num_atoms, 3)
        )
        decoy = two_chain_complex.with_coords(coords)
        report = score_pair(decoy, Reference(two_chain_complex))
        assert abs(report.dockq - dockq(report.fnat, report.lrmsd, report.irmsd)) < 1e-12

    def test_json_and_csv_round(self, two_chain_complex):
        import json

        report = score_pair(two_chain_complex, Reference(two_chain_complex))
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["quality_class"] == "high"
        text = reports_to_csv([("t1", "d1", report)])
        lines = text.strip().splitlines()
        assert lines[0].startswith("target,decoy,fnat")
        assert lines[1].split(",")[-1] == "high"


@st.composite
def partly_matched_pair(draw):
    """A native of chains A and B, 2-8 residues each, with N and CA atoms
    at whole-Angstrom points within 12 A of the origin, and a decoy that
    moves every atom by up to 2 A per axis and then matches one of three
    ways: ``trimmed`` drops 1-3 residues at the start of A and 0-3 at the
    end of B, ``decoy_lacks`` drops the CA atoms of some native residues
    and ``native_lacks`` those of some decoy residues from the native.
    Whole Angstroms give distances of exactly the 15 A radius and errors
    of exactly a threshold."""
    rows = []
    for chain_id in "AB":
        for resnum in range(1, draw(st.integers(2, 8)) + 1):
            ca = np.array([draw(st.integers(-12, 12)) for _ in range(3)], float)
            rows += [(chain_id, resnum, "GLY", "N", ca + [1.0, 0.0, 0.0]),
                     (chain_id, resnum, "GLY", "CA", ca)]
    native = build_structure(rows)
    moves = draw(st.lists(st.integers(-2, 2), min_size=3 * native.num_atoms,
                          max_size=3 * native.num_atoms))
    decoy = native.with_coords(native.coords + np.reshape(moves, (-1, 3)))
    kind = draw(st.sampled_from(("trimmed", "decoy_lacks", "native_lacks")))
    if kind == "trimmed":
        a_end = int(np.count_nonzero(native.chain == "A")) // 2
        b_end = int(native.resnum[-1])
        first_a = draw(st.integers(2, min(4, a_end)))
        last_b = b_end - draw(st.integers(0, min(3, b_end - 1)))
        keep = np.where(native.chain == "A", native.resnum >= first_a,
                        native.resnum <= last_b)
        return native, take_rows(decoy, np.flatnonzero(keep))
    ca_rows = np.flatnonzero(native.name == "CA")
    dropped = draw(st.lists(st.sampled_from(ca_rows.tolist()), min_size=1,
                            unique=True))
    keep = np.setdiff1d(np.arange(native.num_atoms), dropped)
    if kind == "decoy_lacks":
        return native, take_rows(decoy, keep)
    return take_rows(native, keep), decoy


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(pair=partly_matched_pair())
def test_lddt_from_native_pairs_matches_per_decoy_search(pair):
    """Filtering the native's pairs to the decoy's matched CA atoms gives the
    per-residue and global LDDT of a search over those atoms, bit for bit."""
    native, decoy = pair
    corr = correspondence_of(decoy, native)
    try:
        expected_scores, expected_mean = lddt_per_decoy_search(decoy, native, corr)
    except UndefinedMetricError as exc:
        with pytest.raises(UndefinedMetricError, match=str(exc)):
            lddt_ca(decoy, lddt_pairs(native), corr)
        return
    scores, mean = lddt_ca(decoy, lddt_pairs(native), corr)
    assert scores.tobytes() == expected_scores.tobytes()
    assert mean == expected_mean


def test_lddt_of_a_native_structure_names_lddt_pairs(two_chain_complex):
    """``lddt_ca`` takes a native's pairs; a native passed in their place is
    a TypeError that names ``lddt_pairs``."""
    native = two_chain_complex
    with pytest.raises(TypeError, match=r"lddt_pairs\(native\)"):
        lddt_ca(native, native, correspondence_of(native, native))


def test_lddt_of_a_repeated_decoy_key_reads_its_last_row(two_chain_complex, rng):
    """A native CA that two decoy CAs match is scored through the later of
    them, as if the earlier were absent; the earlier scores NaN."""
    native = two_chain_complex
    decoy = jittered_decoys(native, rng, sigmas=(0.8,))[0]
    ca = int(np.flatnonzero(decoy.name == "CA")[2])
    rows = np.insert(np.arange(decoy.num_atoms), ca + 1, ca)
    coords = decoy.coords[rows]
    coords[ca + 1] += 0.7  # the repeat sits elsewhere
    repeated = take_rows(decoy, rows).with_coords(coords)
    without_first = take_rows(repeated, np.delete(np.arange(repeated.num_atoms), ca))
    corr = correspondence_of(repeated, native)
    first = int(np.flatnonzero(corr.matched_ca[:, 0] == ca)[0])
    assert corr.matched_ca[first + 1].tolist() == [ca + 1, corr.matched_ca[first, 1]]

    scores, mean = lddt_ca(repeated, lddt_pairs(native), corr)
    expected_scores, expected_mean = lddt_per_decoy_search(
        without_first, native, correspondence_of(without_first, native))
    assert math.isnan(scores[first])
    assert np.delete(scores, first).tobytes() == expected_scores.tobytes()
    assert mean == expected_mean


def jittered_decoys(native, rng, sigmas=(0.0, 0.3, 1.0, 2.5, 6.0)):
    return [
        native.with_coords(native.coords + rng.normal(scale=s, size=native.coords.shape))
        for s in sigmas
    ]


def raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the test compares any error
        return type(exc), str(exc)
    raise AssertionError("no error raised")


def composed(decoy, ref):
    """Report values from the metric functions called one by one."""
    correspondence = match_atoms(decoy, ref.index)
    fnat, fnonnat = fnat_fnonnat(decoy, ref)
    return (fnat, fnonnat, irmsd(decoy, ref, correspondence),
            lrmsd(decoy, ref, correspondence),
            lddt_ca(decoy, ref.lddt_pairs, correspondence)[1])


def values(report):
    return (report.fnat, report.fnonnat, report.irmsd, report.lrmsd,
            report.lddt_ca_global)


class TestScoreDecoys:
    """Many decoys of one native share one ``Reference``."""

    def test_reports_match_score_pair(self, two_chain_complex, rng):
        decoys = jittered_decoys(two_chain_complex, rng)
        coords = two_chain_complex.coords.copy()
        coords[two_chain_complex.chain == "B"] += np.array([100.0, 0.0, 0.0])
        decoys.append(two_chain_complex.with_coords(coords))
        ref = Reference(two_chain_complex)
        reports = [score_pair(d, ref) for d in decoys]
        assert [r.to_json() for r in reports] == [
            score_pair(d, Reference(two_chain_complex)).to_json() for d in decoys
        ]
        assert [values(r) for r in reports] == [
            composed(d, Reference(two_chain_complex)) for d in decoys
        ]

    def test_one_pair_search_per_structure(self, two_chain_complex, rng):
        """The native's contacts and interface come from one 10 A search
        and its LDDT pairs from one 15 A search, each decoy's contacts
        from one 5 A search, and the reports are the ones a reference
        built for each decoy gives."""
        decoys = jittered_decoys(two_chain_complex, rng)
        with mock.patch.object(
            metrics, "close_pair_blocks", wraps=structio.close_pair_blocks
        ) as search:
            ref = Reference(two_chain_complex)
            reports = [score_pair(d, ref) for d in decoys]
        cutoffs = [call.args[2] for call in search.call_args_list]
        assert cutoffs == ([INTERFACE_CUTOFF, LDDT_RADIUS]
                           + [CONTACT_CUTOFF] * len(decoys))
        assert [values(r) for r in reports] == [
            composed(d, Reference(two_chain_complex)) for d in decoys
        ]
        assert [r.to_json() for r in reports] == [
            score_pair(d, Reference(two_chain_complex)).to_json() for d in decoys
        ]

    @pytest.mark.parametrize("case, error", [
        ("single_chain_native", NoInterfaceError),
        ("single_chain_native_no_overlap", NoOverlapError),
        ("no_overlap", NoOverlapError),
        ("no_interface", UndefinedMetricError),
    ])
    def test_errors_match_score_pair(self, two_chain_complex, rng, case, error):
        native = two_chain_complex
        good = jittered_decoys(native, rng, sigmas=(0.5,))[0]
        bad = good
        if case.startswith("single_chain_native"):
            native = take_rows(native, np.flatnonzero(native.chain == "A"))
        if case in ("single_chain_native_no_overlap", "no_overlap"):
            bad = replace_columns(good, chain=np.where(good.chain == "A", "X", "Y"))
        elif case == "no_interface":
            bad = replace_columns(good, chain=np.where(good.chain == "A", "Y", "B"))
        ref = Reference(native)  # built once, also for a single-chain native
        expected = raised(lambda: score_pair(bad, Reference(native)))
        assert expected[0] is error
        assert raised(lambda: composed(bad, Reference(native))) == expected
        if not case.startswith("single_chain_native"):
            score_pair(good, ref)
        assert raised(lambda: score_pair(bad, ref)) == expected


class TestRigidMotionInvariance:
    def test_simultaneous_motion(self, two_chain_complex, rng):
        coords = two_chain_complex.coords + rng.normal(
            scale=0.5, size=(two_chain_complex.num_atoms, 3)
        )
        decoy = two_chain_complex.with_coords(coords)
        base = score_pair(decoy, Reference(two_chain_complex))
        for _ in range(3):
            rot = random_rotation(rng)
            shift = rng.normal(scale=12.0, size=3)
            decoy_m = transform_structure(decoy, rot, shift)
            native_m = transform_structure(two_chain_complex, rot, shift)
            report = score_pair(decoy_m, Reference(native_m))
            assert report.fnat == pytest.approx(base.fnat, abs=1e-9)
            assert report.dockq == pytest.approx(base.dockq, abs=1e-9)
            assert report.lddt_ca_global == pytest.approx(
                base.lddt_ca_global, abs=1e-9
            )

    def test_decoy_only_motion_for_superposed_metrics(self, two_chain_complex, rng):
        coords = two_chain_complex.coords + rng.normal(
            scale=0.5, size=(two_chain_complex.num_atoms, 3)
        )
        decoy = two_chain_complex.with_coords(coords)
        base_i = superposed(irmsd, decoy, two_chain_complex)
        base_l = superposed(lrmsd, decoy, two_chain_complex)
        for _ in range(3):
            rot = random_rotation(rng)
            shift = rng.normal(scale=12.0, size=3)
            decoy_m = transform_structure(decoy, rot, shift)
            assert superposed(irmsd, decoy_m, two_chain_complex) == pytest.approx(
                base_i, abs=1e-6
            )
            assert superposed(lrmsd, decoy_m, two_chain_complex) == pytest.approx(
                base_l, abs=1e-6
            )
