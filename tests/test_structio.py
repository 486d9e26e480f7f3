import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiref.errors import (
    AlignmentError,
    EmptyStructureError,
    FormatOverflowError,
    NoOverlapError,
    PdbParseError,
)
from equiref.structio import (
    build_residue_frames,
    kabsch_superpose,
    match_atoms,
    parse_pdb,
    write_pdb,
)

from conftest import (
    COLUMNS,
    build_structure,
    make_complex,
    pdb_line,
    random_rotation,
    replace_columns,
    transform_structure,
)


def assert_same_columns(a, b):
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))


class TestTable:
    def test_derived_residue_columns(self, two_chain_complex):
        s = two_chain_complex
        assert s.num_residues == 11
        assert s.residue_starts.tolist() == list(range(0, 44, 4))
        assert s.residue.tolist() == [r for r in range(11) for _ in range(4)]
        assert s.chain_ids == ("A", "B")
        assert [(c, r.start, r.stop) for c, r in s.chain_slices()] == [
            ("A", 0, 24), ("B", 24, 44)]
        assert s.residue_rows("CA").tolist() == list(range(1, 44, 4))

    def test_missing_atom_has_no_row(self):
        s = build_structure([
            ("A", 1, "GLY", "CA", (0.0, 0.0, 0.0)),
            ("A", 2, "GLY", "N", (1.0, 0.0, 0.0)),
        ])
        assert s.residue_rows("CA").tolist() == [0, -1]

    def test_columns_are_read_only_copies(self, two_chain_complex):
        coords = two_chain_complex.coords.copy()
        moved = two_chain_complex.with_coords(coords)
        coords[0, 0] = 99.0
        assert moved.coords[0, 0] != 99.0
        for column in COLUMNS + ("residue", "residue_starts"):
            with pytest.raises(ValueError):
                getattr(moved, column)[0] = getattr(moved, column)[1]

    def test_layout_checked(self, two_chain_complex):
        with pytest.raises(ValueError, match="rows"):
            two_chain_complex.with_coords(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="contiguous"):
            build_structure([
                ("A", 1, "GLY", "CA", (0.0, 0.0, 0.0)),
                ("B", 1, "GLY", "CA", (1.0, 0.0, 0.0)),
                ("A", 2, "GLY", "CA", (2.0, 0.0, 0.0)),
            ])
        with pytest.raises(ValueError, match="decrease"):
            build_structure([
                ("A", 2, "GLY", "CA", (0.0, 0.0, 0.0)),
                ("A", 1, "GLY", "CA", (1.0, 0.0, 0.0)),
            ])


class TestParsePdb:
    def test_minimal_single_atom(self):
        text = pdb_line(1, "CA", "MET", "A", 1, 11.104, 13.207, 2.100)
        s = parse_pdb(text)
        assert s.num_chains == 1
        assert s.num_residues == 1
        assert s.num_atoms == 1
        assert (s.chain[0], s.resnum[0], s.name[0]) == ("A", 1, "CA")
        np.testing.assert_allclose(s.coords[0], [11.104, 13.207, 2.100])

    def test_first_model_only(self):
        lines = [
            "MODEL        1",
            pdb_line(1, "CA", "GLY", "A", 1, 0.0, 0.0, 0.0),
            "ENDMDL",
            "MODEL        2",
            pdb_line(1, "CA", "GLY", "A", 1, 5.0, 5.0, 5.0),
            pdb_line(2, "CA", "GLY", "A", 2, 6.0, 6.0, 6.0),
            "ENDMDL",
        ]
        s = parse_pdb("\n".join(lines))
        assert s.num_atoms == 1
        np.testing.assert_allclose(s.coords[0], [0.0, 0.0, 0.0])

    def test_altloc_b_duplicate_dropped(self):
        lines = [
            pdb_line(1, "CA", "SER", "A", 1, 1.0, 2.0, 3.0, altloc="A"),
            pdb_line(2, "CA", "SER", "A", 1, 1.2, 2.2, 3.2, altloc="B"),
        ]
        s = parse_pdb("\n".join(lines))
        assert s.num_atoms == 1
        np.testing.assert_allclose(s.coords[0], [1.0, 2.0, 3.0])

    def test_hetatm_and_hydrogens_dropped(self):
        lines = [
            pdb_line(1, "N", "ALA", "A", 1, 0.0, 0.0, 0.0),
            pdb_line(2, "HA", "ALA", "A", 1, 0.5, 0.0, 0.0),
            pdb_line(3, "1HB", "ALA", "A", 1, 0.7, 0.0, 0.0),
            pdb_line(4, "O", "HOH", "A", 90, 9.0, 9.0, 9.0, record="HETATM"),
        ]
        s = parse_pdb("\n".join(lines))
        assert s.name.tolist() == ["N"]

    def test_insertion_code_folded_strictly_increasing(self):
        lines = [
            pdb_line(1, "CA", "ALA", "A", 5, 0.0, 0.0, 0.0),
            pdb_line(2, "CA", "GLY", "A", 5, 1.0, 0.0, 0.0, icode="A"),
            pdb_line(3, "CA", "SER", "A", 6, 2.0, 0.0, 0.0),
        ]
        s = parse_pdb("\n".join(lines))
        indices = s.resnum[s.residue_starts].tolist()
        assert indices == [5, 6, 7]
        assert all(b > a for a, b in zip(indices, indices[1:]))

    def test_interleaved_chains_group_by_first_appearance(self):
        lines = [
            pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0),
            pdb_line(2, "CA", "GLY", "B", 1, 1.0, 0.0, 0.0),
            pdb_line(3, "CA", "SER", "A", 2, 2.0, 0.0, 0.0),
            pdb_line(4, "CB", "LEU", "A", 1, 3.0, 0.0, 0.0),
        ]
        s = parse_pdb("\n".join(lines))
        assert s.serial.tolist() == [1, 3, 4, 2]
        assert s.chain.tolist() == ["A", "A", "A", "B"]
        # A1 after A2 is a new residue, folded above A2, named by its atom
        assert s.resnum.tolist() == [1, 2, 3, 1]
        assert s.resname.tolist() == ["ALA", "SER", "LEU", "GLY"]
        assert s.residue.tolist() == [0, 1, 2, 3]

    def test_residue_named_by_first_atom(self):
        lines = [
            pdb_line(1, "N", "ALA", "A", 1, 0.0, 0.0, 0.0),
            pdb_line(2, "CA", "GLY", "A", 1, 1.0, 0.0, 0.0),
        ]
        s = parse_pdb("\n".join(lines))
        assert s.resname.tolist() == ["ALA", "ALA"]
        assert s.residue_starts.tolist() == [0]

    def test_malformed_line_reports_line_number(self):
        good = pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        bad = "ATOM      2  CA  ALA A   2      bad coords here"
        with pytest.raises(PdbParseError, match="line 2"):
            parse_pdb(good + "\n" + bad)

    @pytest.mark.parametrize("column", [13, 17, 21, 77])
    def test_nul_in_text_field_rejected(self, column):
        good = pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        bad = pdb_line(2, "CA", "ALA", "A", 2, 1.0, 0.0, 0.0)
        bad = bad[:column] + "\x00" + bad[column + 1:]
        with pytest.raises(PdbParseError, match="line 2"):
            parse_pdb(good + "\n" + bad)

    def test_empty_after_filtering(self):
        text = pdb_line(1, "O", "HOH", "A", 1, 0.0, 0.0, 0.0, record="HETATM")
        with pytest.raises(EmptyStructureError):
            parse_pdb(text)

    def test_accepts_text_stream(self):
        text = pdb_line(1, "CA", "MET", "A", 1, 1.0, 2.0, 3.0)
        s = parse_pdb(io.StringIO(text))
        assert s.num_atoms == 1


class TestWritePdb:
    def test_round_trip_identity(self, two_chain_complex):
        text = write_pdb(two_chain_complex)
        reparsed = parse_pdb(text)
        for column in COLUMNS[1:]:
            np.testing.assert_array_equal(
                getattr(reparsed, column), getattr(two_chain_complex, column)
            )
        np.testing.assert_allclose(
            reparsed.coords, two_chain_complex.coords, atol=5e-4
        )

    def test_zero_override(self, two_chain_complex):
        coords = np.zeros((two_chain_complex.num_atoms, 3))
        text = write_pdb(two_chain_complex, coords)
        for line in text.splitlines():
            if line.startswith("ATOM"):
                assert line[30:38] == "   0.000"
                assert line[38:46] == "   0.000"
                assert line[46:54] == "   0.000"

    def test_three_atom_byte_exact(self):
        lines = [
            pdb_line(1, "N", "ALA", "A", 1, 1.0, 2.0, 3.0),
            pdb_line(2, "CA", "ALA", "A", 1, 2.5, 3.5, 4.5),
            pdb_line(3, "C", "ALA", "A", 1, -1.25, 0.0, 12.75),
        ]
        s = parse_pdb("\n".join(lines))
        expected = (
            "ATOM      1  N   ALA A   1       1.000   2.000   3.000  1.00  0.00           N\n"
            "ATOM      2  CA  ALA A   1       2.500   3.500   4.500  1.00  0.00           C\n"
            "ATOM      3  C   ALA A   1      -1.250   0.000  12.750  1.00  0.00           C\n"
            "TER\n"
            "END\n"
        )
        assert write_pdb(s) == expected

    def test_coordinate_overflow(self, two_chain_complex):
        coords = two_chain_complex.coords.copy()
        coords[0, 0] = 10000.0
        with pytest.raises(FormatOverflowError):
            write_pdb(two_chain_complex, coords)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, two_chain_complex, value):
        coords = two_chain_complex.coords.copy()
        coords[3, 1] = value
        with pytest.raises(FormatOverflowError, match="non-finite"):
            write_pdb(two_chain_complex, coords)

    def test_folded_residue_number_overflow(self):
        # 9999A folds to 10000, which the 4-column field cannot hold
        lines = [
            pdb_line(1, "CA", "ALA", "A", 9999, 0.0, 0.0, 0.0),
            pdb_line(2, "CA", "GLY", "A", 9999, 1.0, 0.0, 0.0, icode="A"),
        ]
        s = parse_pdb("\n".join(lines))
        assert s.resnum.tolist() == [9999, 10000]
        with pytest.raises(FormatOverflowError, match="residue number 10000"):
            write_pdb(s)

    def test_override_shape_checked(self, two_chain_complex):
        with pytest.raises(ValueError):
            write_pdb(two_chain_complex, np.zeros((3, 3)))


class TestMatchAtoms:
    def test_identical_structures(self, two_chain_complex):
        corr = match_atoms(two_chain_complex, two_chain_complex)
        assert len(corr.pairs) == two_chain_complex.num_atoms
        assert corr.pairs.shape == (two_chain_complex.num_atoms, 2)
        assert all(d == n for d, n in corr.pairs)
        assert len(corr.matched_ca) == two_chain_complex.num_residues

    def test_missing_residue_unmatched(self):
        decoy = make_complex(n_res_a=4, n_res_b=3)
        native = make_complex(n_res_a=3, n_res_b=3)
        corr = match_atoms(decoy, native)
        assert len(corr.pairs) == decoy.num_atoms - 4  # one residue of 4 atoms

    def test_chain_mismatch(self):
        decoy = make_complex(n_res_a=3, n_res_b=3)
        native = make_complex(n_res_a=3, n_res_b=3)
        native = replace_columns(
            native, chain=np.where(native.chain == "B", "C", native.chain)
        )
        native = parse_pdb(write_pdb(native))
        corr = match_atoms(decoy, native)
        assert len(corr.pairs) == 12  # chain A only: 3 residues x 4 atoms
        assert all(decoy.chain[d] == "A" for d, _ in corr.pairs)

    def test_symmetric_cardinality(self):
        decoy = make_complex(n_res_a=5, n_res_b=2)
        native = make_complex(n_res_a=3, n_res_b=4)
        assert len(match_atoms(decoy, native).pairs) == len(
            match_atoms(native, decoy).pairs
        )

    def test_no_overlap(self):
        decoy = make_complex(n_res_a=3, n_res_b=2)
        native = make_complex(n_res_a=3, n_res_b=2)
        native = replace_columns(
            native, chain=np.where(native.chain == "A", "X", "Y")
        )
        native = parse_pdb(write_pdb(native))
        with pytest.raises(NoOverlapError):
            match_atoms(decoy, native)


class TestKabsch:
    def test_self_alignment(self, two_chain_complex):
        coords = two_chain_complex.coords
        rot, trans, rmsd = kabsch_superpose(coords, coords)
        np.testing.assert_allclose(rot, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(trans, 0.0, atol=1e-10)
        assert rmsd < 1e-10

    def test_recovers_random_rigid_transform(self, rng):
        target = rng.normal(scale=4.0, size=(30, 3))
        for _ in range(10):
            rot_true = random_rotation(rng)
            shift = rng.normal(scale=10.0, size=3)
            mobile = target @ rot_true.T + shift
            rot, trans, rmsd = kabsch_superpose(mobile, target)
            assert rmsd < 1e-8
            np.testing.assert_allclose(rot @ rot_true, np.eye(3), atol=1e-8)
            moved = mobile @ rot.T + trans
            np.testing.assert_allclose(moved, target, atol=1e-8)

    def test_reflection_yields_proper_rotation(self, rng):
        target = rng.normal(scale=3.0, size=(20, 3))
        mobile = target.copy()
        mobile[:, 0] = -mobile[:, 0]
        rot, _, _ = kabsch_superpose(mobile, target)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    def test_rmsd_invariant_under_mobile_pretransform(self, rng):
        target = rng.normal(scale=3.0, size=(25, 3))
        mobile = target + rng.normal(scale=0.8, size=(25, 3))
        _, _, base = kabsch_superpose(mobile, target)
        for _ in range(5):
            rot = random_rotation(rng)
            shift = rng.normal(scale=20.0, size=3)
            _, _, moved = kabsch_superpose(mobile @ rot.T + shift, target)
            assert moved == pytest.approx(base, abs=1e-9)

    def test_too_few_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(AlignmentError):
            kabsch_superpose(pts, pts)

    def test_collinear_points(self):
        pts = np.array([[float(i), 0.0, 0.0] for i in range(5)])
        with pytest.raises(AlignmentError):
            kabsch_superpose(pts, pts)


class TestResidueFrames:
    def test_axis_aligned_residue_gives_identity(self):
        # CA at origin, C on +x (e1), N in the xy plane with +y component (e2).
        s = build_structure([
            ("A", 1, "GLY", "N", (-0.5, 1.3, 0.0)),
            ("A", 1, "GLY", "CA", (0.0, 0.0, 0.0)),
            ("A", 1, "GLY", "C", (1.5, 0.0, 0.0)),
        ])
        origins, rotations = build_residue_frames(s)
        np.testing.assert_allclose(origins[0], [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rotations[0], np.eye(3), atol=1e-12)

    def test_missing_backbone_falls_back_to_centroid(self):
        s = build_structure([
            ("A", 1, "GLY", "CA", (0.0, 0.0, 0.0)),
            ("A", 1, "GLY", "C", (2.0, 0.0, 0.0)),
        ])
        origins, rotations = build_residue_frames(s)
        np.testing.assert_allclose(origins[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(rotations[0], np.eye(3))

    def test_frames_rotate_with_structure(self, two_chain_complex, rng):
        origins, rotations = build_residue_frames(two_chain_complex)
        for _ in range(5):
            rot = random_rotation(rng)
            shift = rng.normal(scale=8.0, size=3)
            moved = transform_structure(two_chain_complex, rot, shift)
            new_origins, new_rotations = build_residue_frames(moved)
            np.testing.assert_allclose(
                new_origins, origins @ rot.T + shift, atol=1e-9
            )
            np.testing.assert_allclose(
                new_rotations, np.einsum("ij,rjk->rik", rot, rotations), atol=1e-9
            )

    def test_frame_rotations_are_proper(self, two_chain_complex):
        _, rotations = build_residue_frames(two_chain_complex)
        for r in rotations:
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


def test_parse_write_parse_identity(two_chain_complex):
    once = parse_pdb(write_pdb(two_chain_complex))
    twice = parse_pdb(write_pdb(once))
    assert_same_columns(once, twice)


@st.composite
def pdb_text(draw):
    """ATOM, HETATM, MODEL and ENDMDL records: interleaved chains, altlocs,
    hydrogens and insertion codes, some lines cut short or with one column
    overwritten by a character no numeric field accepts, NUL included."""
    lines = []
    for _ in range(draw(st.integers(0, 16))):
        record = draw(st.sampled_from(("ATOM",) * 6 + ("HETATM", "MODEL", "ENDMDL")))
        if record == "MODEL":
            lines.append(f"MODEL     {draw(st.integers(1, 3)):>4d}")
            continue
        if record == "ENDMDL":
            lines.append("ENDMDL")
            continue
        x, y, z = (draw(st.integers(-999_999, 9_999_999)) / 1000 for _ in range(3))
        line = pdb_line(
            draw(st.integers(-9999, 99999)),
            draw(st.sampled_from(("N", "CA", "C", "O", "CB", "OXT", "H", "1HB"))),
            draw(st.sampled_from(("ALA", "GLY", "SER"))),
            draw(st.sampled_from("AB ")),
            draw(st.sampled_from((-3, 1, 2, 9999, 9999))),
            x, y, z,
            altloc=draw(st.sampled_from(" AB")),
            icode=draw(st.sampled_from("  A")),
            element=draw(st.sampled_from((None, "", "C", "H", "D"))),
            record=record,
        )
        damage = draw(st.integers(0, 19))
        if damage == 0:
            line = line[:draw(st.integers(0, len(line)))]
        elif damage == 1:
            at = draw(st.integers(0, len(line) - 1))
            line = line[:at] + draw(st.sampled_from("#x?\x00")) + line[at + 1:]
        lines.append(line)
    return "\n".join(lines)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=pdb_text())
def test_parse_write_round_trip_property(text):
    try:
        structure = parse_pdb(text)
    except (PdbParseError, EmptyStructureError):
        return
    try:
        written = write_pdb(structure)
    except FormatOverflowError:
        return
    assert_same_columns(parse_pdb(written), structure)
