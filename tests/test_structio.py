import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiref import structio
from equiref.errors import (
    AlignmentError,
    EmptyStructureError,
    FormatOverflowError,
    NoOverlapError,
    PdbParseError,
)
from equiref.structio import (
    AtomIndex,
    build_residue_frames,
    close_pair_blocks,
    kabsch_superpose,
    match_atoms,
    parse_pdb,
    parse_pdb_file,
    write_pdb,
)

import oracles
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

    @pytest.mark.parametrize("column", [12, 13, 17, 19, 21, 26, 76, 77])
    def test_nul_in_text_field_rejected(self, column):
        good = pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        bad = pdb_line(2, "CA", "ALA", "A", 2, 1.0, 0.0, 0.0)
        bad = bad[:column] + "\x00" + bad[column + 1:]
        with pytest.raises(PdbParseError, match="line 2: NUL"):
            parse_pdb(good + "\n" + bad)

    @pytest.mark.parametrize("column", [11, 27, 78])
    def test_nul_outside_text_fields_accepted(self, column):
        line = pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0).ljust(80)
        s = parse_pdb(line[:column] + "\x00" + line[column + 1:])
        assert s.name.tolist() == ["CA"]

    def test_trailing_nul_decisions_use_the_line_length(self):
        """A NUL is a character: it is not blank, it keeps an element field
        from reading as H, and it fails only a record the filters keep."""
        kept = pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        hydrogen = pdb_line(2, "H", "ALA", "A", 1, 0.0, 0.0, 0.0, element="H")
        altloc_b = pdb_line(3, "CB", "ALA", "A", 1, 0.0, 0.0, 0.0, altloc="B")
        # a nameless record of altloc B is named NUL, so it is dropped
        nul_name = altloc_b[:12] + "\x00" * 4 + altloc_b[16:]
        assert parse_pdb("\n".join([kept, nul_name])).num_atoms == 1
        # "H" followed by a NUL is no hydrogen: the record is kept and fails
        with pytest.raises(PdbParseError, match="line 2: NUL"):
            parse_pdb("\n".join([kept, hydrogen[:77] + "\x00"]))
        # a NUL past column 78 is no part of the element field
        assert parse_pdb("\n".join([kept, hydrogen + "\x00"])).num_atoms == 1

    def test_element_field_counts_only_when_whole(self):
        line = pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0, element="H")
        with pytest.raises(EmptyStructureError):
            parse_pdb(line)
        # a record of 77 columns has no element field: the name gives it
        assert parse_pdb(line[:77]).element.tolist() == ["C"]
        assert parse_pdb(line[:76] + "H").element.tolist() == ["C"]

    def test_checks_within_a_line_run_in_order(self):
        """Length, name and numbers fail any record; NUL characters and
        non-finite coordinates fail only one the filters keep."""
        good = pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        line = pdb_line(2, "CA", "ALA", "A", 2, 0.0, 0.0, 0.0)
        nan = line[:30] + "     nan" + line[38:]
        bad = line[:30] + "     bad" + line[38:]
        unnamed = line[:12] + "    " + line[16:]
        altloc_b = line[:16] + "B" + line[17:]

        def failure(record):
            with pytest.raises(PdbParseError) as exc:
                parse_pdb(good + "\n" + record)
            assert exc.value.line_number == 2
            return str(exc.value).split(": ", 1)[1]

        assert failure(nan) == "non-finite coordinate"
        assert failure(nan[:21] + "\x00" + nan[22:]) == "NUL character in a text field"
        assert failure(bad[:16] + "B" + bad[17:]).startswith("malformed ATOM fields")
        assert failure(unnamed[:30] + "     bad" + unnamed[38:]) == "empty atom name"
        assert failure(unnamed[:40]) == "ATOM record shorter than coordinate fields"
        dropped = altloc_b[:21] + "\x00" + altloc_b[22:30] + "     nan" + altloc_b[38:]
        assert parse_pdb(good + "\n" + dropped).num_atoms == 1

    def test_numeric_fields_read_as_python_reads_them(self):
        line = pdb_line(7, "CA", "ALA", "A", 12, 0.0, 0.0, 0.0)
        odd = line[:6] + " 1_0 " + line[11:22] + "\uff11\uff12 " + line[26:30]
        odd += "  -0.000" + "   1e2  " + "\t-1.5\xa0  " + line[54:]
        s = parse_pdb(odd)
        assert (s.serial[0], s.resnum[0]) == (10, 12)
        assert s.coords[0].tolist() == [0.0, 100.0, -1.5]
        assert math.copysign(1.0, s.coords[0, 0]) == -1.0
        assert math.copysign(1.0, parse_pdb(line).coords[0, 0]) == 1.0
        # a serial that int() rejects reads as 0
        assert parse_pdb(line[:6] + "  0x1" + line[11:]).serial.tolist() == [0]
        # eight digits and no '.' is a number too, for float()
        assert parse_pdb(line[:30] + "12345678" + line[38:]).coords[0, 0] == 12345678.0
        for resseq in ("   -", "    ", " 1 2", "1-2 "):
            with pytest.raises(PdbParseError, match="invalid literal for int"):
                parse_pdb(line[:22] + resseq + line[26:])

    def test_empty_after_filtering(self):
        text = pdb_line(1, "O", "HOH", "A", 1, 0.0, 0.0, 0.0, record="HETATM")
        with pytest.raises(EmptyStructureError):
            parse_pdb(text)

    def test_file_errors_start_with_the_path(self, tmp_path):
        path = tmp_path / "bad.pdb"
        good = pdb_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        path.write_text(good + "\nATOM      2  CA  ALA A   2      bad coords\n")
        with pytest.raises(PdbParseError) as exc:
            parse_pdb_file(path)
        assert str(exc.value).startswith(f"{path}: line 2: ")
        assert exc.value.line_number == 2
        path.write_text("REMARK nothing here\n")
        with pytest.raises(EmptyStructureError) as exc:
            parse_pdb_file(path)
        assert str(exc.value) == f"{path}: no ATOM records survived filtering"

    def test_file_byte_order_mark_is_skipped(self, tmp_path):
        text = write_pdb(make_complex())
        plain = tmp_path / "plain.pdb"
        marked = tmp_path / "marked.pdb"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("ascii"))
        assert_same_columns(parse_pdb_file(marked), parse_pdb_file(plain))

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
        text = write_pdb(two_chain_complex.with_coords(coords))
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
            write_pdb(two_chain_complex.with_coords(coords))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, two_chain_complex, value):
        coords = two_chain_complex.coords.copy()
        coords[3, 1] = value
        with pytest.raises(FormatOverflowError, match="non-finite"):
            write_pdb(two_chain_complex.with_coords(coords))

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


class TestMatchAtoms:
    def test_identical_structures(self, two_chain_complex):
        corr = match_atoms(two_chain_complex, AtomIndex(two_chain_complex))
        assert len(corr.pairs) == two_chain_complex.num_atoms
        assert corr.pairs.shape == (two_chain_complex.num_atoms, 2)
        assert all(d == n for d, n in corr.pairs)
        assert len(corr.matched_ca) == two_chain_complex.num_residues

    def test_missing_residue_unmatched(self):
        decoy = make_complex(n_res_a=4, n_res_b=3)
        native = make_complex(n_res_a=3, n_res_b=3)
        corr = match_atoms(decoy, AtomIndex(native))
        assert len(corr.pairs) == decoy.num_atoms - 4  # one residue of 4 atoms

    def test_chain_mismatch(self):
        decoy = make_complex(n_res_a=3, n_res_b=3)
        native = make_complex(n_res_a=3, n_res_b=3)
        native = replace_columns(
            native, chain=np.where(native.chain == "B", "C", native.chain)
        )
        native = parse_pdb(write_pdb(native))
        corr = match_atoms(decoy, AtomIndex(native))
        assert len(corr.pairs) == 12  # chain A only: 3 residues x 4 atoms
        assert all(decoy.chain[d] == "A" for d, _ in corr.pairs)

    def test_symmetric_cardinality(self):
        decoy = make_complex(n_res_a=5, n_res_b=2)
        native = make_complex(n_res_a=3, n_res_b=4)
        assert len(match_atoms(decoy, AtomIndex(native)).pairs) == len(
            match_atoms(native, AtomIndex(decoy)).pairs
        )

    def test_repeated_native_key_matches_its_last_row(self):
        native = build_structure([
            ("A", 1, "GLY", "CA", (0.0, 0.0, 0.0)),
            ("A", 1, "GLY", "CA", (1.0, 0.0, 0.0)),
            ("A", 1, "GLY", "N", (2.0, 0.0, 0.0)),
        ])
        decoy = build_structure([
            ("A", 1, "GLY", "N", (0.0, 0.0, 0.0)),
            ("A", 1, "GLY", "CA", (1.0, 0.0, 0.0)),
            ("A", 2, "GLY", "CA", (2.0, 0.0, 0.0)),
        ])
        corr = match_atoms(decoy, AtomIndex(native))
        assert corr.pairs.dtype == np.intp
        assert corr.pairs.tolist() == [[0, 2], [1, 1]]
        assert corr.matched_ca.tolist() == [[1, 1]]

    def test_no_overlap(self):
        decoy = make_complex(n_res_a=3, n_res_b=2)
        native = make_complex(n_res_a=3, n_res_b=2)
        native = replace_columns(
            native, chain=np.where(native.chain == "A", "X", "Y")
        )
        native = parse_pdb(write_pdb(native))
        with pytest.raises(NoOverlapError):
            match_atoms(decoy, AtomIndex(native))


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
        rotations = build_residue_frames(s)
        np.testing.assert_allclose(rotations[0], np.eye(3), atol=1e-12)

    def test_missing_backbone_falls_back_to_identity(self):
        s = build_structure([
            ("A", 1, "GLY", "CA", (0.0, 0.0, 0.0)),
            ("A", 1, "GLY", "C", (2.0, 0.0, 0.0)),
        ])
        rotations = build_residue_frames(s)
        np.testing.assert_allclose(rotations[0], np.eye(3))

    def test_frames_rotate_with_structure(self, two_chain_complex, rng):
        rotations = build_residue_frames(two_chain_complex)
        for _ in range(5):
            rot = random_rotation(rng)
            shift = rng.normal(scale=8.0, size=3)
            moved = transform_structure(two_chain_complex, rot, shift)
            new_rotations = build_residue_frames(moved)
            np.testing.assert_allclose(
                new_rotations, np.einsum("ij,rjk->rik", rot, rotations), atol=1e-9
            )

    def test_frame_rotations_are_proper(self, two_chain_complex):
        rotations = build_residue_frames(two_chain_complex)
        for r in rotations:
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


def test_parse_write_parse_identity(two_chain_complex):
    once = parse_pdb(write_pdb(two_chain_complex))
    twice = parse_pdb(write_pdb(once))
    assert_same_columns(once, twice)


# Text that a numeric field may hold besides its canonical digits: Python's
# int() and float() accept some of it (whitespace, '_', full-width digits,
# exponents, nan) and reject the rest.
ODD_NUMBERS = ("nan", "-inf", "NaN", "1e999", "1e3", "1_0", "\uff11\uff12", "+7", "-0",
               "-.5", "\t1.5", "1.5\xa0", "0x1", "1.2.3", "\ufffd", "1 23.456",
               "1-23.456", "- 12.000", "0012.500", "-000.000", "12345678", "-", "")
ODD_CHARACTERS = "\t\xa0\ufffd\uff19_e#x?\x00 -.0"
NUMERIC_FIELDS = ((6, 11), (22, 26), (30, 38), (38, 46), (46, 54))


@st.composite
def pdb_text(draw):
    """ATOM, HETATM, MODEL and ENDMDL records: interleaved chains, altlocs,
    hydrogens and insertion codes, some MODEL records without a number,
    and repeats of earlier lines. Some ATOM lines are damaged: cut short
    (some only past column 54), grown past 80 columns, one column
    overwritten by an odd character, a numeric field rewritten as text
    that Python's int() and float() read differently, or a NUL written at
    any column up to one past the end. Lines end in LF or CRLF."""
    lines = []
    calm = draw(st.sampled_from((7, 24, 96)))  # 6 in calm + 1 lines are damaged
    for _ in range(draw(st.integers(0, 24))):
        record = draw(st.sampled_from(
            ("ATOM",) * 6 + ("HETATM", "MODEL", "ENDMDL", "again")))
        if record == "again":  # an earlier line once more: duplicates, refolds
            lines.append(draw(st.sampled_from(lines)) if lines else "ENDMDL")
            continue
        if record == "MODEL":
            lines.append(draw(st.sampled_from(
                [f"MODEL     {number:>4d}" for number in (1, 2, 3)]
                + ["MODEL", "MODEL     ", "MODEL     x"])))
            continue
        if record == "ENDMDL":
            lines.append("ENDMDL")
            continue
        x, y, z = (draw(st.integers(-999_999, 9_999_999)) / 1000 for _ in range(3))
        line = pdb_line(
            draw(st.integers(-9999, 99999)),
            draw(st.sampled_from(("N", "CA", "C", "O", "CB", "CG1", "CG2", "OXT") * 4
                                 + ("H", "1HB", "HD21", "1 H ", "\xa0CA", ""))),
            draw(st.sampled_from(("ALA", "GLY", "SER", "SEP", " A "))),
            draw(st.sampled_from("AB ")),
            draw(st.sampled_from((-3, 1, 2, 9999, 9999))),
            x, y, z,
            altloc=draw(st.sampled_from("  AB")),
            icode=draw(st.sampled_from("  A")),
            element=draw(st.sampled_from((None, "", "C", "H", "D", "h", " d", "\xa0H"))),
            record=record,
        )
        damage = draw(st.integers(0, calm))
        if damage == 0:
            line = line[:draw(st.integers(0, len(line)))]
        elif damage == 1:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(ODD_CHARACTERS)) + line[at + 1:]
        elif damage == 2:
            start, stop = draw(st.sampled_from(NUMERIC_FIELDS))
            text = draw(st.sampled_from(ODD_NUMBERS))[:stop - start]
            line = line[:start] + text.rjust(stop - start) + line[stop:]
        elif damage == 3:
            line += draw(st.text(st.sampled_from(" xH\x00"), min_size=1, max_size=8))
            line = line.ljust(draw(st.integers(len(line), 90)))
        elif damage == 4:  # often at the edges of the fields the check reads
            at = draw(st.sampled_from((11, 12, 16, 26, 27, 76, 77, 78))
                      | st.integers(0, len(line)))
            line = line[:at].ljust(at) + "\x00" + line[at + 1:]
        elif damage == 5:
            line = line[:draw(st.integers(54, len(line)))]
        lines.append(line)
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines)


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


def parse_outcome(parse, source):
    """Every column with its dtype and bytes, or the error's class, line
    number and message."""
    try:
        structure = parse(source)
    except PdbParseError as exc:
        return type(exc), exc.line_number, str(exc)
    except EmptyStructureError as exc:
        return type(exc), str(exc)
    return [(column, getattr(structure, column).dtype.str,
             getattr(structure, column).shape, getattr(structure, column).tobytes())
            for column in COLUMNS]


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(text=pdb_text())
def test_parse_pdb_matches_the_line_oracle(text):
    """The column-wise parser gives the line-by-line oracle's columns,
    bitwise and with its dtypes, or its error, line number and message."""
    assert parse_outcome(parse_pdb, text) == parse_outcome(
        oracles.parse_pdb_lines, text.splitlines())


def grid_pairs(a, b, cutoff):
    """(i, j, d2) of every pair the grid yields; no pair may repeat."""
    found = [
        pair
        for block in close_pair_blocks(a, b, cutoff)
        for pair in zip(*(column.tolist() for column in block))
    ]
    assert len(found) == len(set(found))
    return set(found)


def kernel_pairs(a, b, cutoff):
    """(i, j, d2) of every pair with d2 < cutoff**2 in the dense kernel."""
    found = set()
    for start, d2 in oracles.squared_distance_blocks(a, b):
        for i, j in zip(*np.nonzero(d2 < cutoff * cutoff)):
            found.add((start + int(i), int(j), float(d2[i, j])))
    return found


class TestClosePairs:
    def test_exact_cutoff_and_one_ulp_under(self):
        """Pairs at the cutoff are out and one whose d2 is one ulp under 25
        is in, although its sqrt rounds to the cutoff itself."""
        below_4 = float(np.nextafter(4.0, 0.0))
        below_3 = float(np.nextafter(3.0, 0.0))
        a = np.zeros((1, 3))
        b = np.array([[5.0, 0.0, 0.0], [3.0, below_4, 0.0], [0.0, 4.0, -below_3]])
        found = grid_pairs(a, b, 5.0)
        assert found == kernel_pairs(a, b, 5.0)
        (i, j, d2), = found
        assert (i, j, d2) == (0, 1, float(np.nextafter(25.0, 0.0)))
        assert math.sqrt(d2) == 5.0

    def test_non_finite_rows_pair_with_nothing(self):
        a = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0], [-np.inf, 0.0, 0.0]])
        assert grid_pairs(a, b, 5.0) == kernel_pairs(a, b, 5.0) == {(0, 0, 1.0)}

    def test_empty_inputs_and_no_pairs(self):
        empty = np.empty((0, 3))
        point = np.zeros((1, 3))
        assert grid_pairs(empty, point, 5.0) == grid_pairs(point, empty, 5.0) == set()
        assert grid_pairs(point, point + 5.0, 5.0) == set()
        assert grid_pairs(point, point, 0.0) == set()


@st.composite
def point_clouds(draw):
    """Two clouds and a cutoff that hit the grid's edge cases.

    The grid's cells start at the lowest coordinate, which is ``origin``
    here. Lattice points whole cutoffs or whole cell edges (of a few
    widths near the cutoff) from it, moved by an ulp, lie on and beside
    cell boundaries; a partner at the cutoff or one ulp under it along an
    axis sits on the other side. Coordinates go negative, points repeat
    within and across the clouds, and a cloud may be one point or empty.
    """
    cutoff = draw(st.sampled_from((0.5, 1.0, 5.0, 10.0)) | st.floats(0.05, 20.0))
    origin = np.array(draw(st.tuples(*[st.integers(-60, 60)] * 3)), dtype=float)
    margin = structio._CELL_MARGIN
    step = cutoff * draw(st.sampled_from((1.0 - margin, 1.0, 1.0 + margin, 0.5)))
    gaps = (cutoff, float(np.nextafter(cutoff, 0.0)))
    clouds = ([], [])
    clouds[draw(st.integers(0, 1))].append(origin)
    for _ in range(draw(st.integers(0, 24))):
        side = draw(st.integers(0, 1))
        if draw(st.booleans()):
            lattice = np.array(draw(st.tuples(*[st.integers(0, 5)] * 3)), dtype=float)
            point = origin + step * lattice
            axis = draw(st.integers(0, 2))
            towards = draw(st.sampled_from((None, -np.inf, np.inf)))
            if towards is not None:
                point[axis] = np.nextafter(point[axis], towards)
            clouds[side].append(point)
            if draw(st.booleans()):
                partner = point.copy()
                partner[axis] += draw(st.sampled_from(gaps))
                clouds[1 - side].append(partner)
        else:
            offset = draw(st.tuples(*[st.floats(0.0, 6.0 * cutoff)] * 3))
            clouds[side].append(origin + np.array(offset))
    a, b = (np.array(points, dtype=float).reshape(-1, 3) for points in clouds)
    if a.shape[0]:
        repeats = draw(st.lists(st.integers(0, a.shape[0] - 1), max_size=4))
        b = np.concatenate([b, a[repeats]])
    return a, b, cutoff


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(clouds=point_clouds(), chunk=st.sampled_from((None, 1, 2, 7, 40)))
def test_close_pairs_match_the_dense_kernel(clouds, chunk):
    """The grid yields exactly the pairs under the cutoff that the dense
    kernel finds, with bitwise the same squared distances, also in many
    small candidate blocks."""
    a, b, cutoff = clouds
    with mock.patch.object(structio, "PAIR_CHUNK", chunk or structio.PAIR_CHUNK):
        found = grid_pairs(a, b, cutoff)
    assert found == kernel_pairs(a, b, cutoff)
