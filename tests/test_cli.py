import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equiref import cli, errors
from equiref.cli import (
    ABLATIONS,
    EXIT_CODES,
    EXIT_DIVERGED,
    EXIT_EMPTY_DATASET,
    EXIT_MISSING_INPUT,
    EXIT_NO_INTERFACE,
    EXIT_NO_OVERLAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_WEIGHTS,
    MODEL_KEYS,
    build_parser,
    exit_code,
    main,
    read_config,
    worker_count,
)
from equiref.metrics import Reference, format_mean_std, reports_to_csv, score_pair
from equiref.model import (
    ModelConfig,
    init_params,
    load_container,
    load_weights,
    save_weights,
)
from equiref.structio import parse_pdb, parse_pdb_file, write_pdb
from equiref.train import RunConfig

from conftest import (
    helix_backbone,
    make_complex,
    pdb_line,
    random_rotation,
    replace_columns,
    rewrite_header,
    take_rows,
    transform_structure,
)

SMALL_CONFIG = ModelConfig(num_layers=2, hidden_dim=8)


def child_env(**extra) -> dict:
    """The environment of a CLI child process that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


# Surface-override files: raw bytes, text, and number lines near the
# 44 atoms of ``make_complex()``, in and out of [0, 1].
SURFACE_FILES = (
    st.binary(max_size=64)
    | st.text(max_size=64).map(str.encode)
    | st.lists(
        st.floats(0.0, 1.0) | st.floats() | st.integers(-2, 2),
        min_size=42, max_size=46,
    ).map(lambda values: "\n".join(map(str, values)).encode())
    | st.lists(st.floats(0.0, 1.0), min_size=44, max_size=44).map(
        lambda values: "".join(f" {v!r} \n\n" for v in values).encode())
)


@pytest.fixture
def workdir(tmp_path):
    structure = make_complex()
    input_pdb = tmp_path / "input.pdb"
    input_pdb.write_text(write_pdb(structure))
    weights = tmp_path / "model.weights"
    weights.write_bytes(save_weights(init_params(SMALL_CONFIG, 0), SMALL_CONFIG))
    return tmp_path, structure, input_pdb, weights


class TestRefine:
    def test_zero_init_weights_reproduce_input(self, workdir):
        tmp, _, input_pdb, weights = workdir
        out = tmp / "refined.pdb"
        report = tmp / "report.json"
        code = main([
            "refine", "--input", str(input_pdb), "--weights", str(weights),
            "--output", str(out), "--report", str(report),
        ])
        assert code == EXIT_OK
        assert out.read_text() == input_pdb.read_text()
        payload = json.loads(report.read_text())
        assert payload["schema_version"] == 1
        assert 0.0 <= payload["mean_predicted_lddt"] <= 1.0
        assert len(payload["per_residue"]) == 11  # 6 + 5 residues

    def test_rotated_input_gives_rotated_output(self, workdir, rng):
        from test_model import randomize

        tmp, structure, input_pdb, _ = workdir
        params = randomize(init_params(SMALL_CONFIG, 0), rng, scale=0.2)
        weights = tmp / "random.weights"
        weights.write_bytes(save_weights(params, SMALL_CONFIG))

        rot = random_rotation(rng)
        shift = np.array([5.0, -3.0, 11.0])
        rotated_pdb = tmp / "rotated.pdb"
        rotated_pdb.write_text(
            write_pdb(transform_structure(structure, rot, shift))
        )
        outputs = []
        for name, source in (("a", input_pdb), ("b", rotated_pdb)):
            out = tmp / f"refined_{name}.pdb"
            code = main([
                "refine", "--input", str(source), "--weights", str(weights),
                "--output", str(out), "--report", str(tmp / f"rep_{name}.json"),
            ])
            assert code == EXIT_OK
            outputs.append(parse_pdb_file(out).coords)
        expected = outputs[0] @ rot.T + shift
        # refined PDB coordinates are quantized to 3 decimals
        np.testing.assert_allclose(outputs[1], expected, atol=2e-3)

    def test_bitwise_for_a_blas_thread_count(self, tmp_path, rng):
        # The determinism contract: a seed gives byte-identical output at a
        # fixed BLAS thread count; across counts, sums may round in another
        # order, so refined coordinates agree to one unit of the PDB field
        # and the mean predicted LDDT to 1e-12. The ~1,000-atom input and
        # the default model are large enough for OpenBLAS to split its
        # matrix products over two threads.
        from test_model import randomize

        config = ModelConfig()
        params = randomize(init_params(config, 0), rng, scale=0.2)
        weights = tmp_path / "model.weights"
        weights.write_bytes(save_weights(params, config))
        input_pdb = tmp_path / "input.pdb"
        input_pdb.write_text(write_pdb(make_complex(140, 120)))

        def refine(threads, tag):
            out, report = tmp_path / f"{tag}.pdb", tmp_path / f"{tag}.json"
            subprocess.run(
                [sys.executable, "-m", "equiref.cli", "refine",
                 "--input", str(input_pdb), "--weights", str(weights),
                 "--output", str(out), "--report", str(report)],
                env=child_env(OPENBLAS_NUM_THREADS=threads),
                check=True,
            )
            return out.read_text(), report.read_text()

        runs = {t: [refine(t, f"{t}-{i}") for i in range(2)] for t in ("1", "2")}
        for threads, (first, second) in runs.items():
            assert first == second, f"OPENBLAS_NUM_THREADS={threads}"
        coords = {t: parse_pdb(runs[t][0][0]).coords for t in runs}
        lddt = {t: json.loads(runs[t][0][1])["mean_predicted_lddt"] for t in runs}
        assert np.abs(coords["1"] - coords["2"]).max() <= 0.001 + 1e-9
        assert abs(lddt["1"] - lddt["2"]) <= 1e-12
        assert not np.array_equal(coords["1"], parse_pdb_file(input_pdb).coords)

    @pytest.mark.parametrize("mirror", [False, True],
                             ids=["rotation", "reflection"])
    def test_rigid_motion_commutes_end_to_end(self, workdir, rng, monkeypatch,
                                              mirror):
        # A signed permutation and a whole-number shift map the input's
        # 3-decimal PDB coordinates exactly onto the grid, so the moved input
        # file is exact and the unrounded refined coordinates are compared.
        # Reflections commute only without the chiral geometric features.
        import equiref.cli as cli
        from test_model import randomize

        tmp, _, input_pdb, _ = workdir
        config = ModelConfig(num_layers=2, hidden_dim=8,
                             include_geometric=not mirror)
        params = randomize(init_params(config, 0), rng, scale=0.2)
        weights = tmp / "random.weights"
        weights.write_bytes(save_weights(params, config))
        motion = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        if mirror:
            motion[1] = -motion[1]
        assert np.linalg.det(motion) == (-1.0 if mirror else 1.0)
        shift = np.array([5.0, -3.0, 11.0])
        moved_pdb = tmp / "moved.pdb"
        moved_pdb.write_text(write_pdb(
            transform_structure(parse_pdb_file(input_pdb), motion, shift)
        ))

        refined = []

        def capture(structure):
            refined.append(structure.coords)
            return write_pdb(structure)

        monkeypatch.setattr(cli, "write_pdb", capture)
        for source in (input_pdb, moved_pdb):
            code = main([
                "refine", "--input", str(source), "--weights", str(weights),
                "--output", str(tmp / "refined.pdb"),
                "--report", str(tmp / "report.json"),
            ])
            assert code == EXIT_OK
        assert np.abs(refined[0] - parse_pdb_file(input_pdb).coords).max() > 1e-3
        np.testing.assert_allclose(refined[1], refined[0] @ motion.T + shift,
                                   rtol=0, atol=1e-6)

    def test_multiple_iterations(self, workdir, rng):
        from test_model import randomize

        tmp, _, input_pdb, _ = workdir
        params = randomize(init_params(SMALL_CONFIG, 0), rng, scale=0.2)
        weights = tmp / "random.weights"
        weights.write_bytes(save_weights(params, SMALL_CONFIG))
        one = tmp / "one.pdb"
        two = tmp / "two.pdb"
        for out, iters in ((one, 1), (two, 2)):
            code = main([
                "refine", "--input", str(input_pdb), "--weights", str(weights),
                "--output", str(out), "--report", str(tmp / "r.json"),
                "--iterations", str(iters),
            ])
            assert code == EXIT_OK
        assert one.read_text() != two.read_text()

    def test_corrupt_weights(self, workdir):
        tmp, _, input_pdb, weights = workdir
        bad = tmp / "bad.weights"
        bad.write_bytes(b"JUNK" + weights.read_bytes()[4:])
        code = main([
            "refine", "--input", str(input_pdb), "--weights", str(bad),
            "--output", str(tmp / "o.pdb"), "--report", str(tmp / "r.json"),
        ])
        assert code == EXIT_WEIGHTS

    def test_weights_that_do_not_load_are_named(self, workdir, capsys):
        # a PDB passed as --weights: the container fault names the file
        tmp, _, input_pdb, _ = workdir
        code = main([
            "refine", "--input", str(input_pdb), "--weights", str(input_pdb),
            "--output", str(tmp / "o.pdb"), "--report", str(tmp / "r.json"),
        ])
        assert code == EXIT_WEIGHTS
        err = capsys.readouterr().err
        assert err.startswith(f"error: {input_pdb}: bad magic bytes")

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].update(num_layers=0),
        lambda h: h["config"].update(num_layers="2"),
        lambda h: h["config"].update(granularity="bogus"),
        lambda h: h["config"].update(node_feat_dim=12, edge_feat_dim=15),
        lambda h: h["config"].update(leaky_slope=0.2),
        lambda h: h["config"].update(norm_constant=0.5),
        lambda h: h.pop("config"),
        lambda h: h.update(config=[2, 8]),
        lambda h: h.pop("blocks"),
        lambda h: h["blocks"][0].pop("shape"),
    ], ids=[
        "invalid_value", "value_type", "bogus_granularity",
        "mismatched_stored_widths", "mismatched_former_slope",
        "mismatched_former_norm_constant", "no_config", "config_not_object",
        "no_blocks", "malformed_block",
    ])
    def test_bad_weights_header_exits_3(self, workdir, edit):
        tmp, _, input_pdb, weights = workdir
        bad = tmp / "bad.weights"
        bad.write_bytes(rewrite_header(weights.read_bytes(), edit))
        code = main([
            "refine", "--input", str(input_pdb), "--weights", str(bad),
            "--output", str(tmp / "o.pdb"), "--report", str(tmp / "r.json"),
        ])
        assert code == EXIT_WEIGHTS

    @pytest.mark.parametrize("iterations", ["0", "-2"])
    def test_non_positive_iterations_rejected(self, workdir, iterations):
        tmp, _, input_pdb, weights = workdir
        with pytest.raises(SystemExit) as exc:
            main([
                "refine", "--input", str(input_pdb), "--weights", str(weights),
                "--output", str(tmp / "o.pdb"), "--report", str(tmp / "r.json"),
                "--iterations", iterations,
            ])
        assert exc.value.code == EXIT_PARSE
        assert not (tmp / "o.pdb").exists()

    @pytest.mark.parametrize(
        "defect", ["missing", "non_numeric", "wrong_count", "out_of_range"]
    )
    def test_bad_surface_file(self, workdir, capsys, defect):
        tmp, structure, input_pdb, weights = workdir
        surface = tmp / "surface.txt"
        last = {"non_numeric": ["abc"], "wrong_count": [], "out_of_range": ["1.5"]}
        if defect != "missing":
            values = ["0.5"] * (structure.num_atoms - 1) + last[defect]
            surface.write_text("\n".join(values) + "\n")
        code = main([
            "refine", "--input", str(input_pdb), "--weights", str(weights),
            "--output", str(tmp / "o.pdb"), "--report", str(tmp / "r.json"),
            "--surface-file", str(surface),
        ])
        assert code == EXIT_PARSE
        assert str(surface) in capsys.readouterr().err
        assert not (tmp / "o.pdb").exists()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=SURFACE_FILES)
    def test_any_surface_file_exits_with_documented_code(self, workdir, capsys,
                                                         content):
        tmp, _, input_pdb, weights = workdir
        surface = tmp / "surface.txt"
        surface.write_bytes(content)
        code = main([
            "refine", "--input", str(input_pdb), "--weights", str(weights),
            "--output", str(tmp / "o.pdb"), "--report", str(tmp / "r.json"),
            "--surface-file", str(surface),
        ])
        assert code in (EXIT_OK, EXIT_PARSE)
        if code == EXIT_PARSE:
            assert str(surface) in capsys.readouterr().err

    def test_unparseable_input(self, workdir):
        tmp, _, _, weights = workdir
        bad = tmp / "bad.pdb"
        bad.write_text("REMARK nothing here\n")
        code = main([
            "refine", "--input", str(bad), "--weights", str(weights),
            "--output", str(tmp / "o.pdb"), "--report", str(tmp / "r.json"),
        ])
        assert code == EXIT_PARSE

    def test_n_on_ca_gives_finite_c_alpha_output(self, workdir):
        # The N of residue 1 sits on its CA, so its phi axis has no length:
        # phi is undefined, encoded (0, 1), and nothing turns into NaN.
        tmp, structure, _, _ = workdir
        config = ModelConfig(num_layers=2, hidden_dim=8, granularity="c-alpha")
        weights = tmp / "ca.weights"
        weights.write_bytes(save_weights(init_params(config, 0), config))
        coords = structure.coords.copy()
        coords[4] = coords[5]
        source = tmp / "n_on_ca.pdb"
        source.write_text(write_pdb(structure.with_coords(coords)))
        out, report = tmp / "o.pdb", tmp / "r.json"
        code = main([
            "refine", "--input", str(source), "--weights", str(weights),
            "--output", str(out), "--report", str(report),
        ])
        assert code == EXIT_OK
        assert np.all(np.isfinite(parse_pdb_file(out).coords))
        payload = json.loads(report.read_text())
        values = [r["predicted_lddt"] for r in payload["per_residue"]]
        assert np.all(np.isfinite(values + [payload["mean_predicted_lddt"]]))

    def test_unwritable_residue_number_exits_2(self, workdir, capsys):
        # 9999 and 9999A fold to 9999 and 10000; the PDB field has 4 columns
        tmp, _, _, weights = workdir
        lines = []
        for i, atoms in enumerate(helix_backbone(2)):
            for name, xyz in zip(("N", "CA", "C", "O"), atoms):
                lines.append(pdb_line(len(lines) + 1, name, "GLY", "A", 9999,
                                      *xyz, icode=" A"[i]))
        source = tmp / "wide.pdb"
        source.write_text("\n".join(lines) + "\n")
        code = main([
            "refine", "--input", str(source), "--weights", str(weights),
            "--output", str(tmp / "o.pdb"), "--report", str(tmp / "r.json"),
        ])
        assert code == EXIT_PARSE
        assert "residue number 10000" in capsys.readouterr().err
        assert not (tmp / "o.pdb").exists()


def overflowing_decoy(native_text: str, fields) -> str:
    """``native_text`` with each coordinate ``(atom, axis)`` of ``fields``
    set to its 8-column value: finite, but past what a distance can hold."""
    lines = native_text.splitlines()
    atoms = [i for i, line in enumerate(lines) if line.startswith("ATOM")]
    for (atom, axis), value in fields.items():
        row, column = atoms[atom % len(atoms)], 30 + 8 * axis
        lines[row] = lines[row][:column] + value.rjust(8) + lines[row][column + 8:]
    return "\n".join(lines) + "\n"


# "-1.7e308" to "-1.0e150" and "1.0e150" to "1.7e308": each fits 8 columns
OVERFLOWING_VALUES = st.builds(
    lambda sign, exponent, tenths: f"{sign}{tenths / 10:.1f}e{exponent}",
    st.sampled_from(["", "-"]), st.integers(150, 308), st.integers(10, 99),
).filter(lambda text: abs(float(text)) <= 1.7e308)


def reject_constant(name):
    raise ValueError(f"not JSON: {name}")


class TestScore:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.dictionaries(st.tuples(st.integers(0, 10_000), st.integers(0, 2)),
                                  OVERFLOWING_VALUES, min_size=1, max_size=12))
    def test_overflowing_decoy_coordinates_exit_with_a_documented_code(
            self, workdir, capsys, fields):
        tmp, _, input_pdb, _ = workdir
        decoy = tmp / "overflow.pdb"
        decoy.write_text(overflowing_decoy(input_pdb.read_text(), fields))
        report = tmp / "overflow.json"
        report.unlink(missing_ok=True)
        code = main(["score", "--decoy", str(decoy), "--native", str(input_pdb),
                     "--report", str(report)])
        assert code in (EXIT_OK, EXIT_NO_OVERLAP, EXIT_NO_INTERFACE)
        assert report.exists() == (code == EXIT_OK)
        if code == EXIT_OK:
            json.loads(report.read_text(), parse_constant=reject_constant)
        assert (code == EXIT_OK) != capsys.readouterr().err.startswith("error: ")

    def test_identical_pair(self, workdir):
        tmp, structure, input_pdb, _ = workdir
        report = tmp / "score.json"
        code = main([
            "score", "--decoy", str(input_pdb), "--native", str(input_pdb),
            "--report", str(report),
        ])
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["dockq"] == pytest.approx(1.0, abs=1e-9)
        assert payload["quality_class"] == "high"
        assert payload["lddt_ca"] == pytest.approx(1.0)

    def test_translated_ligand_incorrect(self, workdir):
        tmp, structure, input_pdb, _ = workdir
        coords = structure.coords.copy()
        coords[structure.chain == "B"] += 100.0
        decoy_pdb = tmp / "decoy.pdb"
        decoy_pdb.write_text(write_pdb(structure.with_coords(coords)))
        report = tmp / "score.json"
        code = main([
            "score", "--decoy", str(decoy_pdb), "--native", str(input_pdb),
            "--report", str(report),
        ])
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["fnat"] == 0.0
        assert payload["quality_class"] == "incorrect"

    def test_report_matches_library_call(self, workdir, rng):
        tmp, structure, input_pdb, _ = workdir
        coords = structure.coords + rng.normal(
            scale=0.4, size=(structure.num_atoms, 3)
        )
        decoy = structure.with_coords(coords)
        decoy_pdb = tmp / "decoy.pdb"
        decoy_pdb.write_text(write_pdb(decoy))
        report_path = tmp / "score.json"
        code = main([
            "score", "--decoy", str(decoy_pdb), "--native", str(input_pdb),
            "--report", str(report_path),
        ])
        assert code == EXIT_OK
        payload = json.loads(report_path.read_text())
        expected = score_pair(
            parse_pdb_file(decoy_pdb), Reference(parse_pdb_file(input_pdb))
        )
        assert payload["dockq"] == expected.dockq
        assert payload["irmsd"] == expected.irmsd
        assert payload["fnat"] == expected.fnat

    def test_no_overlap(self, workdir):
        tmp, structure, input_pdb, _ = workdir
        renamed = replace_columns(
            structure, chain=np.where(structure.chain == "A", "X", "Y")
        )
        other = tmp / "other.pdb"
        other.write_text(write_pdb(renamed))
        code = main([
            "score", "--decoy", str(input_pdb), "--native", str(other),
            "--report", str(tmp / "r.json"),
        ])
        assert code == EXIT_NO_OVERLAP

    def test_single_chain_interface_undefined(self, workdir):
        tmp, structure, _, _ = workdir
        single = take_rows(structure, structure.chain == "A")
        single_pdb = tmp / "single.pdb"
        single_pdb.write_text(write_pdb(single))
        code = main([
            "score", "--decoy", str(single_pdb), "--native", str(single_pdb),
            "--report", str(tmp / "r.json"),
        ])
        assert code == EXIT_NO_INTERFACE


def evaluation_fixture(tmp_path, rng, n_targets=2, n_decoys=3):
    natives = tmp_path / "natives"
    decoys = tmp_path / "decoys"
    natives.mkdir()
    decoys.mkdir()
    rows = ["target,decoy,predicted_score"]
    for t in range(n_targets):
        native = make_complex(n_res_a=5, n_res_b=4)
        (natives / f"t{t}.pdb").write_text(write_pdb(native))
        for d in range(n_decoys):
            sigma = 0.02 + 1.5 * d
            coords = native.coords + rng.normal(
                scale=sigma, size=(native.num_atoms, 3)
            )
            decoy_id = f"t{t}_d{d}"
            (decoys / f"{decoy_id}.pdb").write_text(
                write_pdb(native.with_coords(coords))
            )
            rows.append(f"t{t},{decoy_id},{n_decoys - d}")
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(rows) + "\n")
    return scores, natives, decoys


def fuzz_structures(natives, decoys, rng):
    """Files for the scores CSV property: ``t0`` scores its two decoys;
    ``t0_far`` (exit 4), ``t0_half`` (exit 5), ``t0_dir`` (a directory),
    the garbage native ``t1`` and the one-chain native ``solo`` do not."""
    natives.mkdir()
    decoys.mkdir()
    native = make_complex(n_res_a=4, n_res_b=3)
    (natives / "t0.pdb").write_text(write_pdb(native))
    (natives / "t1.pdb").write_text("not a PDB file\n")
    (natives / "solo.pdb").write_text(
        write_pdb(take_rows(native, np.flatnonzero(native.chain == "A"))))
    for name, chains in (("t0_d0", ("A", "B")), ("t0_d1", ("A", "B")),
                         ("t0_far", ("X", "Y")), ("t0_half", ("Y", "B"))):
        decoy = native.with_coords(
            native.coords + rng.normal(scale=0.5, size=native.coords.shape))
        decoy = replace_columns(decoy, chain=np.where(decoy.chain == "A", *chains))
        (decoys / f"{name}.pdb").write_text(write_pdb(decoy))
    (decoys / "t0_dir.pdb").mkdir()


FUZZ_IDS = ("t0", "t1", "solo", "t0_d0", "t0_d1", "t0_far", "t0_half", "t0_dir",
            "../natives/t0", "t0/..", "", " t0", "x" * 300, "a\x00b", "T\xff")
# The first five scores are finite numbers.
FUZZ_SCORES = ("0.5", "1", "-2", " 3 ", "1_0", "1e400", "nan", "-inf", "", "x")


@st.composite
def scores_csv_text(draw):
    """CSV text: either well formed with rows that name the files of
    ``fuzz_structures``, or with odd headers, rows, ids and scores."""
    names = ["target", "decoy", "predicted_score"]
    scorable = st.tuples(
        st.sampled_from(("t0", "t0", "t0", "t0", "solo", "t1", "x" * 300)),
        st.sampled_from(("t0_d0", "t0_d1", "../natives/t0", "t0_far", "t0_half",
                         "t0_dir", "x" * 300)),
        st.sampled_from(FUZZ_SCORES[:5]),
    ).map(list)
    if draw(st.booleans()):
        header = names
        rows = draw(st.lists(scorable, min_size=1, max_size=3))
    else:
        cell = (st.sampled_from(FUZZ_IDS + FUZZ_SCORES) | st.text(max_size=6)
                | st.floats().map(repr))
        header = draw(st.permutations(names) | st.lists(
            st.sampled_from(names + ["extra", ""]), max_size=5))
        odd = st.tuples(st.sampled_from(FUZZ_IDS), st.sampled_from(FUZZ_IDS),
                        st.sampled_from(FUZZ_SCORES) | cell).map(list)
        rows = draw(st.lists(scorable | odd | st.lists(cell, max_size=5),
                             max_size=5))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(",".join(row) for row in [header, *rows]) + end


class TestEvaluate:
    def test_summary_structure(self, tmp_path, rng):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng)
        summary = tmp_path / "summary.txt"
        details = tmp_path / "details.csv"
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(summary),
            "--details", str(details), "--workers", "1",
        ])
        assert code == EXIT_OK
        lines = summary.read_text().strip().splitlines()
        assert lines[0] == "top_n\t10"
        assert lines[-1].startswith("Summary\t")
        triple = lines[1].split("\t")[1]
        a, b, c = (int(v) for v in triple.split("/"))
        assert a >= b >= c
        detail_lines = details.read_text().strip().splitlines()
        assert detail_lines[0].startswith("target,decoy")
        assert len(detail_lines) == 1 + 6

    def test_overflowing_decoy_exits_5(self, tmp_path, rng, capsys):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng)
        decoy = decoys / "t1_d1.pdb"
        decoy.write_text(overflowing_decoy(decoy.read_text(), {(0, 0): "-1.7e308"}))
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(tmp_path / "s.txt"),
            "--workers", "1",
        ])
        assert code == EXIT_NO_INTERFACE
        assert capsys.readouterr().err.startswith("error: target t1, decoy t1_d1: ")

    def test_worker_pool_matches_serial(self, tmp_path, rng):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng)
        outputs = []
        for workers, name in (("1", "serial"), ("2", "pool")):
            summary = tmp_path / f"summary_{name}.txt"
            code = main([
                "evaluate", "--scores", str(scores), "--natives", str(natives),
                "--decoys", str(decoys), "--summary", str(summary),
                "--workers", workers,
            ])
            assert code == EXIT_OK
            outputs.append(summary.read_text())
        assert outputs[0] == outputs[1]

    def test_empty_csv(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("target,decoy,predicted_score\n")
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(tmp_path),
            "--decoys", str(tmp_path), "--summary", str(tmp_path / "s.txt"),
        ])
        assert code == EXIT_MISSING_INPUT

    def test_missing_decoy_file(self, tmp_path, rng):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        (decoys / "t0_d0.pdb").unlink()
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(tmp_path / "s.txt"),
        ])
        assert code == EXIT_MISSING_INPUT

    @pytest.mark.parametrize("score", ["high", "nan", "-inf", ""])
    def test_bad_predicted_score(self, tmp_path, rng, capsys, score):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        lines = scores.read_text().splitlines()
        lines[2] = f"t0,t0_d1,{score}"
        scores.write_text("\n".join(lines) + "\n")
        summary = tmp_path / "s.txt"
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(summary), "--workers", "1",
        ])
        assert code == EXIT_PARSE
        assert "row 2 (t0, t0_d1)" in capsys.readouterr().err
        assert not summary.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_duplicate_pair_rejected(self, tmp_path, rng, capsys, workers):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        scores.write_text(scores.read_text() + "t0,t0_d0,0.1\n")
        summary = tmp_path / "s.txt"
        details = tmp_path / "d.csv"
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(summary),
            "--details", str(details), "--workers", workers,
        ])
        assert code == EXIT_PARSE
        assert "rows 1 and 4 both list (t0, t0_d0)" in capsys.readouterr().err
        assert not summary.exists()
        assert not details.exists()

    @pytest.mark.parametrize("top_n", ["0", "-3"])
    def test_non_positive_top_n_rejected(self, tmp_path, rng, top_n):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        summary = tmp_path / "s.txt"
        with pytest.raises(SystemExit) as exc:
            main([
                "evaluate", "--scores", str(scores), "--natives", str(natives),
                "--decoys", str(decoys), "--summary", str(summary),
                "--top-n", top_n,
            ])
        assert exc.value.code == EXIT_PARSE
        assert not summary.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("renamed, expected", [
        (("X", "Y"), EXIT_NO_OVERLAP),
        (("A", "Y"), EXIT_NO_INTERFACE),
    ], ids=["no_overlap", "no_interface"])
    def test_unscorable_decoy_is_named(self, tmp_path, rng, capsys, workers,
                                       renamed, expected):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        decoy = parse_pdb_file(decoys / "t0_d1.pdb")
        decoy = replace_columns(
            decoy, chain=np.where(decoy.chain == "A", *renamed)
        )
        (decoys / "t0_d1.pdb").write_text(write_pdb(decoy))
        summary = tmp_path / "s.txt"
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(summary),
            "--workers", workers,
        ])
        assert code == expected
        assert "target t0, decoy t0_d1:" in capsys.readouterr().err
        assert not summary.exists()

    def test_first_failing_target_decides_exit_code(self, tmp_path, rng, capsys):
        # t0's last decoy has no overlap (exit 4); t1's first decoy has no
        # interface (exit 5) and so fails first in time at two workers
        scores, natives, decoys = evaluation_fixture(tmp_path, rng)
        for decoy_id, renamed in (("t0_d2", ("X", "Y")), ("t1_d0", ("A", "Y"))):
            decoy = parse_pdb_file(decoys / f"{decoy_id}.pdb")
            decoy = replace_columns(
                decoy, chain=np.where(decoy.chain == "A", *renamed)
            )
            (decoys / f"{decoy_id}.pdb").write_text(write_pdb(decoy))
        for workers in ("1", "2", "2", "2", "2", "2"):
            code = main([
                "evaluate", "--scores", str(scores), "--natives", str(natives),
                "--decoys", str(decoys), "--summary", str(tmp_path / "s.txt"),
                "--workers", workers,
            ])
            assert code == EXIT_NO_OVERLAP, f"--workers {workers}"
            assert "target t0, decoy t0_d2:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("unreadable", ["decoy", "native"])
    def test_unreadable_structure_is_named(self, tmp_path, rng, capsys, workers,
                                           unreadable):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        path = decoys / "t0_d1.pdb" if unreadable == "decoy" else natives / "t0.pdb"
        path.unlink()
        path.mkdir()
        summary = tmp_path / "s.txt"
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(summary),
            "--workers", workers,
        ])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "target t0, decoy t0_" in err and str(path) in err
        assert not summary.exists()

    def test_worker_count(self):
        assert worker_count(0, 64, 2) == 2
        assert worker_count(0, 64, None) == 1
        assert worker_count(2, 64, 2) == 2
        assert worker_count(1000, 64, 2) == 2
        assert worker_count(1000, 3, 8) == 3
        assert worker_count(4, 1, 8) == 1
        assert worker_count(-3, 64, 2) == 1

    def test_summary_formatting_matches_fixture_arithmetic(self):
        assert format_mean_std([0.2, 0.4]) == "0.3000 ± 0.1414"

    def test_negative_workers_rejected(self, tmp_path, rng):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        summary = tmp_path / "s.txt"
        with pytest.raises(SystemExit) as exc:
            main([
                "evaluate", "--scores", str(scores), "--natives", str(natives),
                "--decoys", str(decoys), "--summary", str(summary),
                "--workers", "-3",
            ])
        assert exc.value.code == EXIT_PARSE
        assert not summary.exists()

    @pytest.mark.parametrize("row", [b"T\xff,x,0.5", b"t0,%s,0.5" % (b"d" * 200_000)],
                             ids=["non_utf8", "huge_field"])
    def test_unparsable_scores_csv(self, tmp_path, rng, capsys, row):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        scores.write_bytes(b"target,decoy,predicted_score\n" + row + b"\n")
        summary = tmp_path / "s.txt"
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(summary), "--workers", "1",
        ])
        assert code == EXIT_PARSE
        assert str(scores) in capsys.readouterr().err
        assert not summary.exists()

    @pytest.mark.parametrize("column", ["target", "decoy"])
    def test_unusable_file_name_is_missing(self, tmp_path, rng, capsys, column):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, n_targets=1)
        row = {"target": "t0", "decoy": "t0_d0"} | {column: "x" * 300}
        scores.write_text(
            f"target,decoy,predicted_score\n{row['target']},{row['decoy']},1\n")
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(tmp_path / "s.txt"),
            "--workers", "1",
        ])
        assert code == EXIT_MISSING_INPUT
        assert f"missing {'native' if column == 'target' else column} file" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_interleaved_targets_keep_csv_order(self, tmp_path, rng, workers):
        scores, natives, decoys = evaluation_fixture(tmp_path, rng)
        rows = [f"t{t},t{t}_d{d},{0.1 * (d + 3 * t):.1f}"
                for d in range(3) for t in (1, 0)]
        scores.write_text("\n".join(["target,decoy,predicted_score", *rows]) + "\n")
        details = tmp_path / "details.csv"
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(tmp_path / "s.txt"),
            "--details", str(details), "--workers", workers,
        ])
        assert code == EXIT_OK
        expected = []
        for row in rows:
            target, decoy_id, _ = row.split(",")
            report = score_pair(parse_pdb_file(decoys / f"{decoy_id}.pdb"),
                                Reference(parse_pdb_file(natives / f"{target}.pdb")))
            expected.append((target, decoy_id, report))
        assert details.read_bytes() == reports_to_csv(expected).encode()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.binary(max_size=120) | scores_csv_text().map(
        lambda text: text.encode("utf-8")))
    def test_any_scores_csv_exits_with_documented_code(self, tmp_path, rng,
                                                       capsys, data):
        natives, decoys = tmp_path / "natives", tmp_path / "decoys"
        if not natives.exists():
            fuzz_structures(natives, decoys, rng)
        scores = tmp_path / "scores.csv"
        scores.write_bytes(data)
        summary, details = tmp_path / "s.txt", tmp_path / "d.csv"
        summary.unlink(missing_ok=True)
        code = main([
            "evaluate", "--scores", str(scores), "--natives", str(natives),
            "--decoys", str(decoys), "--summary", str(summary),
            "--details", str(details), "--workers", "1",
        ])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_NO_OVERLAP, EXIT_NO_INTERFACE,
                        EXIT_MISSING_INPUT)
        err = capsys.readouterr().err
        assert summary.exists() == (code == EXIT_OK)
        assert (code == EXIT_OK) != err.startswith("error: ")


def training_fixture(tmp_path, rng, n_examples=2):
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    for i in range(n_examples):
        native = make_complex(n_res_a=4, n_res_b=3)
        coords = native.coords + rng.normal(
            scale=0.4, size=(native.num_atoms, 3)
        )
        (train_dir / f"ex{i}_native.pdb").write_text(write_pdb(native))
        (train_dir / f"ex{i}_decoy.pdb").write_text(
            write_pdb(native.with_coords(coords))
        )
    return train_dir


PAIR_KINDS = ("supervised", "unreadable", "unparseable", "no_overlap",
              "unsupervised")


def dataset_pair_files():
    """Decoy and native text of each of ``PAIR_KINDS``; a decoy of None is
    a directory in place of the file. The unsupervised native has no CA
    atom, so under a c-alpha config its pair supervises nothing."""
    rng = np.random.default_rng(7)
    native = make_complex(n_res_a=4, n_res_b=3)
    decoy = native.with_coords(
        native.coords + rng.normal(scale=0.4, size=native.coords.shape)
    )
    far = replace_columns(decoy, chain=np.where(decoy.chain == "A", "X", "Y"))
    native_text = write_pdb(native)
    return {
        "supervised": (write_pdb(decoy), native_text),
        "unreadable": (None, native_text),
        "unparseable": ("not a PDB file\n", native_text),
        "no_overlap": (write_pdb(far), native_text),
        "unsupervised": (write_pdb(decoy),
                         write_pdb(take_rows(native, native.name != "CA"))),
    }


def expected_train_code(train, val, granularity):
    """Exit code of ``train`` on pair directories holding these kinds:
    empty directories first, then the first bad pair in training and
    validation order, then the supervision checks."""
    if not train or val == []:
        return EXIT_EMPTY_DATASET
    for kind in train + (val or []):
        if kind in ("unreadable", "unparseable"):
            return EXIT_PARSE
        if kind == "no_overlap":
            return EXIT_NO_OVERLAP
    if granularity == "c-alpha" and not (
        "supervised" in train and "supervised" in (val or train)
    ):
        return EXIT_EMPTY_DATASET
    return EXIT_OK


# Every key a config file may hold, plus ModelConfig names it may not.
CONFIG_KEYS = sorted(
    {f.name for f in fields(RunConfig)} | set(MODEL_KEYS) | set(ABLATIONS)
    | {"k"} | {f.name for f in fields(ModelConfig)}
)


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    json_containers,
    max_leaves=4,
)

BASE_CONFIG = {
    "seed": 1,
    "num_layers": 1,
    "hidden_dim": 8,
    "k": 8,
    "max_epochs": 2,
    "patience": 10,
    "noise_sigma": 0.05,
}


class TestTrain:
    def test_writes_weights_and_log(self, tmp_path, rng):
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "model.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(out),
        ])
        assert code == EXIT_OK
        params, loaded_config, extra, meta = load_container(out.read_bytes())
        assert loaded_config.num_layers == 1
        assert "best_epoch" in meta
        assert extra["opt.step"] > 0
        log_lines = (tmp_path / "model.weights.log").read_text().splitlines()
        header = json.loads(log_lines[0])
        assert header["config"]["noise_sigma"] == 0.05
        assert len(log_lines) == 1 + 2  # header + one line per epoch

    def test_fixed_seed_reproducible_weights(self, tmp_path, rng):
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.weights"
            code = main([
                "train", "--config", str(config), "--train-dir", str(train_dir),
                "--out-weights", str(out),
            ])
            assert code == EXIT_OK
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_npc_flag_disables_corruption_in_log(self, tmp_path, rng):
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**BASE_CONFIG, "no_positional_corruption": True})
        )
        out = tmp_path / "model.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(out),
        ])
        assert code == EXIT_OK
        header = json.loads(
            (tmp_path / "model.weights.log").read_text().splitlines()[0]
        )
        assert header["config"]["noise_sigma"] == 0.0

    def test_empty_dataset(self, tmp_path):
        train_dir = tmp_path / "train"
        train_dir.mkdir()
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(tmp_path / "m.weights"),
        ])
        assert code == EXIT_EMPTY_DATASET

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_nothing_to_supervise_exits_8(self, tmp_path, rng, capsys, monkeypatch,
                                          split):
        # c-alpha nodes are CA atoms and this pair's native has none, so it
        # supervises neither coordinates nor LDDT: as the only training
        # pair every example is skipped, as the only validation pair there
        # is no RMSD to measure, which is found before the first step
        import equiref.train as train

        steps = []
        taped_step = train.backward

        def counted_step(*args, **kwargs):
            steps.append(args)
            return taped_step(*args, **kwargs)

        monkeypatch.setattr(train, "backward", counted_step)
        if split == "val":
            training_fixture(tmp_path, rng)
        pair_dir = tmp_path / split
        pair_dir.mkdir(exist_ok=True)
        native = make_complex(n_res_a=4, n_res_b=3)
        decoy = native.with_coords(
            native.coords + rng.normal(scale=0.4, size=native.coords.shape)
        )
        (pair_dir / "u_decoy.pdb").write_text(write_pdb(decoy))
        (pair_dir / "u_native.pdb").write_text(
            write_pdb(take_rows(native, native.name != "CA"))
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**BASE_CONFIG, "granularity": "c-alpha"}))
        out = tmp_path / "m.weights"
        args = [
            "train", "--config", str(config), "--train-dir", str(tmp_path / "train"),
            "--out-weights", str(out),
        ]
        if split == "val":
            args += ["--val-dir", str(pair_dir)]
        assert main(args) == EXIT_EMPTY_DATASET
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        if split == "val":
            assert steps == []

    @pytest.mark.parametrize("val", ["missing", "no_pairs"])
    def test_empty_val_dir_exits_8(self, tmp_path, rng, capsys, val):
        train_dir = training_fixture(tmp_path, rng)
        val_dir = tmp_path / "val"
        if val == "no_pairs":
            val_dir.mkdir()
            (val_dir / "a_native.pdb").write_text(
                (train_dir / "ex0_native.pdb").read_text()
            )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "m.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--val-dir", str(val_dir), "--out-weights", str(out),
        ])
        assert code == EXIT_EMPTY_DATASET
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(val_dir) in err
        assert not out.exists()

    def test_pair_without_shared_atoms_exits_4(self, tmp_path, rng, capsys):
        train_dir = training_fixture(tmp_path, rng)
        native = parse_pdb_file(train_dir / "ex0_native.pdb")
        (train_dir / "far_native.pdb").write_text(write_pdb(native))
        (train_dir / "far_decoy.pdb").write_text(write_pdb(replace_columns(
            native, chain=np.where(native.chain == "A", "X", "Y"))))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "m.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(out),
        ])
        assert code == EXIT_NO_OVERLAP
        assert capsys.readouterr().err.startswith("error: target far, decoy far: ")
        assert not out.exists()

    def test_overflowing_decoy_exits_2_naming_the_pair(self, tmp_path, rng, capsys):
        # the CA superposition fails, the pair trains in its own frame, and
        # the graph build refuses the coordinates
        train_dir = training_fixture(tmp_path, rng)
        decoy = train_dir / "ex1_decoy.pdb"
        decoy.write_text(overflowing_decoy(decoy.read_text(), {(0, 0): "-1.7e308"}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "model.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(out),
        ])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: target ex1, decoy ex1: ")
        assert not out.exists()

    def test_optimizer_state_is_that_of_the_best_weights(self, tmp_path, rng):
        # a large step overshoots, so the best epoch is not the last
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {**BASE_CONFIG, "learning_rate": 1.0, "patience": 3, "max_epochs": 30}
        ))
        out = tmp_path / "model.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(out),
        ])
        assert code == EXIT_OK
        _, _, extra, meta = load_container(out.read_bytes())
        epochs = len((tmp_path / "model.weights.log").read_text().splitlines()) - 1
        assert meta["best_epoch"] < epochs
        assert extra["opt.step"] == meta["best_epoch"] * 2  # 2 supervised pairs

    @pytest.mark.parametrize("content", [b"{", b"\xff{}", b"1" * 5000],
                             ids=["truncated", "not_utf8", "int_too_long"])
    def test_undecodable_config_is_named(self, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        code = main([
            "train", "--config", str(config), "--train-dir", str(tmp_path),
            "--out-weights", str(tmp_path / "m.weights"),
        ])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: cannot decode {config}")

    def test_unreadable_structure_is_named(self, tmp_path, rng, capsys):
        train_dir = training_fixture(tmp_path, rng)
        (train_dir / "a_decoy.pdb").mkdir()
        (train_dir / "a_native.pdb").write_text(
            (train_dir / "ex0_native.pdb").read_text()
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "m.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(out),
        ])
        assert code == EXIT_PARSE
        assert str(train_dir / "a_decoy.pdb") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_exits_7_and_keeps_last_good_weights(self, tmp_path, rng,
                                                           capsys, monkeypatch):
        import equiref.cli as cli

        raised = []
        loop = cli.train_loop

        def recorded_loop(*args, **kwargs):
            try:
                return loop(*args, **kwargs)
            except errors.DivergenceError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(cli, "train_loop", recorded_loop)
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**BASE_CONFIG, "learning_rate": 1e12, "max_epochs": 30})
        )
        out = tmp_path / "model.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(out),
        ])
        assert code == EXIT_DIVERGED
        (exc,) = raised
        assert capsys.readouterr().err == f"error: {exc}\n"
        params, _, extra, meta = load_container(out.read_bytes())
        assert meta == {"diverged": True}
        assert all(np.all(np.isfinite(v)) for v in params.values())
        assert params.keys() == exc.result.params.keys()
        assert all(np.array_equal(params[k], exc.result.params[k]) for k in params)
        assert extra["opt.step"] == exc.result.optimizer.step
        run, model = read_config(config)
        header = json.dumps({"config": model.to_dict(), "seed": run.seed})
        log = (tmp_path / "model.weights.log").read_text()
        assert log == "\n".join([header] + exc.result.log_lines()) + "\n"

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_after_an_epoch_worse_than_the_input_keeps_initial_weights(
            self, tmp_path, rng):
        # epoch 1 overshoots to a finite but huge validation RMSD: it is not
        # the best, so the weights written on divergence are the initial ones
        train_dir = training_fixture(tmp_path, rng, n_examples=3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1e12, "max_epochs": 2,
                                      "num_layers": 1, "hidden_dim": 8}))
        out = tmp_path / "w"
        code = main(["train", "--config", str(config), "--train-dir", str(train_dir),
                     "--out-weights", str(out)])
        assert code == EXIT_DIVERGED
        records = [json.loads(line) for line in
                   (tmp_path / "w.log").read_text().splitlines()[1:]]
        assert [(r["epoch"], r["best"]) for r in records] == [(1, False)]
        run, model = read_config(config)
        params, _, extra, meta = load_container(out.read_bytes())
        initial = init_params(model, run.seed)
        assert params.keys() == initial.keys()
        assert all(np.array_equal(params[k], initial[k]) for k in params)
        assert meta == {"diverged": True} and extra["opt.step"] == 0

    def test_divergence_prints_only_the_error_line(self, tmp_path, rng):
        # the run overflows inside the network before the loop's checks
        # see it; pytest records the warnings of its own process, so the
        # CLI runs in a child that prints them as a user would see them
        train_dir = training_fixture(tmp_path, rng, n_examples=3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1e12, "max_epochs": 2,
                                      "num_layers": 1, "hidden_dim": 8}))
        run = subprocess.run(
            [sys.executable, "-m", "equiref.cli", "train", "--config", str(config),
             "--train-dir", str(train_dir), "--out-weights", str(tmp_path / "w")],
            env=child_env(PYTHONWARNINGS="default"), capture_output=True, text=True,
        )
        assert run.returncode == EXIT_DIVERGED
        assert run.stderr.startswith("error: ")
        assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n")

    def test_unknown_config_key(self, tmp_path, rng):
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**BASE_CONFIG, "no_surface_proximty": True}))
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(tmp_path / "m.weights"),
        ])
        assert code == EXIT_PARSE

    def test_nsp_ablation_trains_with_narrow_features(self, tmp_path, rng):
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**BASE_CONFIG, "no_surface_proximity": True,
                        "max_epochs": 1})
        )
        out = tmp_path / "model.weights"
        code = main([
            "train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(out),
        ])
        assert code == EXIT_OK
        _, loaded_config = load_weights(out.read_bytes())
        assert loaded_config.node_feat_dim == 38

    @pytest.mark.parametrize("bad", [
        {"num_layers": "2"},
        {"k": "x"},
        {"seed": -1},
        {"learning_rate": None},
        {"no_surface_proximity": 1},
        {"noise_sigma": float("nan")},
        {"leaky_slope": 0.1},
        {"k_neighbors": 10},
        [1, 2],
        {"max_epochs": 0},
    ])
    def test_bad_config_value(self, tmp_path, bad):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bad))
        code = main([
            "train", "--config", str(config), "--train-dir", str(tmp_path),
            "--out-weights", str(tmp_path / "m.weights"),
        ])
        assert code == EXIT_PARSE

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.dictionaries(
        st.sampled_from(CONFIG_KEYS) | st.text(max_size=12), JSON_VALUES,
        max_size=6,
    ))
    def test_any_json_object_exits_with_documented_code(self, tmp_path, data):
        # the empty dataset check comes after the config is built, so every
        # accepted config ends there without training
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        empty = tmp_path / "empty"
        empty.mkdir(exist_ok=True)
        code = main([
            "train", "--config", str(config), "--train-dir", str(empty),
            "--out-weights", str(tmp_path / "m.weights"),
        ])
        assert code in (EXIT_PARSE, EXIT_EMPTY_DATASET)


    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(train=st.lists(st.sampled_from(PAIR_KINDS), max_size=3),
           val=st.none() | st.lists(st.sampled_from(PAIR_KINDS), max_size=2),
           granularity=st.sampled_from(("all-atom", "c-alpha")))
    def test_any_dataset_exits_with_documented_code(self, tmp_path, capsys, train,
                                                    val, granularity):
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        files = dataset_pair_files()

        def pair_dir(name, kinds):
            directory = root / name
            directory.mkdir()
            for i, kind in enumerate(kinds):
                decoy, native = files[kind]
                (directory / f"p{i}_native.pdb").write_text(native)
                if decoy is None:
                    (directory / f"p{i}_decoy.pdb").mkdir()
                else:
                    (directory / f"p{i}_decoy.pdb").write_text(decoy)
            return str(directory)

        config = root / "config.json"
        config.write_text(json.dumps(
            {**BASE_CONFIG, "max_epochs": 1, "granularity": granularity}
        ))
        out = root / "m.weights"
        args = ["train", "--config", str(config), "--train-dir",
                pair_dir("train", train), "--out-weights", str(out)]
        if val is not None:
            args += ["--val-dir", pair_dir("val", val)]
        code = main(args)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_NO_OVERLAP, EXIT_EMPTY_DATASET)
        assert code == expected_train_code(train, val, granularity)
        assert (code != EXIT_OK) == capsys.readouterr().err.startswith("error: ")
        assert out.exists() == (code == EXIT_OK)


class TestRunConfig:
    def load(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return read_config(path)

    def test_empty_object_gives_defaults(self, tmp_path):
        assert self.load(tmp_path, {}) == (RunConfig(), ModelConfig())

    def test_every_model_setting_has_a_config_key(self):
        # a ModelConfig field that no config key sets is a setting nothing
        # can change
        reachable = (set(MODEL_KEYS) | {"k_neighbors"}
                     | {name for name, _ in ABLATIONS.values()})
        assert reachable == {f.name for f in fields(ModelConfig)}

    def test_every_documented_key_reaches_its_setting(self, tmp_path):
        data = {
            "seed": 3, "granularity": "c-alpha", "k": 12, "num_layers": 2,
            "hidden_dim": 16, "window_size": 32, "attention_enabled": False,
            "noise_sigma": 0.3, "psr_loss_weight": 0.5, "qa_loss_weight": 0.2,
            "learning_rate": 0.01, "weight_decay": 0.0, "max_epochs": 5,
            "patience": 2, "no_positional_corruption": False,
            "no_surface_proximity": False,
            "no_relative_geometric_features": False,
        }
        model = ModelConfig(
            num_layers=2, hidden_dim=16, psr_loss_weight=0.5,
            qa_loss_weight=0.2, attention_enabled=False, window_size=32,
            noise_sigma=0.3, granularity="c-alpha", k_neighbors=12,
        )
        run = RunConfig(seed=3, learning_rate=0.01, weight_decay=0.0,
                        max_epochs=5, patience=2)
        assert self.load(tmp_path, data) == (run, model)
        ablated = {**data, "no_positional_corruption": True,
                   "no_surface_proximity": True,
                   "no_relative_geometric_features": True}
        assert self.load(tmp_path, ablated) == (run, ModelConfig(
            **{**model.to_dict(), "noise_sigma": 0.0, "include_surface": False,
               "include_geometric": False}))


README = Path(__file__).resolve().parent.parent / "README.md"


def documented_exit_codes() -> set[int]:
    """The codes of the README's exit-code paragraph."""
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Exit codes are stable:"):].split("\n\n")[0]
    return {int(code) for code in re.findall(r"\b(\d) [a-z]", paragraph)}


def successful_run(tmp_path, rng, command) -> list[str]:
    """Arguments of a run of ``command`` that exits 0 and names every output."""
    complex_pdb = tmp_path / "complex.pdb"
    complex_pdb.write_text(write_pdb(make_complex()))
    if command == "refine":
        weights = tmp_path / "model.weights"
        weights.write_bytes(save_weights(init_params(SMALL_CONFIG, 0), SMALL_CONFIG))
        return ["refine", "--input", str(complex_pdb), "--weights", str(weights),
                "--output", str(tmp_path / "o.pdb"),
                "--report", str(tmp_path / "r.json")]
    if command == "score":
        return ["score", "--decoy", str(complex_pdb), "--native", str(complex_pdb),
                "--report", str(tmp_path / "r.json")]
    if command == "evaluate":
        scores, natives, decoys = evaluation_fixture(tmp_path, rng, 1, 2)
        return ["evaluate", "--scores", str(scores), "--natives", str(natives),
                "--decoys", str(decoys), "--summary", str(tmp_path / "s.txt"),
                "--details", str(tmp_path / "d.csv"), "--workers", "1"]
    train_dir = training_fixture(tmp_path, rng)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "max_epochs": 1}))
    return ["train", "--config", str(config), "--train-dir", str(train_dir),
            "--out-weights", str(tmp_path / "m.weights"),
            "--log", str(tmp_path / "m.log")]


class TestExitCodes:
    def test_every_error_type_has_a_documented_code(self):
        documented = documented_exit_codes()
        assert documented == {EXIT_OK, EXIT_PARSE, EXIT_WEIGHTS, EXIT_NO_OVERLAP,
                              EXIT_NO_INTERFACE, EXIT_MISSING_INPUT,
                              EXIT_DIVERGED, EXIT_EMPTY_DATASET}
        types = [value for value in vars(errors).values()
                 if isinstance(value, type) and issubclass(value, errors.EquirefError)]
        assert errors.WeightsVersionError in types
        for error in types + [OSError, IsADirectoryError, *EXIT_CODES]:
            assert exit_code(error) in documented - {EXIT_OK}
        assert [exit_code(error) for error in (
            errors.WeightsVersionError, errors.WeightsTruncatedError,
            errors.NoOverlapError, errors.NoInterfaceError,
            errors.UndefinedMetricError, errors.LossUndefinedError,
            errors.PdbParseError, errors.SurfaceOverrideError, FileNotFoundError,
            errors.DivergenceError, errors.MissingInputError, MemoryError,
        )] == [3, 3, 4, 5, 5, 8, 2, 2, 2, 7, 6, 2]

    def test_every_failure_code_comes_from_the_table(self):
        constants = {value for name, value in vars(cli).items()
                     if name.startswith("EXIT_") and name != "EXIT_CODES"}
        assert constants - {EXIT_OK} == set(EXIT_CODES.values())

    @pytest.mark.parametrize("site, code, message", [
        ("unreadable_weights", EXIT_WEIGHTS, "cannot read weights: "),
        ("unreadable_scores", EXIT_MISSING_INPUT, "cannot read scores CSV: "),
        ("undecodable_scores", EXIT_PARSE, "cannot parse scores CSV "),
        ("no_rows", EXIT_MISSING_INPUT, "no targets in scores CSV"),
        ("no_score_column", EXIT_MISSING_INPUT, "scores CSV must have columns "),
        ("bad_score", EXIT_PARSE, "row 2 (t0, t0_d1): predicted_score 'x'"),
        ("duplicate_row", EXIT_PARSE, "rows 1 and 3 both list (t0, t0_d0)"),
        ("missing_native", EXIT_MISSING_INPUT, "missing native file "),
        ("missing_decoy", EXIT_MISSING_INPUT, "missing decoy file "),
        ("no_train_pairs", EXIT_EMPTY_DATASET, "no *_decoy.pdb pairs in "),
    ])
    def test_commands_raise_and_the_table_picks_the_code(self, tmp_path, rng,
                                                         capsys, site, code,
                                                         message):
        # a command returns nothing; its failure is an error whose type
        # alone gives the exit code, and nothing is printed before main
        if site == "unreadable_weights":
            args = successful_run(tmp_path, rng, "refine")
            args[args.index("--weights") + 1] = str(tmp_path / "none.weights")
        elif site == "no_train_pairs":
            args = successful_run(tmp_path, rng, "train")
            args[args.index("--train-dir") + 1] = str(tmp_path)
        else:
            args = successful_run(tmp_path, rng, "evaluate")
            scores = Path(args[args.index("--scores") + 1])
            natives = Path(args[args.index("--natives") + 1])
            decoys = Path(args[args.index("--decoys") + 1])
            header, *rows = scores.read_text().splitlines()
            if site == "unreadable_scores":
                scores.unlink()
            elif site == "undecodable_scores":
                scores.write_bytes(b"target,decoy,predicted_score\nt\xff,x,1\n")
            elif site == "missing_native":
                (natives / "t0.pdb").unlink()
            elif site == "missing_decoy":
                (decoys / "t0_d1.pdb").unlink()
            else:
                scores.write_text({
                    "no_rows": header,
                    "no_score_column": "target,decoy\nt0,t0_d0",
                    "bad_score": "\n".join([header, rows[0], "t0,t0_d1,x"]),
                    "duplicate_row": "\n".join([header, *rows, "t0,t0_d0,0.5"]),
                }[site] + "\n")
        parsed = build_parser().parse_args(args)
        with pytest.raises(tuple(EXIT_CODES)) as info:
            parsed.func(parsed)
        assert exit_code(info.type) == code
        assert message in str(info.value)
        assert capsys.readouterr().err == ""
        assert main(args) == code
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_run_too_large_for_memory_exits_2(self, tmp_path, rng):
        # the first parameter block, 39 x 10**13 float64 values (2.8 PiB),
        # is larger than a process's address space (128 TiB on x86-64
        # Linux), so its allocation fails at once whatever the overcommit
        # policy, before any memory is touched
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**BASE_CONFIG, "hidden_dim": 10**13}))
        run = subprocess.run(
            [sys.executable, "-m", "equiref.cli", "train", "--config", str(config),
             "--train-dir", str(train_dir), "--out-weights", str(tmp_path / "w")],
            env=child_env(PYTHONWARNINGS="default"), capture_output=True, text=True,
        )
        assert run.returncode == EXIT_PARSE
        assert run.stderr.startswith("error: ")
        assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n")
        assert not (tmp_path / "w").exists()

    def test_run_beyond_any_array_size_exits_2(self, tmp_path, rng):
        # the first parameter block, 39 x 10**18 float64 values, has more
        # bytes than numpy's array size type holds, so numpy refuses it with
        # a ValueError before any allocation is tried
        train_dir = training_fixture(tmp_path, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**BASE_CONFIG, "hidden_dim": 10**18,
                                      "max_epochs": 1}))
        run = subprocess.run(
            [sys.executable, "-m", "equiref.cli", "train", "--config", str(config),
             "--train-dir", str(train_dir), "--out-weights", str(tmp_path / "w")],
            env=child_env(PYTHONWARNINGS="default"), capture_output=True, text=True,
        )
        assert run.returncode == EXIT_PARSE
        assert run.stderr.startswith("error: ") and "embed.weight" in run.stderr
        assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n")
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_overflowing_refine_prints_only_the_error_line(self, tmp_path, iterations):
        # the coordinate gate's bias overflows sums inside the first pass
        # and moves atoms beyond what a PDB field holds; the unwritable
        # coordinate is the one report, with no numpy warning before it. A
        # second pass builds its graph on those coordinates, whose squared
        # span overflows; the graph refuses them instead of searching on
        config = ModelConfig(num_layers=1, hidden_dim=8)
        params = init_params(config)
        params["layers.0.coord_mlp.b2"][...] = 1e308
        weights = tmp_path / "overflow.weights"
        weights.write_bytes(save_weights(params, config))
        source = tmp_path / "input.pdb"
        source.write_text(write_pdb(make_complex()))
        run = subprocess.run(
            [sys.executable, "-m", "equiref.cli", "refine", "--input", str(source),
             "--weights", str(weights), "--output", str(tmp_path / "o.pdb"),
             "--report", str(tmp_path / "r.json"), "--iterations", str(iterations)],
            env=child_env(PYTHONWARNINGS="default"), capture_output=True, text=True,
            timeout=120,
        )
        assert run.returncode == EXIT_PARSE
        assert run.stderr.startswith("error: ") and "coordinate" in run.stderr
        assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n")
        assert len(run.stderr) < 100  # the huge coordinate in short form
        assert not (tmp_path / "o.pdb").exists()

    @pytest.mark.parametrize("command, option", [
        ("refine", "--output"), ("refine", "--report"), ("score", "--report"),
        ("evaluate", "--summary"), ("evaluate", "--details"),
        ("train", "--out-weights"), ("train", "--log"),
    ])
    def test_unwritable_output_exits_2(self, tmp_path, rng, capsys, monkeypatch,
                                       command, option):
        # every output's directory is checked before the work and the
        # first write, so a failed run trains nothing and writes nothing
        import equiref.train as train

        args = successful_run(tmp_path, rng, command)
        assert main(args) == EXIT_OK
        outputs = [Path(args[i + 1]) for i, arg in enumerate(args)
                   if arg in ("--output", "--report", "--summary", "--details",
                              "--out-weights", "--log")]
        for path in outputs:
            path.unlink()
        steps = []
        taped_step = train.backward

        def counted_step(*step_args, **kwargs):
            steps.append(step_args)
            return taped_step(*step_args, **kwargs)

        monkeypatch.setattr(train, "backward", counted_step)
        missing = str(tmp_path / "missing" / "out")
        args[args.index(option) + 1] = missing
        assert main(args) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err
        assert steps == []
        assert not any(path.exists() for path in outputs)
