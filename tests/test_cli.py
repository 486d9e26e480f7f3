import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equiref.cli import (
    ABLATIONS,
    EXIT_DIVERGED,
    EXIT_EMPTY_DATASET,
    EXIT_MISSING_INPUT,
    EXIT_NO_INTERFACE,
    EXIT_NO_OVERLAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_WEIGHTS,
    MODEL_KEYS,
    RunConfig,
    main,
    worker_count,
)
from equiref.metrics import format_mean_std, score_pair
from equiref.model import (
    ModelConfig,
    init_params,
    load_container,
    load_weights,
    save_weights,
)
from equiref.structio import parse_pdb_file, write_pdb

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

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].update(num_layers=0),
        lambda h: h["config"].update(num_layers="2"),
        lambda h: h["config"].update(granularity="bogus"),
        lambda h: h["config"].update(node_feat_dim=12, edge_feat_dim=15),
        lambda h: h.pop("config"),
        lambda h: h.update(config=[2, 8]),
        lambda h: h.pop("blocks"),
        lambda h: h["blocks"][0].pop("shape"),
    ], ids=[
        "invalid_value", "value_type", "bogus_granularity",
        "mismatched_stored_widths", "no_config", "config_not_object",
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


class TestScore:
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
            parse_pdb_file(decoy_pdb), parse_pdb_file(input_pdb)
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
    def test_divergence_exits_7_and_keeps_last_good_weights(self, tmp_path, rng):
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
        params, _, _, meta = load_container(out.read_bytes())
        assert meta == {"diverged": True}
        assert all(np.all(np.isfinite(v)) for v in params.values())

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


class TestRunConfig:
    def load(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return RunConfig.from_file(path)

    def test_empty_object_gives_defaults(self, tmp_path):
        assert self.load(tmp_path, {}) == (RunConfig(), ModelConfig())

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
