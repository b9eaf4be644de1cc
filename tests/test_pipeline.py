import json
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import csv_module_write
from qpcmv import artifacts
from qpcmv.cli import main
from qpcmv.errors import QpcmvError
from qpcmv.pipeline import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    _Report,
    most_localized,
    run,
)
from qpcmv.sampling import VerblunskySequence


def small_free_config(**over):
    d = {
        "schema": CONFIG_SCHEMA,
        "scenario": "free",
        "seed": 11,
        "cmv_n": 60,
        "z_grid": 64,
        "lipschitz_samples": 2000,
    }
    d.update(over)
    return ExperimentConfig.from_dict(d)


def test_config_roundtrip():
    cfg = small_free_config()
    echo = cfg.to_dict()
    cfg2 = ExperimentConfig.from_dict(echo)
    assert cfg2 == cfg


def test_config_rejects_bad_schema():
    with pytest.raises(QpcmvError):
        ExperimentConfig.from_dict({"schema": "nope", "scenario": "free"})
    with pytest.raises(QpcmvError):
        ExperimentConfig.from_dict({"schema": CONFIG_SCHEMA, "scenario": "x"})


@pytest.mark.parametrize("name", ["k_list", "free_q_list", "omega"])
def test_config_rejects_an_empty_list(name):
    # an empty k_list once recorded gordon=PASS from zero levels
    with pytest.raises(QpcmvError, match=f"{name!r} must not be empty"):
        ExperimentConfig.from_dict(
            {"schema": CONFIG_SCHEMA, "scenario": "free", name: []})


def test_free_run_passes(tmp_path):
    doc, code = run(small_free_config(), tmp_path)
    assert code == 0
    assert doc["overall"] == "PASS"
    assert doc["verdicts"]["evidence"] == "PASS"
    assert doc["verdicts"]["gordon"] == "PASS"
    assert doc["verdicts"]["profile"] == "PASS"
    for name in ("report.json", "timings.json", "verblunsky.csv",
                 "evidence.csv", "eigenvalues.csv", "profile.csv",
                 "matrix.txt", "gordon.json"):
        assert (tmp_path / name).exists()


def test_free_run_deterministic_bytes(tmp_path):
    run(small_free_config(), tmp_path / "a")
    run(small_free_config(), tmp_path / "b")
    for name in ("report.json", "verblunsky.csv", "evidence.csv",
                 "eigenvalues.csv", "gordon.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


@pytest.mark.parametrize("name", ["free.json", "impurity_control.json",
                                  "liouville_rotation.json"])
def test_shipped_config_runs_repeat_byte_for_byte(tmp_path, name):
    # every artifact of a shipped config, run twice, timings aside
    configs = Path(__file__).resolve().parents[1] / "configs"
    for out in ("a", "b"):
        run(ExperimentConfig.from_file(configs / name), tmp_path / out)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "report.json" in names and "verblunsky.csv" in names
    for n in names:
        if n != "timings.json":
            assert (tmp_path / "a" / n).read_bytes() == (
                tmp_path / "b" / n).read_bytes(), n


def test_config_echo_reruns_to_same_verdict(tmp_path):
    doc, _ = run(small_free_config(), tmp_path / "a")
    echoed = ExperimentConfig.from_dict(doc["config"])
    doc2, _ = run(echoed, tmp_path / "b")
    assert doc2["verdicts"] == doc["verdicts"]
    assert doc2["overall"] == doc["overall"]


def test_liouville_run_passes(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "schema": CONFIG_SCHEMA,
            "scenario": "liouville-rotation",
            "seed": 11,
            "cmv_n": 60,
            "z_grid": 64,
            "lipschitz_samples": 2000,
        }
    )
    doc, code = run(cfg, tmp_path)
    assert code == 0
    assert doc["verdicts"]["gordon"] == "PASS"
    assert doc["verdicts"]["evidence"] == "PASS"
    assert (tmp_path / "frequency.csv").exists()
    assert (tmp_path / "orbit.json").exists()
    periods = doc["stages"]["repetition"]["periods"]
    assert set(periods) == {"1", "2", "3"}
    # the Liouville frequency, sum of 2^-(n!) for n <= 4, has denominator
    # 2^24; the common denominator adds those of 10 epsilon and the radius
    bits = doc["stages"]["sampling"]["denominator_bits"]
    assert bits == {"1": 28, "2": 28, "3": 34}


def test_report_names_the_repetition_validation_mode(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {"schema": CONFIG_SCHEMA, "scenario": "liouville-rotation",
         "seed": 11, "cmv_n": 60, "z_grid": 64, "lipschitz_samples": 2000}
    )
    doc, _ = run(cfg, tmp_path)
    validated = doc["stages"]["repetition"]["validated"]
    # the windows (s q <= 16) are far below the full-scan cap
    assert validated == {"1": "full-scan", "2": "full-scan", "3": "full-scan"}
    orbit = json.loads((tmp_path / "orbit.json").read_text())
    assert validated == {str(c["k"]): c["validated"]
                         for c in orbit["certificates"]}


def test_impurity_run_fails_evidence(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "schema": CONFIG_SCHEMA,
            "scenario": "impurity-control",
            "seed": 11,
            "cmv_n": 120,
            "z_grid": 64,
            "lipschitz_samples": 2000,
        }
    )
    doc, code = run(cfg, tmp_path)
    assert code == 2
    assert doc["verdicts"]["evidence"] == "FAIL"
    assert doc["verdicts"]["evidence-negative-control"] == "PASS"
    assert doc["verdicts"]["gordon-negative-control"] == "PASS"
    ev = json.loads((tmp_path / "evidence.json").read_text())
    assert ev["min_c"] < 0.25


def test_evidence_reports_worst_block_norm(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "schema": CONFIG_SCHEMA,
            "scenario": "liouville-rotation",
            "seed": 11,
            "cmv_n": 60,
            "z_grid": 64,
            "lipschitz_samples": 2000,
        }
    )
    doc, _ = run(cfg, tmp_path)
    worst = doc["stages"]["evidence"]["max_log10_norm"]
    rows = (tmp_path / "evidence.csv").read_text().splitlines()[2:]
    norms = [float(x) for row in rows for x in row.split(",")[2:]]
    assert worst == float(np.log10(max(norms))) > 0
    ev = json.loads((tmp_path / "evidence.json").read_text())
    assert ev["max_log10_norm"] == worst


def test_cli_gordon_reports_worst_block_norm(tmp_path):
    seq_file = tmp_path / "seq.csv"
    VerblunskySequence.constant(0.5, -20, 20).to_csv(seq_file, seed=0)
    rc = main(
        ["gordon", "--seq-file", str(seq_file), "--k-list", "1:4",
         "--z-grid", "32", "--out", str(tmp_path)]
    )
    assert rc == 0
    ev = json.loads((tmp_path / "gordon.json").read_text())["evidence"]
    rows = (tmp_path / "evidence.csv").read_text().splitlines()[2:]
    norms = [float(x) for row in rows for x in row.split(",")[2:]]
    assert ev["max_log10_norm"] == float(np.log10(max(norms)))


def test_cli_gordon_with_no_finite_row(tmp_path, capsys):
    # a q = 3000 periodic window overflows on every row: the summary and
    # gordon.json must say so without an infinity, which JSON cannot hold
    q = 3000
    cell = 0.5 * np.exp(2j * np.pi * np.random.default_rng(q).random(q))
    seq_file = tmp_path / "seq.csv"
    VerblunskySequence(-q, 2 * q, np.tile(cell, 4)[: 3 * q + 1]).to_csv(
        seq_file, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["gordon", "--seq-file", str(seq_file), "--k-list", "1:2",
                   "--q", str(q), "--z-grid", "64", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.endswith(
        "; evidence FAIL (min c = none finite)\n")
    ev = json.loads((tmp_path / "gordon.json").read_text())["evidence"]
    assert (ev["verdict"], ev["nonfinite_rows"]) == ("FAIL", 64)
    assert ev["min_c"] is ev["argmin_angle"] is ev["max_log10_norm"] is None


def test_write_json_refuses_nan_and_infinity(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            artifacts.write_json(tmp_path / "x.json", {"min_c": bad})


def test_impurity_bound_state_is_the_negative_angle_of_its_pair(tmp_path):
    # real coefficients: the bound state is a conjugate pair +-theta of
    # equal participation ratio; the pick is the smaller angle
    cfg = ExperimentConfig.from_file(
        Path(__file__).resolve().parents[1] / "configs" / "impurity_control.json"
    )
    cfg.z_grid = 64
    cfg.lipschitz_samples = 2000
    doc, _ = run(cfg, tmp_path)
    st = doc["stages"]["cmv"]
    assert st["bound_state_angle"] == pytest.approx(-0.0942895189762513, abs=1e-12)
    assert st["bound_state_pr"] == pytest.approx(4.013422818791947, rel=1e-12)


def test_cmv_stage_reports_solver_health(tmp_path):
    doc, _ = run(small_free_config(), tmp_path)
    st = doc["stages"]["cmv"]
    assert st["eig_fallback"] is False
    rows = (tmp_path / "eigenvalues.csv").read_text().splitlines()[2:]
    assert st["max_residual"] == max(float(r.split(",")[1]) for r in rows)
    assert 0.0 < st["max_residual"] <= 1e-10


def test_most_localized_ignores_last_bit_of_a_conjugate_pair():
    # a conjugate pair +-theta has the same participation ratio up to
    # rounding; which of the two the solver rounds lower must not matter
    pr = 4.013422818791947
    angles = np.array([-1.0, -0.0942895189762513, 0.0942895189762513, 0.5])
    for a, b in ((pr, np.nextafter(pr, 5.0)), (np.nextafter(pr, 5.0), pr)):
        prs = np.array([6.0, a, b, 9.0])
        assert most_localized(prs, angles, range(4)) == 1
        assert most_localized(prs, angles, [2, 3]) == 2
    # a real difference still decides
    prs = np.array([6.0, pr * (1 + 1e-6), pr, 9.0])
    assert most_localized(prs, angles, range(4)) == 2


def test_stage_reuses_its_dict_and_records_failures(tmp_path):
    rep = _Report(small_free_config(), tmp_path)
    with rep.stage("a") as st:
        st["x"] = 1
    with rep.stage("a") as again:
        assert again is st
    with pytest.raises(QpcmvError):
        with rep.stage("b"):
            raise QpcmvError("boom")
    assert rep.stages == {
        "a": {"status": "ok", "artifacts": [], "x": 1},
        "b": {"status": "failed", "artifacts": [], "error": "QpcmvError: boom"},
    }
    assert rep.failure == "b"
    assert set(rep.timings) == {"a", "b"}
    doc, code = rep.finalize()
    assert (doc["overall"], code) == ("ERROR", 1)


def test_failed_stage_keeps_earlier_artifacts(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "schema": CONFIG_SCHEMA, "scenario": "liouville-rotation",
        "repetition_q_max": 2, "cmv_n": 60, "z_grid": 64,
        "lipschitz_samples": 1000,
    })
    doc, code = run(cfg, tmp_path)
    assert (code, doc["overall"]) == (1, "ERROR")
    assert doc["stages"]["frequency"]["status"] == "ok"
    rep = doc["stages"]["repetition"]
    assert rep["status"] == "failed"
    assert rep["error"] == "QpcmvError: no even repetition time at level 3"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "frequency.csv", "frequency.json", "report.json", "timings.json"]
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert set(timings["stages"]) == {"frequency", "repetition"}


def test_malformed_omega_fails_the_repetition_stage(tmp_path):
    # omega is parsed inside the stage, so the run still writes its report
    cfg = ExperimentConfig.from_dict({
        "schema": CONFIG_SCHEMA, "scenario": "liouville-rotation",
        "omega": ["1/0"],
    })
    doc, code = run(cfg, tmp_path)
    assert (code, doc["overall"]) == (1, "ERROR")
    assert doc["stages"]["repetition"]["error"] == (
        "DomainError: zero denominator in '1/0'")
    assert (tmp_path / "report.json").is_file()


def test_report_carries_seed_and_version(tmp_path):
    doc, _ = run(small_free_config(seed=99), tmp_path)
    assert doc["seed"] == 99
    assert doc["tool_version"]
    for name in ("verblunsky.csv", "evidence.csv", "eigenvalues.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first.startswith("# seed=99")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_frequency(tmp_path, capsys):
    rc = main(
        ["frequency", "--liouville", "2,4", "--max-q", "100",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "frequency.json").read_text())
    assert doc["designated_denominators"] == [2, 4, 64, 16777216]
    rows = (tmp_path / "frequency.csv").read_text().splitlines()
    assert rows[1] == "q,p,q_dist"


def test_cli_orbit_golden(tmp_path):
    rc = main(
        ["orbit", "--system", "rotation", "--freq", "golden",
         "--omega", "0", "--epsilon", "1/100", "--qmax", "200",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert doc["q"] == 144
    lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert len(lines) == 2 + 4 * 144 + 1  # comment, header, window rows


def test_cli_sample_and_gordon_and_cmv(tmp_path):
    rc = main(
        ["sample", "--family", "constant", "--params", "0.0,0.0",
         "--freq", "golden", "--omega", "0", "--window=-40:40",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    seq_file = tmp_path / "verblunsky.csv"
    seq = VerblunskySequence.from_csv(seq_file)
    assert np.all(seq.values == 0)

    rc = main(
        ["gordon", "--seq-file", str(seq_file), "--k-list", "1:2,2:4",
         "--z-grid", "32", "--out", str(tmp_path),
         "--report", str(tmp_path / "rep.json")]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["all_passed"] is True
    assert rep["evidence"]["verdict"] == "PASS"

    rc = main(
        ["cmv", "--seq-file", str(seq_file), "--window=-20:19",
         "--eig", "--profile", "all", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "matrix.txt").exists()
    assert (tmp_path / "eigenvalues.csv").exists()
    assert (tmp_path / "profile.csv").exists()


def test_cli_construct_ck(tmp_path):
    spec = {
        "freq": "golden",
        "system": "rotation",
        "center": ["0"],
        "period": 2,
        "radius": "auto",
        "epsilon": "1/2",
        "values": [[0.5, 0.0], [0.0, 0.5]],
    }
    spec_path = tmp_path / "tubes.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(
        ["sample", "--construct-ck", str(spec_path), "--window=-4:6",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    seq = VerblunskySequence.from_csv(tmp_path / "verblunsky.csv")
    # the window starts on the designated orbit point: 2-periodic there
    for n in range(-3, 5):
        assert seq.alpha(n) == seq.alpha(n + 2)


def test_cli_run_exit_codes(tmp_path):
    cfg = {
        "schema": CONFIG_SCHEMA,
        "scenario": "free",
        "cmv_n": 60,
        "z_grid": 32,
        "lipschitz_samples": 1000,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["exit_code"] == 0


def test_cli_main_calls_share_the_parser_not_the_arguments(tmp_path, capsys):
    # the parser is built once per process; each call still sees only its
    # own argv and the defaults, whatever the call before it set
    from qpcmv import cli

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["frequency", "--liouville", "2,4", "--max-q", "50",
                 "--seed", "7", "--out", str(a)]) == 0
    assert main(["orbit", "--freq", "golden", "--qmax", "200",
                 "--out", str(b)]) == 0
    assert main(["frequency", "--value", "golden", "--out", str(c)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "over q<=50;" in lines[0] and "over q<=1000;" in lines[2]
    docs = [json.loads(p.read_text()) for p in
            (a / "frequency.json", b / "orbit.json", c / "frequency.json")]
    assert [d["seed"] for d in docs] == [7, 20240601, 20240601]
    assert docs[0]["designated_denominators"] == [2, 4, 64, 16777216]
    assert docs[2]["partial_quotients"][:3] == [1, 1, 1]  # golden, not 2,4
    assert cli._build_parser() is cli._build_parser()


def test_cli_error_paths(tmp_path, capsys):
    rc = main(["frequency", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gordon", "cmv"])
def test_cli_rejects_header_only_coefficient_csv(tmp_path, capsys, command):
    seq_file = tmp_path / "verblunsky.csv"
    seq_file.write_text("# seed=1\nn,re_alpha,im_alpha\n")
    rc = main([command, "--seq-file", str(seq_file), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no rows" in err


FREE = {"schema": CONFIG_SCHEMA, "scenario": "free"}


@pytest.mark.parametrize(
    "config,message",
    [
        ({"schema": CONFIG_SCHEMA, "seed": 3}, "lacks scenario"),
        ([{"schema": CONFIG_SCHEMA, "scenario": "free"}], "JSON object"),
        ("free", "JSON object"),
        (FREE | {"boundary": 1}, "'boundary' must be"),
        (FREE | {"k_list": 5}, "'k_list' must be"),
        (FREE | {"seed": None}, "'seed' must be int, got null"),
        (FREE | {"omega": "1/3"}, "'omega' must be"),
        (FREE | {"z_gird": 64}, "unknown config field(s): z_gird"),
        (FREE | {"evidence_threshold": 0.25}, "evidence_threshold"),
        # a second coordinate was once dropped without a word
        ({**FREE, "scenario": "liouville-rotation", "omega": ["0", "1/3"]},
         "'omega' must be tuple[str], got [\"0\", \"1/3\"]"),
        # json reads NaN and Infinity; a NaN impurity once wrote a NaN
        # coefficient row and ended without a report
        ({**FREE, "scenario": "impurity-control",
          "impurity_value": [math.nan, 0.0]},
         "config field 'impurity_value' must be"),
        (FREE | {"lipschitz_r": math.inf},
         "config field 'lipschitz_r' must be"),
        # the exact rationals once failed in the repetition stage, after
        # the frequency stage had run, with a message naming no field
        ({**FREE, "scenario": "liouville-rotation", "omega": ["nan"]},
         "config field 'omega' expects P/Q or a decimal, got 'nan'"),
        ({**FREE, "scenario": "liouville-rotation", "omega": ["inf"]},
         "config field 'omega' expects P/Q or a decimal, got 'inf'"),
        ({**FREE, "scenario": "liouville-rotation", "window_factor": "nan"},
         "config field 'window_factor' expects P/Q or a decimal, got 'nan'"),
    ],
    ids=["no-scenario", "list", "string", "boundary-number", "k_list-number",
         "seed-null", "omega-string", "unknown-key", "retired-key",
         "omega-two-coordinates", "impurity-value-nan", "lipschitz-r-infinity",
         "omega-nan", "omega-infinity", "window-factor-nan"],
)
def test_cli_run_rejects_malformed_config(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    # no stage ran
    assert not (tmp_path / "o").exists()
    with pytest.raises(QpcmvError):
        ExperimentConfig.from_dict(config)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("free_value", [1.0, 0.0], "alpha(-101) = (1+0j)"),
        ("impurity_value", [1.5, 0.0], "alpha(0) = (1.5+0j)"),
        ("impurity_background", [1.0, 0.0], "alpha(-102) = (1+0j)"),
    ],
)
def test_cli_run_reports_a_window_outside_the_disk(tmp_path, capsys, field,
                                                    value, message):
    # a well-formed coefficient outside the open unit disk fails the
    # sampling stage, which builds the window, and the run writes its report
    scenario = "free" if field == "free_value" else "impurity-control"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FREE, "scenario": scenario,
                                    field: value}))
    out = tmp_path / "o"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    error = (f"InvariantViolation: {message} does not lie in the open "
             f"unit disk")
    assert capsys.readouterr().err == f"error: sampling stage: {error}\n"
    doc = json.loads((out / "report.json").read_text())
    assert (doc["overall"], doc["exit_code"]) == ("ERROR", 1)
    # no later stage ran
    assert doc["stages"] == {
        "sampling": {"status": "failed", "artifacts": [], "error": error}}
    assert doc["verdicts"] == {}
    assert sorted(p.name for p in out.iterdir()) == ["report.json",
                                                     "timings.json"]


@pytest.mark.parametrize("index", ["10", "99", "-1"])
def test_cli_cmv_rejects_profile_index_outside_window(tmp_path, capsys, index):
    seq_file = tmp_path / "verblunsky.csv"
    VerblunskySequence.constant(0.3, -10, 10).to_csv(seq_file, seed=0)
    rc = main(["cmv", "--seq-file", str(seq_file), "--window=-5:4",
               "--profile", index, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[0, 10)" in err
    assert not (tmp_path / "o" / "profile.csv").exists()


def test_cli_and_run_write_the_same_tables(tmp_path):
    # one writer per table: the CLI reproduces a scenario's files
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = ExperimentConfig.from_file(configs / "liouville_rotation.json")
    cfg.z_grid, cfg.lipschitz_samples, cfg.cmv_n = 64, 1000, 60
    run(cfg, tmp_path / "liouville")
    rc = main(["frequency", "--liouville", "2,4", "--max-q", "1000",
               "--seed", str(cfg.seed), "--out", str(tmp_path / "cli-freq")])
    assert rc == 0
    assert (tmp_path / "cli-freq" / "frequency.csv").read_bytes() == (
        tmp_path / "liouville" / "frequency.csv").read_bytes()

    cfg = ExperimentConfig.from_file(configs / "free.json")
    cfg.z_grid, cfg.lipschitz_samples = 64, 1000
    assert cfg.cmv_n == 200
    run(cfg, tmp_path / "free")
    rc = main(["cmv", "--seq-file", str(tmp_path / "free" / "verblunsky.csv"),
               "--window=-100:99", "--eig", "--seed", str(cfg.seed),
               "--out", str(tmp_path / "cli-cmv")])
    assert rc == 0
    for name in ("eigenvalues.csv", "matrix.txt"):
        assert (tmp_path / "cli-cmv" / name).read_bytes() == (
            tmp_path / "free" / name).read_bytes(), name


def test_tables_are_the_csv_module_bytes(tmp_path, monkeypatch):
    # write_csv joins each row itself in one write; every table of a run
    # (frequency, orbit, evidence, verblunsky, eigenvalues, profile) is
    # byte for byte what the csv module writes from the same rows
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = ExperimentConfig.from_file(configs / "liouville_rotation.json")
    cfg.z_grid, cfg.lipschitz_samples, cfg.cmv_n = 64, 1000, 60
    run(cfg, tmp_path / "joined")
    monkeypatch.setattr(artifacts, "write_csv", csv_module_write)
    run(cfg, tmp_path / "csv")
    names = sorted(p.name for p in (tmp_path / "joined").glob("*.csv"))
    assert names == ["eigenvalues.csv", "evidence.csv", "frequency.csv",
                     "orbit.csv", "profile.csv", "verblunsky.csv"]
    for name in names:
        assert (tmp_path / "joined" / name).read_bytes() == (
            tmp_path / "csv" / name).read_bytes(), name


GOOD_SPEC = {
    "freq": "golden",
    "system": "skew",
    "center": ["0", "1/4"],
    "period": 2,
    "radius": "auto",
    "epsilon": "1/10",
    "values": [[0.5, 0.0], [0.0, 0.5]],
}


@pytest.mark.parametrize(
    "spec,message",
    [
        ({k: v for k, v in GOOD_SPEC.items() if k != "period"}, "period"),
        ({**GOOD_SPEC, "values": [[0.1], [0.0, 0.5]]}, "[re, im]"),
        ([GOOD_SPEC], "JSON object"),
        ({**GOOD_SPEC, "center": ["0"]}, "2 coordinates"),
        ({**GOOD_SPEC, "period": "2"}, "period"),
        ({**GOOD_SPEC, "system": "shift"}, "rotation or skew"),
        ({**GOOD_SPEC, "period": 0}, "period must be an integer >= 1, got 0"),
        ({**GOOD_SPEC, "center": []}, "'center' must not be empty"),
        ({**GOOD_SPEC, "center": [None, "0"]}, "'center' must be"),
        ({**GOOD_SPEC, "freq": ["golden"]}, "'freq' must be"),
        ({k: v for k, v in GOOD_SPEC.items() if k != "epsilon"}, "epsilon"),
        ({**GOOD_SPEC, "periods": 2}, "unknown construct spec field(s)"),
        # a NaN value once wrote a window of NaN rows with exit 0
        ({**GOOD_SPEC, "values": [[math.nan, 0.0], [0.0, 0.5]]},
         "construct spec field 'values' must be"),
    ],
)
def test_cli_construct_ck_rejects_bad_spec(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "tubes.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["sample", "--construct-ck", str(spec_path), "--window=-4:6",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "verblunsky.csv").exists()


def test_cli_construct_ck_reads_numbers_as_rationals(tmp_path):
    # a rational given as a JSON number is read from its text, as a string
    spec = {k: v for k, v in GOOD_SPEC.items() if k != "epsilon"}
    spec |= {"system": "rotation", "center": [0.25], "radius": 0.001}
    runs = [spec, {**spec, "center": ["0.25"], "radius": "0.001"}]
    for i, s in enumerate(runs):
        (tmp_path / f"{i}.json").write_text(json.dumps(s))
        assert main(["sample", "--construct-ck", str(tmp_path / f"{i}.json"),
                     "--window=-4:6", "--out", str(tmp_path / str(i))]) == 0
    assert (tmp_path / "0" / "verblunsky.csv").read_bytes() == (
        tmp_path / "1" / "verblunsky.csv").read_bytes()


def test_cli_construct_ck_skew(tmp_path):
    spec_path = tmp_path / "tubes.json"
    spec_path.write_text(json.dumps(GOOD_SPEC))
    rc = main(["sample", "--construct-ck", str(spec_path), "--window=-4:7",
               "--out", str(tmp_path)])
    assert rc == 0
    seq = VerblunskySequence.from_csv(tmp_path / "verblunsky.csv")
    for n in range(-3, 5):
        assert seq.alpha(n) == seq.alpha(n + 2)
