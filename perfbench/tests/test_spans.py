"""Self-tests of the benchmark: span nesting, self time, computed counts,
seeded inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qpcmv.cli
import qpcmv.sampling as sampling
import spans
import workloads
import worker
from qpcmv.dynamics import Rotation, SkewShift, TorusPoint
from qpcmv.frequency import golden_mean
from qpcmv.sampling import VerblunskySequence

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Self-time arithmetic on a synthetic span tree
# ---------------------------------------------------------------------------


def _span(i, start, end, parent=None):
    return spans.Span(i, f"s{i}", start, end, parent, 0)


def test_self_time_synthetic_tree():
    #  root [0, 10]
    #    a [1, 4]      b [5, 9]
    #      a1 [2, 3]     b1 [5, 6]  b2 [7, 9]
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, 0),
        _span(2, 2.0, 3.0, 1),
        _span(3, 5.0, 9.0, 0),
        _span(4, 5.0, 6.0, 3),
        _span(5, 7.0, 9.0, 3),
    ]
    st = spans.self_times(tree)
    assert st == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 2.0}
    # self times partition the root interval
    assert sum(st.values()) == pytest.approx(10.0)


def test_pass_metrics_self_time_and_totals():
    tr = spans.Tracer()
    tr.spans = [
        spans.Span(0, "cli.main.run", 0.0, 10.0, None, 1),
        spans.Span(1, "pipeline.run", 1.0, 9.0, 0, 1),
        spans.Span(2, "cmv.spectrum", 2.0, 5.0, 1, 1),
        spans.Span(3, "cmv.spectrum", 6.0, 7.0, 1, 1),
    ]
    tr.add("transfer.evidence.rows", 4)
    tr.add("transfer.evidence.nonfinite_rows", 1)
    m = spans.pass_metrics(tr)
    assert m["cli.main.self_s.run"] == pytest.approx(2.0)
    assert m["pipeline.run.s"] == pytest.approx(8.0)
    assert m["pipeline.run.self_s"] == pytest.approx(4.0)
    assert m["cmv.spectrum.s"] == pytest.approx(4.0)
    assert m["transfer.evidence.finite_ratio"] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Computed counts against hand-worked small cases
# ---------------------------------------------------------------------------


def test_pair_checks_hand_worked():
    # rotation, d = 1: offsets {-r, +r, 0}, 9 differences, gaps 1..4 plus
    # the 25 tube shifts
    assert spans.verify_ball_pair_checks(True, 1, 1, 8) == (4 + 25) * 9
    # skew, grid 2: 4*2 boundary offsets + centre = 9 samples per ball;
    # C(5, 2) ball pairs * 81 + one tube of 45 samples, C(45, 2) pairs
    assert spans.verify_ball_pair_checks(False, 2, 1, 2) == 10 * 81 + 990


@pytest.mark.parametrize("dim,grid", [(1, 8), (2, 1), (2, 2), (2, 8)])
def test_offset_count_matches_sampling(dim, grid):
    offs = sampling._boundary_offsets(dim, Fraction(1, 100), grid)
    assert spans.boundary_offset_count(dim, grid) == len(offs) + 1


def _count_calls(monkeypatch, owner, attr):
    calls = []
    orig = getattr(owner, attr)

    def counting(*a, **k):
        calls.append(1)
        return orig(*a, **k)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def test_pair_checks_match_observed_rotation(monkeypatch):
    system = Rotation([golden_mean(bits=64).value])
    calls = _count_calls(monkeypatch, sampling, "dist_to_int")
    assert sampling.verify_ball(system, TorusPoint.exact(0), 2, "1/10",
                                Fraction(1, 1000))
    # one dist_to_int per coordinate per check, d = 1
    assert len(calls) == spans.verify_ball_pair_checks(True, 1, 2, 8)


def test_pair_checks_match_observed_skew(monkeypatch):
    system = SkewShift(golden_mean(bits=64).value)
    calls = _count_calls(monkeypatch, TorusPoint, "dist")
    assert sampling.verify_ball(system, TorusPoint.exact(0, 0), 1, "1/10",
                                Fraction(1, 10**6), grid=2)
    assert len(calls) == spans.verify_ball_pair_checks(False, 2, 1, 2)


def test_min_max_evals_hand_worked():
    # 2 batch elements x 3 blocks x 4^2 grid points x 2 rounds
    assert spans.min_max_evals(2, 3, 4, 2) == 192


def test_dense_bytes_matches_operator_arrays():
    assert spans.cmv_dense_bytes(2) == 3 * 16 * 4
    seq = VerblunskySequence.constant(0.3, -3, 3)
    op = qpcmv.cmv.assemble(seq, -2, 1)
    held = op.matrix.nbytes + op.factor_left.nbytes + op.factor_right.nbytes
    assert spans.cmv_dense_bytes(op.size) == held


# ---------------------------------------------------------------------------
# Spans nest and cover every step of a pass
# ---------------------------------------------------------------------------


def _small_workload(tmp_path):
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    cfg = json.loads((ROOT / "configs" / "free.json").read_text())
    cfg.update(cmv_n=16, z_grid=8, lipschitz_samples=100)
    (inp / "free.json").write_text(json.dumps(cfg))
    n_min, vals = workloads.periodic_window(random.Random(5), 4, 0.5)
    workloads.write_window(inp / "p4.csv", n_min, vals, seed=5)
    steps = [
        workloads.Step("frequency", ["frequency", "--value", "golden",
                                     "--max-q", "100", "--out", str(out / "f")]),
        workloads.Step("orbit", ["orbit", "--freq", "golden", "--epsilon", "1/10",
                                 "--out", str(out / "o")]),
        workloads.Step("sample", ["sample", "--family", "constant",
                                  "--params", "0.2,0", "--window=-8:7",
                                  "--out", str(out / "s")]),
        workloads.Step("cmv", ["cmv", "--seq-file", str(out / "s" / "verblunsky.csv"),
                               "--window=-8:7", "--eig", "--profile", "all",
                               "--out", str(out / "c")]),
        workloads.Step("gordon", ["gordon", "--seq-file", str(inp / "p4.csv"),
                                  "--k-list", "1:4", "--z-grid", "8",
                                  "--out", str(out / "g")]),
        workloads.Step("run", ["run", "--config", str(inp / "free.json"),
                               "--out", str(out / "r")]),
    ]
    return workloads.Workload("small", {}, steps, lambda r, o: [])


def test_spans_nest_and_cover_every_step(tmp_path):
    wl = _small_workload(tmp_path)
    originals = {name: getattr(qpcmv.cli, name)
                 for name in ("main", "assemble", "spectrum", "run")}
    tr = spans.Tracer()
    tr.begin_pass(7)
    restore = spans.install(tr)
    try:
        wall, results = worker.run_pass(wl, tr)
    finally:
        restore()
    assert [r.exit_code for r in results] == [0] * len(wl.steps)
    for name, fn in originals.items():
        assert getattr(qpcmv.cli, name) is fn

    by_id = {s.id: s for s in tr.spans}
    roots = sorted((s for s in tr.spans if s.parent is None), key=lambda s: s.start)
    assert [s.name for s in roots] == [f"cli.main.{st.argv[0]}" for st in wl.steps]
    for s in tr.spans:
        assert s.pass_id == 7
        assert s.start <= s.end
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.start <= s.start and s.end <= p.end
    assert sum(s.duration for s in roots) <= wall

    names = {s.name for s in tr.spans}
    for expected in ("frequency.parse_frequency", "frequency.badly_approximable_score",
                     "dynamics.find_even_repetition", "sampling.verblunsky_window",
                     "cmv.assemble", "cmv.spectrum", "cmv.eigenvector_profile",
                     "cmv.dump_triplets", "transfer.certify_gordon",
                     "transfer.no_point_spectrum_evidence",
                     "transfer.block_product_grid",
                     "transfer.min_max_over_unit_vectors", "pipeline.run",
                     "transfer.validate_three_step_lipschitz"):
        assert expected in names
    # calls between layers nest under their caller
    evid = [s for s in tr.spans if s.name == "transfer.block_product_grid"]
    assert all(by_id[s.parent].name == "transfer.no_point_spectrum_evidence"
               for s in evid)

    m = spans.pass_metrics(tr)
    assert m["cmv.eigenvector_profile.calls"] == 16 + 16
    assert m["cmv.dense_bytes"] == spans.cmv_dense_bytes(16)
    assert m["transfer.evidence.rows"] == 8 + 8
    assert m["cli.artifact_bytes"] > 0
    for step in wl.steps:
        assert m[f"cli.main.self_s.{step.argv[0]}"] > 0


def test_install_wraps_names_imported_into_any_qpcmv_module(monkeypatch):
    # a module that imports a layer function by name is traced too
    probe = types.ModuleType("qpcmv._probe")
    probe.spectrum = qpcmv.cmv.spectrum
    monkeypatch.setitem(sys.modules, "qpcmv._probe", probe)
    orig = probe.spectrum
    tr = spans.Tracer()
    restore = spans.install(tr)
    try:
        assert probe.spectrum is not orig
        op = qpcmv.cmv.assemble(VerblunskySequence.constant(0.3, -3, 3), -2, 1)
        probe.spectrum(op)
    finally:
        restore()
    assert probe.spectrum is orig
    assert "cmv.spectrum" in {s.name for s in tr.spans}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _snapshot(wl, work):
    files = {p.name: p.read_bytes() for p in sorted((work / "inputs").iterdir())}
    argv = [[a.replace(str(work), "W") for a in s.argv] for s in wl.steps]
    return files, argv


@pytest.mark.parametrize("name", sorted(workloads.DEFINITIONS))
def test_inputs_follow_the_seed(tmp_path, name):
    root = ROOT
    a = _snapshot(workloads.build(name, root, tmp_path / "a", 3), tmp_path / "a")
    b = _snapshot(workloads.build(name, root, tmp_path / "b", 3), tmp_path / "b")
    c = _snapshot(workloads.build(name, root, tmp_path / "c", 4), tmp_path / "c")
    assert a == b
    assert a != c
    for argv in a[1]:
        assert argv[argv.index("--seed") + 1] == "3"


def test_periodic_window_is_exactly_periodic():
    q = 8
    n_min, vals = workloads.periodic_window(random.Random(1), q, 0.5)
    assert n_min == -2 * q and len(vals) == 4 * q + 2
    assert all(vals[k] == vals[k + q] for k in range(len(vals) - q))
    assert np.allclose(np.abs(vals), 0.5)
