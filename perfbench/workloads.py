"""The benchmark's four workloads: seeded inputs, CLI steps and output checks.

Nothing here imports ``qpcmv``: the inputs are generated as plain files
(coefficient CSVs and tube-construction specs) so that the program receives
only those files and its argv.  Sizes are fixed per workload; ``--seed``
drives the periodic-window phases, the rotation orbit phase, the tube
centres and the tube values, and is passed on as ``--seed`` to every CLI
call.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

GOLDEN = "golden"
CMV_CHECK_LIMITS = {
    "unitarity_defect": 1e-12,
    "band_agreement": 1e-14,
    "max_residual": 1e-10,
}


@dataclass
class Step:
    """One ``qpcmv.cli.main(argv)`` call of a pass."""

    label: str
    argv: list[str]
    expect_exit: int = 0


@dataclass
class StepResult:
    label: str
    exit_code: Optional[int]
    stdout: str
    error: Optional[str] = None


@dataclass
class Workload:
    name: str
    sizes: dict
    steps: list[Step]
    # check(results, out_root) -> list of (check name, ok, detail)
    check: Callable[[list[StepResult], Path], list[tuple[str, bool, str]]]
    # files whose bytes must repeat across passes of one seed
    stable_files: list[str] = field(default_factory=list)
    # span names every traced pass must record; a missing one is a failed
    # check, so a wrapper that never attached cannot read as a zero time
    traced_spans: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Generated input files
# ---------------------------------------------------------------------------


def write_window(path: Path, n_min: int, values: list[complex], seed: int):
    """Coefficient CSV in the format ``VerblunskySequence.from_csv`` reads."""
    lines = [f"# seed={seed}", "n,re_alpha,im_alpha,rho"]
    for k, a in enumerate(values):
        m = abs(a)
        rho = math.sqrt((1.0 - m) * (1.0 + m))
        lines.append(f"{n_min + k},{a.real!r},{a.imag!r},{rho!r}")
    path.write_text("\n".join(lines) + "\n")


def periodic_window(rng: random.Random, q: int, modulus: float):
    """Exactly q-periodic coefficients on [-2q, 2q + 1] with |alpha| = modulus.

    One value per residue class is drawn and reused, so alpha(n) and
    alpha(n + q) are the same float.
    """
    base = [modulus * cmath.exp(2j * math.pi * rng.random()) for _ in range(q)]
    n_min, n_max = -2 * q, 2 * q + 1
    return n_min, [base[n % q] for n in range(n_min, n_max + 1)]


def tube_spec(rng: random.Random, system: str, period: int, epsilon: str):
    dim = 2 if system == "skew" else 1
    # dyadic centres keep the denominators of the exact orbit points at
    # those of the 256-bit golden frequency, whatever the seed
    center = [f"{rng.randrange(1024)}/1024" for _ in range(dim)]
    values = []
    for _ in range(period):
        v = rng.uniform(0.1, 0.6) * cmath.exp(2j * math.pi * rng.random())
        values.append([v.real, v.imag])
    return {
        "system": system,
        "freq": GOLDEN,
        "center": center,
        "period": period,
        "radius": "auto",
        "epsilon": epsilon,
        "values": values,
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _exit_checks(results: list[StepResult], steps: list[Step]):
    out = []
    for res, step in zip(results, steps):
        ok = res.error is None and res.exit_code == step.expect_exit
        detail = res.error or f"exit {res.exit_code}, expected {step.expect_exit}"
        out.append((f"{step.label}.exit", ok, detail))
    return out


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def parse_cmv_line(stdout: str) -> Optional[dict]:
    """Numbers from the ``cmv:`` summary line the CLI prints."""
    for line in stdout.splitlines():
        if not line.startswith("cmv: "):
            continue
        vals = {}
        for part in line[len("cmv: "):].split(", "):
            for key in ("unitarity defect", "band agreement", "max residual"):
                if part.startswith(key + " "):
                    vals[key.replace(" ", "_")] = float(part[len(key) + 1:])
        return vals
    return None


def check_cmv_step(res: StepResult, out_dir: Path):
    """Unitarity, band agreement and the worst eigen residual of one call.

    The first two come from the printed summary line; the residual is read
    at full precision from ``eigenvalues.csv``.
    """
    vals = parse_cmv_line(res.stdout) or {}
    checks = []
    for key in ("unitarity_defect", "band_agreement"):
        v = vals.get(key)
        ok = v is not None and v <= CMV_CHECK_LIMITS[key]
        checks.append((f"{res.label}.{key}", ok, f"{v!r} <= {CMV_CHECK_LIMITS[key]}"))
    worst = None
    try:
        rows = (out_dir / "eigenvalues.csv").read_text().splitlines()
        worst = max(float(r.split(",")[1]) for r in rows[2:])
    except (OSError, ValueError, IndexError):
        pass
    ok = worst is not None and worst <= CMV_CHECK_LIMITS["max_residual"]
    checks.append(
        (f"{res.label}.max_residual", ok,
         f"{worst!r} <= {CMV_CHECK_LIMITS['max_residual']}")
    )
    return checks


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _scenarios(root: Path, inputs: Path, out: Path, seed: int) -> Workload:
    configs = [
        ("free", "free.json", 0),
        ("liouville-rotation", "liouville_rotation.json", 0),
        ("impurity-control", "impurity_control.json", 2),
    ]
    steps = [
        Step(name, ["run", "--config", str(root / "configs" / fname),
                    "--out", str(out / name), "--seed", str(seed)], code)
        for name, fname, code in configs
    ]

    def check(results, out_root):
        checks = _exit_checks(results, steps)
        rep = _read_json(out_root / "impurity-control" / "report.json") or {}
        verdict = rep.get("verdicts", {}).get("evidence-negative-control")
        checks.append(
            ("impurity-control.evidence-negative-control", verdict == "PASS",
             f"verdict {verdict!r}")
        )
        for name, _, _ in configs:
            rep = _read_json(out_root / name / "report.json") or {}
            has_cmv = "unitarity_defect" in rep.get("stages", {}).get("cmv", {})
            checks.append((f"{name}.cmv_stage", has_cmv, "cmv stage reported"))
        return checks

    return Workload(
        name="scenarios",
        sizes={"configs": [c[0] for c in configs], "cmv_n": 200, "z_grid": 512},
        steps=steps,
        check=check,
        stable_files=[f"{name}/report.json" for name, _, _ in configs],
        traced_spans=[
            "cli.main.run", "pipeline.run", "frequency.badly_approximable_score",
            "dynamics.find_even_repetition", "sampling.ball_radius.rotation",
            "sampling.verify_ball", "sampling.tube_function",
            "sampling.verblunsky_window", "transfer.certify_gordon",
            "transfer.validate_three_step_lipschitz",
            "transfer.no_point_spectrum_evidence", "transfer.block_product_grid",
            "transfer.min_max_over_unit_vectors", "cmv.assemble", "cmv.spectrum",
            "cmv.eigenvector_profile", "cmv.dump_triplets",
        ],
    )


# Sizes of the two long-pass workloads, kept small enough for several
# passes per run.  On a shared 2-CPU machine whose speed flipped by up to
# 40% within tens of seconds, the two or three passes per run that N = 1200
# and N = 800, or a skew tube at q = 4, allowed left the run median
# following those flips (quartile spread up to 0.23 over ten runs).
HARMONIC_N = 600
FREE_N = 400
SKEW_TUBE_Q = 2


def _cmv_dense(root: Path, inputs: Path, out: Path, seed: int) -> Workload:
    # Both windows are fixed: the Schur time of an N=1200 harmonic window
    # moves by about 12% between coefficient phases or orbit phases (the
    # spectrum is the same under a phase change, the QR path is not), which
    # would swamp the wall_s bound.  The seed reaches only the CLI calls.
    runs = [
        ("harmonic", HARMONIC_N, ["--family", "harmonic", "--params", "0.5,0",
                            "--freq", GOLDEN, "--omega", "0"]),
        ("free", FREE_N, ["--family", "constant", "--params", "0,0"]),
    ]
    steps = []
    for name, n, sample_args in runs:
        lo, hi = -(n // 2), n - n // 2 - 1
        window = f"{lo}:{hi}"
        sample_out = out / f"sample-{name}"
        steps.append(Step(
            f"sample-{name}",
            ["sample", *sample_args, f"--window={window}",
             "--out", str(sample_out), "--seed", str(seed)],
        ))
        steps.append(Step(
            f"cmv-{name}",
            ["cmv", "--seq-file", str(sample_out / "verblunsky.csv"),
             f"--window={window}", "--eig", "--profile", "all",
             "--out", str(out / f"cmv-{name}"), "--seed", str(seed)],
        ))

    def check(results, out_root):
        checks = _exit_checks(results, steps)
        for res in results:
            if res.label.startswith("cmv-"):
                checks.extend(check_cmv_step(res, out_root / res.label))
        return checks

    return Workload(
        name="cmv-dense",
        sizes={"harmonic_n": HARMONIC_N, "harmonic_modulus": 0.5, "free_n": FREE_N,
               "profile": "all"},
        steps=steps,
        check=check,
        traced_spans=[
            "cli.main.sample", "cli.main.cmv", "frequency.parse_frequency",
            "sampling.verblunsky_window", "cmv.assemble", "cmv.spectrum",
            "cmv.eigenvector_profile", "cmv.dump_triplets",
        ],
    )


def _exact_torus(root: Path, inputs: Path, out: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    rot_omega = f"{rng.randrange(1024)}/1024"
    specs = {
        "skew": (tube_spec(rng, "skew", SKEW_TUBE_Q, "1/10"),
                 f"{-2 * SKEW_TUBE_Q}:{3 * SKEW_TUBE_Q + 1}"),
        "rotation": (tube_spec(rng, "rotation", 610, "1/1000"), "-1220:1831"),
    }
    s = ["--seed", str(seed)]
    steps = [
        Step("frequency", ["frequency", "--value", GOLDEN, "--max-q", "1000000",
                           "--out", str(out / "frequency"), *s]),
        Step("orbit-rotation", ["orbit", "--system", "rotation", "--freq", GOLDEN,
                                "--omega", rot_omega, "--epsilon", "1/1000",
                                "--out", str(out / "orbit-rotation"), *s]),
        Step("orbit-skew", ["orbit", "--system", "skew", "--freq", "liouville:2,4",
                            "--omega", "0,0", "--epsilon", "1/10",
                            "--out", str(out / "orbit-skew"), *s]),
    ]
    for name, (spec, window) in specs.items():
        path = inputs / f"tube-{name}.json"
        path.write_text(json.dumps(spec, indent=1) + "\n")
        steps.append(Step(f"construct-{name}",
                          ["sample", "--construct-ck", str(path), f"--window={window}",
                           "--out", str(out / f"construct-{name}"), *s]))
    expected_q = {"orbit-rotation": 610, "orbit-skew": 64}

    def check(results, out_root):
        checks = _exit_checks(results, steps)
        for label, q in expected_q.items():
            doc = _read_json(out_root / label / "orbit.json") or {}
            checks.append((f"{label}.q", doc.get("q") == q,
                           f"q {doc.get('q')!r}, expected {q}"))
        for name in specs:
            ok = (out_root / f"construct-{name}" / "verblunsky.csv").is_file()
            checks.append((f"construct-{name}.window", ok, "verblunsky.csv written"))
        return checks

    return Workload(
        name="exact-torus",
        sizes={"frequency_max_q": 1000000, "rotation_q": 610, "skew_q": 64,
               "construct_skew_q": SKEW_TUBE_Q, "construct_rotation_q": 610,
               "construct_windows": {k: v[1] for k, v in specs.items()}},
        steps=steps,
        check=check,
        traced_spans=[
            "cli.main.frequency", "cli.main.orbit", "cli.main.sample",
            "frequency.parse_frequency", "frequency.badly_approximable_score",
            "dynamics.find_even_repetition", "sampling.ball_radius.rotation",
            "sampling.ball_radius.skew", "sampling.verify_ball",
            "sampling.tube_function", "sampling.verblunsky_window",
        ],
    )


EVIDENCE_QS = (64, 256, 512)


def _evidence_large_q(root: Path, inputs: Path, out: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    steps = []
    for q in EVIDENCE_QS:
        n_min, values = periodic_window(rng, q, 0.5)
        path = inputs / f"periodic-q{q}.csv"
        write_window(path, n_min, values, seed)
        steps.append(Step(f"gordon-q{q}",
                          ["gordon", "--seq-file", str(path), "--k-list", f"1:{q}",
                           "--z-grid", "512", "--out", str(out / f"gordon-q{q}"),
                           "--seed", str(seed)]))

    def check(results, out_root):
        checks = _exit_checks(results, steps)
        for q in EVIDENCE_QS:
            doc = _read_json(out_root / f"gordon-q{q}" / "gordon.json") or {}
            verdict = doc.get("evidence", {}).get("verdict")
            checks.append((f"gordon-q{q}.verdict", verdict in ("PASS", "FAIL"),
                           f"verdict {verdict!r}"))
        return checks

    return Workload(
        name="evidence-large-q",
        sizes={"q": list(EVIDENCE_QS), "modulus": 0.5, "z_grid": 512},
        steps=steps,
        check=check,
        traced_spans=[
            "cli.main.gordon", "transfer.certify_gordon",
            "transfer.no_point_spectrum_evidence", "transfer.block_product_grid",
            "transfer.min_max_over_unit_vectors",
        ],
    )


DEFINITIONS = {
    "scenarios": _scenarios,
    "cmv-dense": _cmv_dense,
    "exact-torus": _exact_torus,
    "evidence-large-q": _evidence_large_q,
}


def build(name: str, root: Path, work: Path, seed: int) -> Workload:
    """Generate the inputs of workload ``name`` under ``work`` and return it."""
    inputs = work / "inputs"
    out = work / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    return DEFINITIONS[name](root, inputs, out, seed)


def file_digest(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None
