"""Config-driven experiment pipelines with reproducible artifacts.

A run chains frequency analysis, repetition search, sampling-function
construction, Gordon certification, spectral evidence and CMV diagnostics,
writing one artifact file per stage plus a deterministic ``report.json``.
Wall-clock timings go to a ``timings.json`` sidecar so that reports are
byte-identical across repeat runs with the same config and seed.

Exit status: 0 all verdicts PASS, 2 evidence FAIL, 1 execution error.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, artifacts
from .arith import as_fraction
from .cmv import assemble, eigenvector_profile, spectrum
from .dynamics import Rotation, TorusPoint, find_even_repetition
from .errors import QpcmvError
from .frequency import Frequency, badly_approximable_score, liouville_frequency
from .sampling import (
    VerblunskySequence,
    ball_radius,
    tube_function,
    verblunsky_window,
)
from .transfer import (
    certify_gordon,
    no_point_spectrum_evidence,
    validate_three_step_lipschitz,
)

CONFIG_SCHEMA = "qpcmv-config/1"
REPORT_SCHEMA = "qpcmv-report/1"

SCENARIOS = ("free", "liouville-rotation", "impurity-control")


def _json_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _decode(hint, v):
    """JSON value ``v`` as a value of the config field type ``hint``;
    TypeError when its JSON type does not fit."""
    if get_origin(hint) is tuple:
        items = get_args(hint)
        if isinstance(v, list) and items[-1] is Ellipsis:
            items = items[:1] * len(v)
        if isinstance(v, list) and len(v) == len(items):
            return tuple(_decode(h, x) for h, x in zip(items, v))
    elif hint is complex:
        if _json_number(v):
            return complex(v)
        if isinstance(v, list) and len(v) == 2 and all(map(_json_number, v)):
            return complex(float(v[0]), float(v[1]))
    elif hint is float and _json_number(v):
        return float(v)
    elif hint is int and isinstance(v, int) and not isinstance(v, bool):
        return v
    elif hint is str and isinstance(v, str):
        return v
    raise TypeError(v)


@dataclass
class ExperimentConfig:
    """Validated run configuration; see README for the JSON schema."""

    scenario: str
    seed: int = 20240601
    z_grid: int = 512
    k_list: tuple[int, ...] = (1, 2, 3)
    # free scenario
    free_value: complex = 0j
    free_q_list: tuple[int, ...] = (2, 4, 8)
    # liouville-rotation scenario
    liouville_base: int = 2
    liouville_depth: int = 4
    omega: tuple[str, ...] = ("0",)
    tube_value_radius: float = 0.5
    score_q_max: int = 1000
    repetition_q_max: int = 2000
    window_factor: str = "4"
    # impurity-control scenario
    impurity_background: complex = 0.5 + 0j
    impurity_value: complex = -0.99 + 0j
    impurity_q: int = 8
    # cmv stage
    cmv_n: int = 200
    boundary: tuple[complex, complex] = (1 + 0j, 1 + 0j)
    # validation stage
    lipschitz_r: float = 0.5
    lipschitz_samples: int = 20000

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise QpcmvError(f"unknown scenario {self.scenario!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Each field from the JSON value of its key, by the field's type:
        integers, numbers, strings, complex numbers as a number or an
        [re, im] pair, tuples as lists.  Unknown keys and values of the
        wrong JSON type raise QpcmvError."""
        if not isinstance(d, dict):
            raise QpcmvError("config must be a JSON object")
        if d.get("schema") != CONFIG_SCHEMA:
            raise QpcmvError(
                f"config schema must be {CONFIG_SCHEMA!r}, got {d.get('schema')!r}"
            )
        if "scenario" not in d:
            raise QpcmvError("config lacks scenario")
        hints = get_type_hints(cls)
        unknown = sorted(set(d) - set(hints) - {"schema"})
        if unknown:
            raise QpcmvError(f"unknown config field(s): {', '.join(unknown)}")
        kw: dict[str, Any] = {}
        for f in fields(cls):
            if f.name in d:
                try:
                    kw[f.name] = _decode(hints[f.name], d[f.name])
                except TypeError:
                    raise QpcmvError(
                        f"config field {f.name!r} must be {f.type}, "
                        f"got {json.dumps(d[f.name])}"
                    ) from None
        return cls(**kw)

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, complex):
                return [v.real, v.imag]
            if isinstance(v, tuple):
                return [enc(x) for x in v]
            return v

        d = {"schema": CONFIG_SCHEMA}
        for key, val in self.__dict__.items():
            d[key] = enc(val)
        return d

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _frac_str(x) -> str:
    f = as_fraction(x)
    return f"{f.numerator}/{f.denominator}"


class _Report:
    """Collects stage outcomes; finalizes to a deterministic report dict."""

    def __init__(self, config: ExperimentConfig, out: Path):
        self.out = out
        self.stages: dict[str, dict] = {}
        self.verdicts: dict[str, str] = {}
        self.timings: dict[str, float] = {}
        self.config = config
        self.failure: Optional[str] = None

    @contextmanager
    def stage(self, name: str):
        """The stage's report dict, reused when a stage is entered again.  A
        failure is recorded on it and re-raised; the wall time goes only to
        the timings sidecar."""
        t0 = time.perf_counter()
        st = self.stages.setdefault(name, {"status": "ok", "artifacts": []})
        try:
            yield st
        except Exception as exc:
            st["status"] = "failed"
            st["error"] = f"{type(exc).__name__}: {exc}"
            self.failure = name
            raise
        finally:
            self.timings[name] = time.perf_counter() - t0

    def artifact(self, stage: str, name: str) -> Path:
        self.stages[stage]["artifacts"].append(name)
        return self.out / name

    def finalize(self) -> tuple[dict, int]:
        if self.failure is not None:
            overall, code = "ERROR", 1
        elif any(v == "FAIL" for v in self.verdicts.values()):
            overall, code = "FAIL", 2
        else:
            overall, code = "PASS", 0
        doc = {
            "schema": REPORT_SCHEMA,
            "tool_version": __version__,
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "stages": self.stages,
            "verdicts": self.verdicts,
            "overall": overall,
            "exit_code": code,
            "timings_file": "timings.json",
        }
        return doc, code


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _frequency_stage(rep: _Report, cfg: ExperimentConfig) -> Frequency:
    with rep.stage("frequency") as st:
        freq = liouville_frequency(cfg.liouville_base, cfg.liouville_depth)
        scan = badly_approximable_score(freq, cfg.score_q_max)
        artifacts.write_frequency_csv(
            rep.artifact("frequency", "frequency.csv"), cfg.seed, freq, scan
        )
        artifacts.write_json(
            rep.artifact("frequency", "frequency.json"),
            {
                "seed": cfg.seed,
                "value": _frac_str(freq.value),
                "partial_quotients": list(freq.partial_quotients),
                "designated_denominators": list(freq.designated_denominators),
                "truncated": freq.truncated,
                "min_score": repr(float(scan.min_score)),
                "argmin_q": scan.argmin_q,
                "reported_badly_approximable": scan.reported_badly_approximable,
            },
        )
        st["min_score"] = float(scan.min_score)
    return freq


def _repetition_stage(rep: _Report, cfg: ExperimentConfig, system):
    """The orbit start omega and the even repetition times for each level k
    (epsilon = 1/k)."""
    results = {}
    with rep.stage("repetition") as st:
        omega = TorusPoint([as_fraction(cfg.omega[0])])
        s = as_fraction(cfg.window_factor)
        rows = []
        for k in cfg.k_list:
            eps = Fraction(1, k)
            cert = find_even_repetition(
                system, omega, eps, s, cfg.repetition_q_max
            )
            if cert is None:
                raise QpcmvError(f"no even repetition time at level {k}")
            results[k] = cert
            rows.append(
                {
                    "k": k,
                    "epsilon": _frac_str(eps),
                    "q": cert.q,
                    "max_deviation": repr(float(cert.max_deviation)),
                    "window": cert.window,
                    "validated": cert.validated,
                }
            )
        artifacts.write_json(
            rep.artifact("repetition", "orbit.json"),
            {"seed": cfg.seed, "certificates": rows},
        )
        k_top = max(results)
        cert = results[k_top]
        artifacts.write_orbit_csv(
            rep.artifact("repetition", "orbit.csv"),
            f"seed={cfg.seed} k={k_top} q={cert.q}", system, omega, cert,
        )
        st["periods"] = {str(k): results[k].q for k in results}
        st["validated"] = {str(k): results[k].validated for k in results}
    return omega, results


def _tube_stage(rep: _Report, cfg: ExperimentConfig, system, omega, reps):
    """Per-level tube constructions, coefficient windows starting at the
    designated orbit point."""
    sequences = {}
    constructions = {}
    with rep.stage("sampling") as st:
        for k, cert in reps.items():
            q = cert.q
            br = ball_radius(system, omega, q, cert.epsilon)
            values = [
                cfg.tube_value_radius * np.exp(2j * np.pi * j / q)
                for j in range(q)
            ]
            f = tube_function(system, omega, q, br.radius, values)
            w0 = f.gordon_point()
            seq = verblunsky_window(f, system, w0, -2 * q, 3 * q + 1)
            sequences[k] = seq
            constructions[k] = (f, br)
        k_top = max(sequences)
        path = rep.artifact("sampling", "verblunsky.csv")
        sequences[k_top].to_csv(path, seed=cfg.seed)
        st["levels"] = sorted(sequences)
        st["denominator_bits"] = {
            str(k): br.denominator_bits for k, (_, br) in constructions.items()
        }
    return sequences, constructions


def _evidence_stage(rep: _Report, cfg: ExperimentConfig, seq, certificate=None,
                    q=None, extra_angles=(), expect_fail=False):
    with rep.stage("evidence") as st:
        table = no_point_spectrum_evidence(
            seq,
            certificate=certificate,
            q=q,
            z_grid=cfg.z_grid,
            extra_angles=extra_angles,
        )
        artifacts.write_evidence_csv(
            rep.artifact("evidence", "evidence.csv"), cfg.seed, table
        )
        artifacts.write_json(
            rep.artifact("evidence", "evidence.json"),
            {"seed": cfg.seed, "source": table.source,
             "threshold": table.threshold,
             **artifacts.evidence_summary(table)},
        )
        st["min_c"] = table.min_c
        st["nonfinite_rows"] = table.nonfinite_rows
        st["max_log10_norm"] = table.max_log10_norm
        if expect_fail:
            st["expected"] = "FAIL"
            rep.verdicts["evidence"] = table.verdict
            rep.verdicts["evidence-negative-control"] = (
                "PASS" if table.verdict == "FAIL" else "FAIL"
            )
        else:
            rep.verdicts["evidence"] = table.verdict
    return table


# Participation ratios this close count as equal.  Conjugation-symmetric
# spectra (real coefficients) pair each eigenvector with its conjugate,
# whose ratio is the same up to rounding, so a plain argmin would pick
# either one depending on the eigensolver's last bits.
_PR_RTOL = 1e-9


def most_localized(prs: np.ndarray, angles: np.ndarray, candidates) -> int:
    """Candidate index with the smallest participation ratio, ratios within
    a relative ``_PR_RTOL`` of it counting as equal and the smaller angle
    winning among those."""
    idx = np.asarray(list(candidates))
    p = prs[idx]
    near = idx[p <= p.min() * (1.0 + _PR_RTOL)]
    return int(near[np.argmin(angles[near])])


def _cmv_stage(rep: _Report, cfg: ExperimentConfig, seq,
               check_free_profile=False, find_bound_state=False):
    out = {}
    with rep.stage("cmv") as st:
        n = cfg.cmv_n
        half = n // 2
        lo, hi = -half, n - half - 1
        op = assemble(seq, lo, hi, boundary=cfg.boundary)
        dec = spectrum(op)
        st["unitarity_defect"] = op.unitarity_defect
        st["band_agreement"] = op.band_agreement
        st["max_residual"] = float(dec.residuals.max())
        st["eig_fallback"] = dec.fallback
        rep.verdicts["unitarity"] = (
            "PASS"
            if op.unitarity_defect <= 1e-12 and op.band_agreement <= 1e-14
            else "FAIL"
        )
        artifacts.write_eigenvalues_csv(
            rep.artifact("cmv", "eigenvalues.csv"), cfg.seed, dec
        )
        with open(rep.artifact("cmv", "matrix.txt"), "w") as fh:
            op.dump_triplets(fh, seed=cfg.seed)
        profiles = eigenvector_profile(op, dec, range(op.size))
        prs = np.array([p.participation_ratio for p in profiles])
        angles = np.angle(dec.eigenvalues)
        imin = most_localized(prs, angles, range(op.size))
        artifacts.write_profile_csv(
            rep.artifact("cmv", "profile.csv"), cfg.seed, profiles[imin]
        )
        st["min_participation_ratio"] = float(prs.min())
        if check_free_profile:
            rep.verdicts["profile"] = (
                "PASS" if prs.min() >= op.size / 4 else "FAIL"
            )
        out["operator"] = op
        out["decomposition"] = dec
        out["profiles"] = profiles
        if find_bound_state:
            cut = op.size / 10
            cands = [
                i
                for i, p in enumerate(profiles)
                if p.participation_ratio <= cut
                and abs(p.peak) <= op.size // 4
            ]
            if not cands:
                raise QpcmvError("no localized central eigenvector found")
            ibest = most_localized(prs, angles, cands)
            angle = float(np.angle(dec.eigenvalues[ibest]))
            st["bound_state_angle"] = angle
            st["bound_state_pr"] = float(
                profiles[ibest].participation_ratio
            )
            out["bound_state_angle"] = angle
    return out


def _lipschitz_stage(rep: _Report, cfg: ExperimentConfig):
    with rep.stage("lipschitz-validation") as st:
        val = validate_three_step_lipschitz(
            cfg.lipschitz_r, samples=cfg.lipschitz_samples, seed=cfg.seed
        )
        st["max_ratio"] = val.max_ratio
        st["bound"] = val.bound
        rep.verdicts["lipschitz"] = "PASS" if val.violations == 0 else "FAIL"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _run_free(rep: _Report, cfg: ExperimentConfig):
    pad = 2 * max(cfg.free_q_list) + 2
    half = cfg.cmv_n // 2
    lo = min(-pad, -half - 1)
    hi = max(pad, cfg.cmv_n - half)
    seq = VerblunskySequence.constant(cfg.free_value, lo, hi)
    with rep.stage("sampling"):
        seq.to_csv(rep.artifact("sampling", "verblunsky.csv"), seed=cfg.seed)
    with rep.stage("gordon"):
        pairs = list(zip(cfg.k_list, cfg.free_q_list))
        cert = certify_gordon(seq, pairs, sequence_id="free")
        artifacts.write_json(
            rep.artifact("gordon", "gordon.json"),
            {"seed": cfg.seed, "levels": artifacts.gordon_levels(cert)},
        )
        rep.verdicts["gordon"] = "PASS" if cert.all_passed else "FAIL"
    _evidence_stage(rep, cfg, seq, certificate=cert)
    _cmv_stage(rep, cfg, seq, check_free_profile=True)
    _lipschitz_stage(rep, cfg)


def _run_liouville_rotation(rep: _Report, cfg: ExperimentConfig):
    freq = _frequency_stage(rep, cfg)
    system = Rotation([freq.value])
    omega, reps = _repetition_stage(rep, cfg, system)
    sequences, constructions = _tube_stage(rep, cfg, system, omega, reps)
    certs = {}
    with rep.stage("gordon"):
        rows = []
        for k in sorted(sequences):
            cert = certify_gordon(
                sequences[k], [(k, reps[k].q)], sequence_id=f"level-{k}"
            )
            certs[k] = cert
            rows.extend(artifacts.gordon_levels(cert))
        artifacts.write_json(
            rep.artifact("gordon", "gordon.json"),
            {"seed": cfg.seed, "levels": rows},
        )
        rep.verdicts["gordon"] = (
            "PASS" if all(c.all_passed for c in certs.values()) else "FAIL"
        )
    k_top = max(sequences)
    _evidence_stage(rep, cfg, sequences[k_top], certificate=certs[k_top])
    # CMV diagnostics on the periodized top-level tube values
    q = reps[k_top].q
    f, _ = constructions[k_top]
    half = cfg.cmv_n // 2
    vals = [
        f.values[(n - 1) % q] for n in range(-half - 1, cfg.cmv_n - half + 1)
    ]
    periodic = VerblunskySequence(-half - 1, cfg.cmv_n - half, np.array(vals))
    _cmv_stage(rep, cfg, periodic)
    _lipschitz_stage(rep, cfg)


def _run_impurity_control(rep: _Report, cfg: ExperimentConfig):
    half = cfg.cmv_n // 2
    pad = max(2 * cfg.impurity_q + 2, half + 2)
    seq = VerblunskySequence.impurity(
        cfg.impurity_background, cfg.impurity_value, -pad, pad
    )
    with rep.stage("sampling"):
        seq.to_csv(rep.artifact("sampling", "verblunsky.csv"), seed=cfg.seed)
    out = _cmv_stage(rep, cfg, seq, find_bound_state=True)
    with rep.stage("gordon") as st:
        cert = certify_gordon(
            seq,
            [(k, cfg.impurity_q) for k in cfg.k_list],
            sequence_id="impurity",
        )
        artifacts.write_json(
            rep.artifact("gordon", "gordon.json"),
            {"seed": cfg.seed, "levels": artifacts.gordon_levels(cert)},
        )
        st["expected"] = "FAIL"
        rep.verdicts["gordon-negative-control"] = (
            "PASS" if not cert.all_passed else "FAIL"
        )
    _evidence_stage(
        rep,
        cfg,
        seq,
        q=cfg.impurity_q,
        extra_angles=[out["bound_state_angle"]],
        expect_fail=True,
    )
    _lipschitz_stage(rep, cfg)


def run(config: ExperimentConfig, out_dir) -> tuple[dict, int]:
    """Execute the configured scenario; returns (report dict, exit code).

    Artifacts land in ``out_dir``; the report is also written there as
    ``report.json`` with timings in ``timings.json``.  A stage failure
    retains earlier artifacts, marks the report and yields exit code 1.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep = _Report(config, out)
    try:
        if config.scenario == "free":
            _run_free(rep, config)
        elif config.scenario == "liouville-rotation":
            _run_liouville_rotation(rep, config)
        else:
            _run_impurity_control(rep, config)
    except Exception:
        if rep.failure is None:
            raise
    doc, code = rep.finalize()
    artifacts.write_json(out / "report.json", doc)
    artifacts.write_json(
        out / "timings.json",
        {"stages": {k: round(v, 6) for k, v in rep.timings.items()}},
    )
    return doc, code
