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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, artifacts
from .arith import as_fraction
from .cmv import assemble, eigenvector_profile, spectrum
from .dynamics import Rotation, TorusPoint, find_even_repetition, orbit_table
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
    omega: tuple[str] = ("0",)
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
        n, m = len(self.k_list), len(self.free_q_list)
        if self.scenario == "free" and n != m:
            raise QpcmvError(f"config fields 'k_list' and 'free_q_list' pair "
                             f"levels with periods, got {n} and {m} entries")
        # a malformed rational stops the run before any stage; a well-formed
        # one outside its domain ("1/0") fails the stage that reads it
        for name, text in (("omega", self.omega[0]),
                           ("window_factor", self.window_factor)):
            try:
                as_fraction(text)
            except QpcmvError:
                pass
            except ValueError:
                raise QpcmvError(f"config field {name!r} expects P/Q or a "
                                 f"decimal, got {text!r}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a JSON object with ``"schema": CONFIG_SCHEMA``,
        each other key read by ``artifacts.read_fields``."""
        if isinstance(d, dict):
            d = dict(d)
            schema = d.pop("schema", None)
            if schema != CONFIG_SCHEMA:
                raise QpcmvError(
                    f"config schema must be {CONFIG_SCHEMA!r}, got {schema!r}")
        return artifacts.read_fields(cls, d, "config")

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
        omega = TorusPoint([cfg.omega[0]])
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
            f"seed={cfg.seed} k={k_top} q={cert.q}",
            orbit_table(system, omega, cert),
        )
        st["periods"] = {str(k): results[k].q for k in results}
        st["validated"] = {str(k): results[k].validated for k in results}
    return omega, results


def _tube_stage(rep: _Report, cfg: ExperimentConfig, system, omega, reps):
    """Per-level tube functions and their coefficient windows, each
    starting at the designated orbit point."""
    functions, sequences, bits = {}, {}, {}
    with rep.stage("sampling") as st:
        for k, cert in reps.items():
            q = cert.q
            br = ball_radius(system, omega, q, cert.epsilon)
            values = [
                cfg.tube_value_radius * np.exp(2j * np.pi * j / q)
                for j in range(q)
            ]
            f = functions[k] = tube_function(system, omega, q, br.radius,
                                             values)
            sequences[k] = verblunsky_window(f, system, f.gordon_point(),
                                             -2 * q, 3 * q + 1)
            bits[str(k)] = br.denominator_bits
        sequences[max(sequences)].to_csv(
            rep.artifact("sampling", "verblunsky.csv"), seed=cfg.seed)
        st["levels"] = sorted(sequences)
        st["denominator_bits"] = bits
    return functions, sequences


def _verdict(passed) -> str:
    return "PASS" if passed else "FAIL"


# _gordon, _evidence and _cmv do the work and write the artifacts that
# every scenario shares, inside the stage the scenario has opened; the
# scenario keeps the verdicts that are its own.


def _gordon(rep: _Report, cfg: ExperimentConfig, runs) -> list:
    """The Gordon certificate of each (sequence, [(k, q), ...], sequence
    id) of ``runs``; gordon.json lists their levels in that order."""
    certs = [certify_gordon(seq, pairs, sequence_id=sid)
             for seq, pairs, sid in runs]
    artifacts.write_json(
        rep.artifact("gordon", "gordon.json"),
        {"seed": cfg.seed,
         "levels": [row for c in certs for row in artifacts.gordon_levels(c)]},
    )
    return certs


def _evidence(rep: _Report, cfg: ExperimentConfig, table):
    """Writes the evidence table, records its health and its verdict."""
    artifacts.write_evidence_csv(
        rep.artifact("evidence", "evidence.csv"), cfg.seed, table
    )
    artifacts.write_json(
        rep.artifact("evidence", "evidence.json"),
        {"seed": cfg.seed, "source": table.source,
         "threshold": table.threshold,
         **artifacts.evidence_summary(table)},
    )
    rep.stages["evidence"].update(min_c=table.min_c,
                                  nonfinite_rows=table.nonfinite_rows,
                                  max_log10_norm=table.max_log10_norm)
    rep.verdicts["evidence"] = table.verdict


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


def _cmv(rep: _Report, cfg: ExperimentConfig, seq):
    """The truncation of ``seq`` to cmv_n sites around 0: its health and
    unitarity verdict, eigenvalues, matrix and the profile of its most
    localized eigenvector.  Returns the profiles of all eigenvectors,
    their participation ratios and the eigenvalue angles."""
    st = rep.stages["cmv"]
    half = cfg.cmv_n // 2
    op = assemble(seq, -half, cfg.cmv_n - half - 1, boundary=cfg.boundary)
    dec = spectrum(op)
    st["unitarity_defect"] = op.unitarity_defect
    st["band_agreement"] = op.band_agreement
    st["max_residual"] = float(dec.residuals.max())
    st["eig_fallback"] = dec.fallback
    rep.verdicts["unitarity"] = _verdict(
        op.unitarity_defect <= 1e-12 and op.band_agreement <= 1e-14)
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
    return profiles, prs, angles


def _lipschitz_stage(rep: _Report, cfg: ExperimentConfig):
    with rep.stage("lipschitz-validation") as st:
        val = validate_three_step_lipschitz(
            cfg.lipschitz_r, samples=cfg.lipschitz_samples, seed=cfg.seed
        )
        st["max_ratio"] = val.max_ratio
        st["bound"] = val.bound
        rep.verdicts["lipschitz"] = _verdict(val.violations == 0)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _run_free(rep: _Report, cfg: ExperimentConfig):
    pad = 2 * max(cfg.free_q_list) + 2
    half = cfg.cmv_n // 2
    lo = min(-pad, -half - 1)
    hi = max(pad, cfg.cmv_n - half)
    with rep.stage("sampling"):
        seq = VerblunskySequence.constant(cfg.free_value, lo, hi)
        seq.to_csv(rep.artifact("sampling", "verblunsky.csv"), seed=cfg.seed)
    with rep.stage("gordon"):
        pairs = list(zip(cfg.k_list, cfg.free_q_list))
        cert, = _gordon(rep, cfg, [(seq, pairs, "free")])
        rep.verdicts["gordon"] = _verdict(cert.all_passed)
    with rep.stage("evidence"):
        _evidence(rep, cfg, no_point_spectrum_evidence(
            seq, certificate=cert, z_grid=cfg.z_grid))
    with rep.stage("cmv"):
        _, prs, _ = _cmv(rep, cfg, seq)
        # the free operator has no localized eigenvector
        rep.verdicts["profile"] = _verdict(prs.min() >= len(prs) / 4)


def _run_liouville_rotation(rep: _Report, cfg: ExperimentConfig):
    freq = _frequency_stage(rep, cfg)
    system = Rotation([freq.value])
    omega, reps = _repetition_stage(rep, cfg, system)
    functions, sequences = _tube_stage(rep, cfg, system, omega, reps)
    levels = sorted(sequences)
    with rep.stage("gordon"):
        runs = [(sequences[k], [(k, reps[k].q)], f"level-{k}") for k in levels]
        certs = _gordon(rep, cfg, runs)
        rep.verdicts["gordon"] = _verdict(all(c.all_passed for c in certs))
    k_top = levels[-1]
    with rep.stage("evidence"):
        _evidence(rep, cfg, no_point_spectrum_evidence(
            sequences[k_top], certificate=certs[-1], z_grid=cfg.z_grid))
    # CMV diagnostics on the periodized top-level tube values
    q, f = reps[k_top].q, functions[k_top]
    half = cfg.cmv_n // 2
    vals = [
        f.values[(n - 1) % q] for n in range(-half - 1, cfg.cmv_n - half + 1)
    ]
    periodic = VerblunskySequence(-half - 1, cfg.cmv_n - half, np.array(vals))
    with rep.stage("cmv"):
        _cmv(rep, cfg, periodic)


def _run_impurity_control(rep: _Report, cfg: ExperimentConfig):
    half = cfg.cmv_n // 2
    pad = max(2 * cfg.impurity_q + 2, half + 2)
    with rep.stage("sampling"):
        seq = VerblunskySequence.impurity(cfg.impurity_background,
                                          cfg.impurity_value, -pad, pad)
        seq.to_csv(rep.artifact("sampling", "verblunsky.csv"), seed=cfg.seed)
    with rep.stage("cmv") as st:
        # the bound state: the most localized eigenvector peaked near the
        # impurity
        profiles, prs, angles = _cmv(rep, cfg, seq)
        n = len(profiles)
        cands = [i for i, p in enumerate(profiles)
                 if p.participation_ratio <= n / 10 and abs(p.peak) <= n // 4]
        if not cands:
            raise QpcmvError("no localized central eigenvector found")
        ibest = most_localized(prs, angles, cands)
        st["bound_state_angle"] = angle = float(angles[ibest])
        st["bound_state_pr"] = float(prs[ibest])
    with rep.stage("gordon") as st:
        pairs = [(k, cfg.impurity_q) for k in cfg.k_list]
        cert, = _gordon(rep, cfg, [(seq, pairs, "impurity")])
        st["expected"] = "FAIL"
        rep.verdicts["gordon-negative-control"] = _verdict(not cert.all_passed)
    with rep.stage("evidence") as st:
        table = no_point_spectrum_evidence(
            seq, q=cfg.impurity_q, z_grid=cfg.z_grid, extra_angles=[angle])
        _evidence(rep, cfg, table)
        st["expected"] = "FAIL"
        rep.verdicts["evidence-negative-control"] = _verdict(
            table.verdict == "FAIL")


# each scenario's stages, by its config name
SCENARIOS = {"free": _run_free,
             "liouville-rotation": _run_liouville_rotation,
             "impurity-control": _run_impurity_control}


def run(config: ExperimentConfig, out_dir) -> tuple[dict, int]:
    """Execute the configured scenario, then the Lipschitz validation that
    every scenario ends with; returns (report dict, exit code).

    Artifacts land in ``out_dir``; the report is also written there as
    ``report.json`` with timings in ``timings.json``.  A stage failure
    retains earlier artifacts, marks the report and yields exit code 1.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep = _Report(config, out)
    try:
        SCENARIOS[config.scenario](rep, config)
        _lipschitz_stage(rep, config)
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
