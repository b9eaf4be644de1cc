"""Command-line interface.

Subcommands mirror the library modules:

  frequency   continued-fraction table and approximation scores
  orbit       even-repetition search for rotations and skew-shifts
  sample      coefficient windows from sampling functions
  gordon      certification and spectral-evidence tables
  cmv         finite truncations: matrix dump, spectrum, profiles
  run         config-driven scenario pipeline

Every subcommand writes delimited output (CSV) plus a JSON summary into
--out and prints a single summary line; `run` exit status is 0 for PASS,
2 for evidence FAIL, 1 for an execution error.

A subcommand imports the numpy layers it uses (sampling, transfer, cmv,
pipeline) in its own body, so `frequency` and `orbit`, which are exact,
start without loading numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import artifacts
from .arith import as_fraction
from .artifacts import Rational
from .dynamics import (Rotation, SkewShift, TorusPoint, find_even_repetition,
                       orbit_table)
from .errors import QpcmvError
from .frequency import badly_approximable_score, parse_frequency


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_point(text: str) -> TorusPoint:
    return TorusPoint(text.split(","))


def _parse_complex(text: str) -> complex:
    fields = text.split(",")
    if len(fields) > 2:
        raise ValueError(text)
    return complex(*map(float, fields))


def _parse_flag(text: str, parse, flag: str, form: str):
    """A flag's value read by ``parse``.  A malformed value is an error
    naming the flag and its form; a well-formed one outside its domain
    (a zero denominator, say) keeps its own message."""
    try:
        return parse(text)
    except QpcmvError:
        raise
    except ValueError:
        raise QpcmvError(f"{flag} expects {form}, got {text!r}") from None


def _parse_pair(text: str, sep: str, parse, flag: str, form: str) -> tuple:
    """The two ``sep``-separated fields of a flag's value, each read by
    ``parse``, as ``_parse_flag`` reads one."""

    def pair(text):
        fields = text.split(sep)
        if len(fields) != 2:
            raise ValueError(text)
        return tuple(parse(x.strip()) for x in fields)

    return _parse_flag(text, pair, flag, form)


_FREQUENCY_FORM = "golden, liouville:BASE,DEPTH, P/Q or a decimal"
_RATIONAL_FORM = "P/Q or a decimal"
_POINT_FORM = "X[,Y] (P/Q or decimals)"


def _system(kind: str, freq, dim: int):
    """The rotation by ``freq`` on the ``dim``-torus, or the skew-shift."""
    if kind == "rotation":
        return Rotation([freq.value] * dim)
    return SkewShift(freq.value)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_frequency(args) -> int:
    if args.liouville:
        base, depth = _parse_pair(args.liouville, ",", int, "--liouville", "BASE,DEPTH")
        freq = parse_frequency(f"liouville:{base},{depth}")
    elif args.value:
        freq = _parse_flag(args.value, parse_frequency, "--value",
                           _FREQUENCY_FORM)
    else:
        raise QpcmvError("need --value or --liouville")
    out = _out_dir(args)
    scan = badly_approximable_score(freq, args.max_q)
    artifacts.write_frequency_csv(out / "frequency.csv", args.seed, freq, scan)
    artifacts.write_json(
        out / "frequency.json",
        {
            "seed": args.seed,
            "value": f"{freq.value.numerator}/{freq.value.denominator}",
            "float_value": float(freq.value),
            "partial_quotients": list(freq.partial_quotients),
            "convergent_denominators": list(freq.convergent_denominators()),
            "designated_denominators": list(freq.designated_denominators),
            "truncated": freq.truncated,
            "precision_limited": freq.precision_limited,
            "min_score": float(scan.min_score),
            "argmin_q": scan.argmin_q,
            "reported_badly_approximable": scan.reported_badly_approximable,
        },
    )
    print(
        f"frequency: min q*<qa> = {float(scan.min_score):.6g} at q={scan.argmin_q} "
        f"over q<={args.max_q}; badly-approximable (finite scan): "
        f"{scan.reported_badly_approximable}"
    )
    return 0


def _cmd_orbit(args) -> int:
    freq = _parse_flag(args.freq, parse_frequency, "--freq", _FREQUENCY_FORM)
    omega = _parse_flag(args.omega, _parse_point, "--omega", _POINT_FORM)
    eps = _parse_flag(args.epsilon, as_fraction, "--epsilon", _RATIONAL_FORM)
    s = _parse_flag(args.s, as_fraction, "--s", _RATIONAL_FORM)
    out = _out_dir(args)
    system = _system(args.system, freq, omega.dim)
    cert = find_even_repetition(system, omega, eps, s, args.qmax)
    if cert is None:
        artifacts.write_json(
            out / "orbit.json",
            {"seed": args.seed, "found": False, "qmax": args.qmax},
        )
        print(f"orbit: no even repetition time q <= {args.qmax}")
        return 0
    artifacts.write_orbit_csv(out / "orbit.csv", f"seed={args.seed} q={cert.q}",
                              orbit_table(system, omega, cert))
    artifacts.write_json(
        out / "orbit.json",
        {
            "seed": args.seed,
            "found": True,
            "q": cert.q,
            "epsilon": str(eps),
            "s": str(s),
            "window": cert.window,
            "max_deviation": float(cert.max_deviation),
            "validated": cert.validated,
        },
    )
    print(
        f"orbit: q={cert.q}, max deviation {float(cert.max_deviation):.6g} "
        f"over {cert.window + 1} steps ({cert.validated})"
    )
    return 0


@dataclass(frozen=True)
class _ConstructSpec:
    """The --construct-ck JSON object (README)."""

    freq: Rational
    center: tuple[Rational, ...]
    period: int
    radius: Rational  # or "auto", derived from epsilon
    values: tuple[tuple[float, float], ...] = field(
        metadata={"form": "a list of [re, im] pairs of numbers"})
    system: str = "rotation"
    epsilon: Optional[Rational] = None

    def __post_init__(self):
        if self.system not in ("rotation", "skew"):
            raise QpcmvError(f"construct spec system must be rotation or "
                             f"skew, got {self.system!r}")
        if self.system == "skew" and len(self.center) != 2:
            raise QpcmvError(f"skew-shift center needs 2 coordinates, "
                             f"got {len(self.center)}")
        if self.period < 1:
            raise QpcmvError(f"construct spec period must be an integer "
                             f">= 1, got {self.period}")
        if self.radius == "auto" and self.epsilon is None:
            raise QpcmvError("construct spec lacks epsilon")


def _cmd_sample(args) -> int:
    from .sampling import (ConstantFunction, HarmonicFunction, ball_radius,
                           tube_function, verblunsky_window)

    n_min, n_max = _parse_pair(args.window, ":", int, "--window", "N_MIN:N_MAX")
    flags = vars(args)  # a sample flag that is not given is absent
    if "construct_ck" in flags:
        given = [f"--{k}" for k in ("family", "params", "freq", "omega")
                 if k in flags]
        if given:
            raise QpcmvError(f"--construct-ck reads the frequency, point and "
                             f"values from its spec; drop {', '.join(given)}")
        with open(flags["construct_ck"]) as fh:
            spec = artifacts.read_fields(_ConstructSpec, json.load(fh),
                                         "construct spec")

        def rational(name, text):
            return _parse_flag(text, as_fraction,
                               f"construct spec field {name!r}", _RATIONAL_FORM)

        freq = _parse_flag(spec.freq, parse_frequency,
                           "construct spec field 'freq'", _FREQUENCY_FORM)
        center = TorusPoint([rational("center", c) for c in spec.center])
        system = _system(spec.system, freq, center.dim)
        if spec.radius == "auto":
            radius = ball_radius(system, center, spec.period,
                                 rational("epsilon", spec.epsilon)).radius
        else:
            radius = rational("radius", spec.radius)
        f = tube_function(system, center, spec.period, radius,
                          [complex(*v) for v in spec.values])
        omega = f.gordon_point()
    elif "family" not in flags:
        raise QpcmvError("sample needs --family or --construct-ck")
    else:
        families = {"constant": ConstantFunction, "harmonic": HarmonicFunction}
        f = families[args.family](_parse_flag(
            flags.get("params", "0.5,0"), _parse_complex, "--params",
            "RE[,IM]"))
        freq = _parse_flag(flags.get("freq", "golden"), parse_frequency,
                           "--freq", _FREQUENCY_FORM)
        omega = _parse_flag(flags.get("omega", "0"), _parse_point, "--omega",
                            _POINT_FORM)
        system = _system("rotation", freq, omega.dim)
    out = _out_dir(args)
    seq = verblunsky_window(f, system, omega, n_min, n_max)
    seq.to_csv(out / "verblunsky.csv", seed=args.seed)
    print(
        f"sample: wrote window [{n_min},{n_max}] "
        f"(sup|alpha| = {float(abs(seq.values).max()):.6g})"
    )
    return 0


def _cmd_gordon(args) -> int:
    from .sampling import VerblunskySequence
    from .transfer import certify_gordon, no_point_spectrum_evidence

    if args.z_grid < 1:
        raise QpcmvError(f"--z-grid expects an integer >= 1, got {args.z_grid}")
    if args.q is not None and args.q < 1:
        raise QpcmvError(f"--q expects an integer >= 1, got {args.q}")
    pairs = [_parse_pair(item, ":", int, "--k-list", "K:Q,K:Q,...")
             for item in args.k_list.split(",")]
    out = _out_dir(args)
    seq = VerblunskySequence.from_csv(args.seq_file)
    cert = certify_gordon(seq, pairs, sequence_id=Path(args.seq_file).stem)
    table = None
    if cert.largest_passing() is not None:
        table = no_point_spectrum_evidence(seq, certificate=cert, z_grid=args.z_grid)
    elif args.q is not None:
        table = no_point_spectrum_evidence(seq, q=args.q, z_grid=args.z_grid)
    doc = {
        "seed": args.seed,
        "sequence": cert.sequence_id,
        "levels": artifacts.gordon_levels(cert),
        "all_passed": cert.all_passed,
    }
    if table is not None:
        artifacts.write_evidence_csv(out / "evidence.csv", args.seed, table)
        doc["evidence"] = artifacts.evidence_summary(table)
    report_path = Path(args.report) if args.report else out / "gordon.json"
    artifacts.write_json(report_path, doc)
    worst = min((l.defect - l.threshold for l in cert.levels), default=0.0)
    line = (f"gordon: {'PASS' if cert.all_passed else 'FAIL'} "
            f"({len(cert.levels)} levels, worst slack {-worst:.3e})")
    if table:
        min_c = "none finite" if table.min_c is None else f"{table.min_c:.4g}"
        line += f"; evidence {table.verdict} (min c = {min_c})"
    print(line)
    return 0


def _cmd_cmv(args) -> int:
    from .cmv import assemble, eigenvector_profile, spectrum
    from .sampling import VerblunskySequence

    n_min, n_max = _parse_pair(args.window, ":", int, "--window", "N_MIN:N_MAX")
    boundary = _parse_pair(args.boundary, ";", _parse_complex, "--boundary",
                           "RE,IM;RE,IM (b-;b+)")
    if args.profile and args.profile != "all":
        i = _parse_flag(args.profile, int, "--profile", "IDX|all")
    out = _out_dir(args)
    seq = VerblunskySequence.from_csv(args.seq_file)
    op = assemble(seq, n_min, n_max, boundary=boundary)
    if args.profile == "all":
        indices = range(op.size)
    elif args.profile:
        if not 0 <= i < op.size:
            raise QpcmvError(f"--profile {i} is not an eigenvector index "
                             f"in [0, {op.size})")
        indices = [i]
    with open(out / "matrix.txt", "w") as fh:
        op.dump_triplets(fh, seed=args.seed)
    msg = (
        f"cmv: N={op.size}, unitarity defect {op.unitarity_defect:.3e}, "
        f"band agreement {op.band_agreement:.3e}"
    )
    if args.eig or args.profile:
        dec = spectrum(op)
        artifacts.write_eigenvalues_csv(out / "eigenvalues.csv", args.seed,
                                        dec)
        msg += f", max residual {float(dec.residuals.max()):.3e}"
        if args.profile:
            artifacts.write_profiles_csv(
                out / "profile.csv", args.seed,
                eigenvector_profile(op, dec, indices),
            )
    print(msg)
    return 0


def _cmd_run(args) -> int:
    from .pipeline import ExperimentConfig, run

    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    doc, code = run(cfg, args.out)
    for name, st in doc["stages"].items():
        if st["status"] == "failed":
            print(f"error: {name} stage: {st['error']}", file=sys.stderr)
    print(
        f"run[{cfg.scenario}]: {doc['overall']} "
        f"(verdicts: {', '.join(f'{k}={v}' for k, v in sorted(doc['verdicts'].items()))})"
    )
    return code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no state between
    ``parse_args`` calls, each of which returns a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="qpcmv",
        description="CMV operators with quasiperiodic Verblunsky coefficients",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=20240601)

    p = sub.add_parser("frequency", help="continued-fraction analysis")
    p.add_argument("--value", help="decimal, p/q, or 'golden'")
    p.add_argument("--liouville", metavar="BASE,DEPTH")
    p.add_argument("--max-q", type=int, default=1000)
    common(p)
    p.set_defaults(func=_cmd_frequency)

    p = sub.add_parser("orbit", help="even-repetition search")
    p.add_argument("--system", choices=("rotation", "skew"), default="rotation")
    p.add_argument("--freq", required=True)
    p.add_argument("--omega", default="0")
    p.add_argument("--epsilon", default="1/100")
    p.add_argument("--s", default="4")
    p.add_argument("--qmax", type=int, default=1000)
    common(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("sample", help="coefficient windows",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--family", choices=("constant", "harmonic"))
    p.add_argument("--params", help="default 0.5,0")
    p.add_argument("--construct-ck", metavar="FILE",
                   help="JSON tube-construction spec")
    p.add_argument("--freq", help="default golden")
    p.add_argument("--omega", help="default 0")
    p.add_argument("--window", default="-8:8", metavar="N_MIN:N_MAX")
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gordon", help="certification and evidence")
    p.add_argument("--seq-file", required=True)
    p.add_argument("--k-list", default="1:2", metavar="K:Q,K:Q,...")
    p.add_argument("--z-grid", type=int, default=512)
    p.add_argument("--q", type=int, help="explicit period for negative controls")
    p.add_argument("--report", metavar="OUT_JSON")
    common(p)
    p.set_defaults(func=_cmd_gordon)

    p = sub.add_parser("cmv", help="finite truncation diagnostics")
    p.add_argument("--seq-file", required=True)
    p.add_argument("--window", default="-25:24", metavar="N_MIN:N_MAX")
    p.add_argument("--boundary", default="1,0;1,0", metavar="RE,IM;RE,IM")
    p.add_argument("--eig", action="store_true")
    p.add_argument("--profile", metavar="IDX|all")
    common(p)
    p.set_defaults(func=_cmd_cmv)

    p = sub.add_parser("run", help="config-driven pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_run)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QpcmvError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
