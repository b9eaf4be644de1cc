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
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import artifacts
from .arith import DEFAULT_PRECISION_BITS, as_fraction
from .cmv import assemble, eigenvector_profile, spectrum
from .dynamics import Rotation, SkewShift, TorusPoint, find_even_repetition
from .errors import QpcmvError
from .frequency import badly_approximable_score, parse_frequency
from .pipeline import ExperimentConfig, run
from .sampling import (
    ConstantFunction,
    HarmonicFunction,
    VerblunskySequence,
    tube_function,
    verblunsky_window,
)
from .transfer import certify_gordon, no_point_spectrum_evidence


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_point(text: str) -> TorusPoint:
    return TorusPoint([as_fraction(c) for c in text.split(",")])


def _parse_complex(text: str) -> complex:
    re, im = (text.split(",") + ["0"])[:2]
    return complex(float(re), float(im))


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


def _parse_frequency_flag(text: str, bits: int, flag: str = "--freq"):
    return _parse_flag(text, lambda t: parse_frequency(t, bits=bits), flag,
                       _FREQUENCY_FORM)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_frequency(args) -> int:
    if args.liouville:
        base, depth = _parse_pair(args.liouville, ",", int, "--liouville", "BASE,DEPTH")
        freq = parse_frequency(f"liouville:{base},{depth}", bits=args.precision_bits)
    elif args.value:
        freq = _parse_frequency_flag(args.value, args.precision_bits, "--value")
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
    freq = _parse_frequency_flag(args.freq, args.precision_bits)
    omega = _parse_flag(args.omega, _parse_point, "--omega", _POINT_FORM)
    eps = _parse_flag(args.epsilon, as_fraction, "--epsilon", _RATIONAL_FORM)
    s = _parse_flag(args.s, as_fraction, "--s", _RATIONAL_FORM)
    out = _out_dir(args)
    if args.system == "rotation":
        system = Rotation([freq.value] * omega.dim)
    else:
        system = SkewShift(freq.value)
    cert = find_even_repetition(system, omega, eps, s, args.qmax)
    if cert is None:
        artifacts.write_json(
            out / "orbit.json",
            {"seed": args.seed, "found": False, "qmax": args.qmax},
        )
        print(f"orbit: no even repetition time q <= {args.qmax}")
        return 0
    artifacts.write_orbit_csv(
        out / "orbit.csv", f"seed={args.seed} q={cert.q}", system, omega, cert
    )
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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_scalar(x) -> bool:
    """A JSON string or number, as accepted for exact rationals."""
    return isinstance(x, str) or _is_number(x)


def _read_construct_spec(path) -> dict:
    """The --construct-ck JSON object, checked before any field is used."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise QpcmvError("construct spec must be a JSON object")
    required = ["freq", "center", "period", "radius", "values"]
    if spec.get("radius") == "auto":
        required.append("epsilon")
    missing = [k for k in required if k not in spec]
    if missing:
        raise QpcmvError(f"construct spec lacks {', '.join(missing)}")
    system = spec.get("system", "rotation")
    if system not in ("rotation", "skew"):
        raise QpcmvError(f"construct spec system must be rotation or skew, "
                         f"got {system!r}")
    center = spec["center"]
    if not (isinstance(center, list) and center
            and all(_is_scalar(c) for c in center)):
        raise QpcmvError("construct spec center must be a non-empty list of "
                         "numbers or strings")
    if system == "skew" and len(center) != 2:
        raise QpcmvError(f"skew-shift center needs 2 coordinates, "
                         f"got {len(center)}")
    period = spec["period"]
    if not (isinstance(period, int) and not isinstance(period, bool)
            and period >= 1):
        raise QpcmvError(f"construct spec period must be an integer >= 1, "
                         f"got {period!r}")
    values = spec["values"]
    if not (isinstance(values, list) and all(
            isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
            for v in values)):
        raise QpcmvError("construct spec values must be [re, im] pairs of "
                         "numbers")
    for key in ("freq", "radius", "epsilon"):
        if key in spec and not _is_scalar(spec[key]):
            raise QpcmvError(f"construct spec {key} must be a number or a "
                             f"string, got {spec[key]!r}")
    return spec


def _cmd_sample(args) -> int:
    n_min, n_max = _parse_pair(args.window, ":", int, "--window", "N_MIN:N_MAX")
    if args.construct_ck:
        spec = _read_construct_spec(args.construct_ck)
        freq = parse_frequency(str(spec["freq"]), bits=args.precision_bits)
        center = TorusPoint([as_fraction(str(c)) for c in spec["center"]])
        if spec.get("system", "rotation") == "rotation":
            system = Rotation([freq.value] * center.dim)
        else:
            system = SkewShift(freq.value)
        values = [complex(v[0], v[1]) for v in spec["values"]]
        period = int(spec["period"])
        radius_spec = spec["radius"]
        if radius_spec == "auto":
            from .sampling import ball_radius

            radius = ball_radius(
                system, center, period, as_fraction(str(spec["epsilon"]))
            ).radius
        else:
            radius = as_fraction(str(radius_spec))
        f = tube_function(system, center, period, radius, values)
        omega = f.gordon_point()
    else:
        families = {"constant": ConstantFunction, "harmonic": HarmonicFunction}
        if args.family not in families:
            raise QpcmvError(f"unknown family {args.family!r}")
        f = families[args.family](
            _parse_flag(args.params, _parse_complex, "--params", "RE[,IM]"))
        freq = _parse_frequency_flag(args.freq, args.precision_bits)
        omega = _parse_flag(args.omega, _parse_point, "--omega", _POINT_FORM)
        system = Rotation([freq.value] * omega.dim)
    out = _out_dir(args)
    seq = verblunsky_window(f, system, omega, n_min, n_max)
    seq.to_csv(out / "verblunsky.csv", seed=args.seed)
    print(
        f"sample: wrote window [{n_min},{n_max}] "
        f"(sup|alpha| = {float(np.abs(seq.values).max()):.6g})"
    )
    return 0


def _cmd_gordon(args) -> int:
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
    print(
        f"gordon: {'PASS' if cert.all_passed else 'FAIL'} "
        f"({len(cert.levels)} levels, worst slack {-worst:.3e})"
        + (f"; evidence {table.verdict} (min c = {table.min_c:.4g})" if table else "")
    )
    return 0


def _cmd_cmv(args) -> int:
    n_min, n_max = _parse_pair(args.window, ":", int, "--window", "N_MIN:N_MAX")
    boundary = _parse_pair(args.boundary, ";", _parse_complex, "--boundary",
                           "RE,IM;RE,IM (b-;b+)")
    out = _out_dir(args)
    seq = VerblunskySequence.from_csv(args.seq_file)
    op = assemble(seq, n_min, n_max, boundary=boundary)
    if args.profile == "all":
        indices = range(op.size)
    elif args.profile:
        i = int(args.profile)
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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qpcmv",
        description="CMV operators with quasiperiodic Verblunsky coefficients",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, precision=False):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=20240601)
        if precision:
            p.add_argument(
                "--precision-bits", type=int, default=DEFAULT_PRECISION_BITS
            )

    p = sub.add_parser("frequency", help="continued-fraction analysis")
    p.add_argument("--value", help="decimal, p/q, or 'golden'")
    p.add_argument("--liouville", metavar="BASE,DEPTH")
    p.add_argument("--max-q", type=int, default=1000)
    common(p, precision=True)
    p.set_defaults(func=_cmd_frequency)

    p = sub.add_parser("orbit", help="even-repetition search")
    p.add_argument("--system", choices=("rotation", "skew"), default="rotation")
    p.add_argument("--freq", required=True)
    p.add_argument("--omega", default="0")
    p.add_argument("--epsilon", default="1/100")
    p.add_argument("--s", default="4")
    p.add_argument("--qmax", type=int, default=1000)
    common(p, precision=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("sample", help="coefficient windows")
    p.add_argument("--family", choices=("constant", "harmonic"))
    p.add_argument("--params", default="0.5,0")
    p.add_argument("--construct-ck", metavar="FILE",
                   help="JSON tube-construction spec")
    p.add_argument("--freq", default="golden")
    p.add_argument("--omega", default="0")
    p.add_argument("--window", default="-8:8", metavar="N_MIN:N_MAX")
    common(p, precision=True)
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
