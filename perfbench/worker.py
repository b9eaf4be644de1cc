"""One workload in one fresh process: a closed loop with a single client.

The process imports ``qpcmv.cli`` once, then repeats passes until the time
budget is spent.  A pass calls ``qpcmv.cli.main(argv)`` for every step in
order; its wall time runs from the first call to the return of the last.
Output checks run after each pass, outside the timed region.  In a traced
run, untraced and traced passes alternate, so the tracing overhead is
measured against untraced passes of the same process.

Set-up time is measured ``SETUP_PROBES`` times, each in a fresh
interpreter, from just before it is started until ``import qpcmv.cli`` has
returned.  The probes run between passes, spread over the run, so that
they see the same machine as the passes do.

Started by ``run.py``, which sets ``PYTHONPATH`` and the BLAS thread count;
the result is written as JSON to ``--result``.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import qpcmv.cli  # noqa: E402  (timed: the set-up users pay)

T_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


SETUP_PROBES = 5
PROBE = "import time, qpcmv.cli; print(repr(time.monotonic()))"


def probe_setup(root: Path) -> float:
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=root, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout.split()[-1]) - t0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _out_dir(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(wl: workloads.Workload, tracer=None):
    """Run every step once; returns (wall seconds, step results)."""
    results = []
    t0 = time.perf_counter()
    for step in wl.steps:
        buf = io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(buf):
                code = qpcmv.cli.main(list(step.argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # noqa: BLE001  a crash fails the step
            error = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.add("cli.artifact_bytes", _dir_bytes(_out_dir(step.argv)))
        results.append(
            workloads.StepResult(step.label, code, buf.getvalue(), error)
        )
    return time.perf_counter() - t0, results


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.DEFINITIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    src = Path(qpcmv.cli.__file__).resolve()
    if root / "src" not in src.parents:
        print(f"worker: qpcmv imported from {src}, not from {root}/src",
              file=sys.stderr)
        return 3

    wl = workloads.build(args.workload, root, Path(args.work), args.seed)
    out_root = Path(args.work) / "out"
    tracer = spans.Tracer() if args.trace else None
    # the spans of a traced run go next to its result: X.json -> X.spans.jsonl
    trace_fh = (open(Path(args.result).with_suffix(".spans.jsonl"), "w")
                if tracer else None)

    passes, layer_rows = [], []
    attempted = failed = 0
    failures: list[str] = []
    digests: dict[str, str] = {}
    setup: list[float] = []
    t_loop = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            # every pass writes into an empty out/, so its checks read only
            # what it wrote itself
            shutil.rmtree(out_root)
            out_root.mkdir()
            restore = None
            if traced:
                tracer.begin_pass(len(passes))
                restore = spans.install(tracer)
            cpu0 = _cpu_s()
            try:
                wall, results = run_pass(wl, tracer if traced else None)
            finally:
                if restore is not None:
                    restore()
            cpu = _cpu_s() - cpu0
            passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu})

            checks = wl.check(results, out_root)
            if traced:
                recorded = {s.name for s in tracer.spans}
                checks.extend((f"span.{name}", name in recorded, "span recorded")
                              for name in wl.traced_spans)
            for rel in wl.stable_files:
                digest = workloads.file_digest(out_root / rel)
                first = digests.setdefault(rel, digest)
                checks.append((f"{rel}.identical", digest is not None
                               and digest == first, "bytes match pass 0"))
            attempted += len(checks)
            for name, ok, detail in checks:
                if not ok:
                    failed += 1
                    failures.append(f"pass {len(passes) - 1}: {name}: {detail}")

            if traced:
                row = spans.pass_metrics(tracer)
                row["proc.cpu_s"] = cpu
                row["proc.cpu_per_wall"] = cpu / wall
                row["trace.wall_s"] = wall
                layer_rows.append(row)
                if trace_fh is not None:
                    for rec in tracer.records():
                        trace_fh.write(json.dumps(rec) + "\n")

            due = max(1, int(SETUP_PROBES * (time.perf_counter() - t_loop)
                             / args.seconds))
            while len(setup) < min(due, SETUP_PROBES):
                setup.append(probe_setup(root))

            # Closed loop: the next pass starts only if a pass of its kind,
            # at the median so far, still ends within the budget; a traced
            # run needs one pass of each kind.
            nxt_traced = tracer is not None and len(passes) % 2 == 1
            same = [p["wall_s"] for p in passes if p["traced"] == nxt_traced]
            expected = _median(same or [wall])
            enough = len(passes) >= (2 if tracer is not None else 1)
            if enough and time.perf_counter() - t_loop + expected > args.seconds:
                break
    finally:
        if trace_fh is not None:
            trace_fh.close()
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(root))

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    layers = {}
    if layer_rows:
        names = sorted({k for row in layer_rows for k in row})
        layers = {k: _median([row.get(k, 0.0) for row in layer_rows]) for k in names}
        # pass 0 is the cold one; leave it out of the reference when a
        # warm untraced pass exists
        reference = untraced[1:] or untraced
        layers["trace.untraced_wall_s"] = _median(reference)
        layers["trace.overhead_ratio"] = (
            _median(traced_walls) / _median(reference) - 1.0)

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "sizes": wl.sizes,
        "steps": [{"label": s.label, "expect_exit": s.expect_exit,
                   "argv": [a.replace(f"{root}/", "") for a in s.argv]}
                  for s in wl.steps],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
        "worker_import_s": T_IMPORTED - T_START,
        "setup_s_samples": setup,
        "passes": passes,
        "wall_s": _median(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "layers": layers,
    }
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
