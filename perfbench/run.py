"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The launcher

- sets ``PYTHONPATH`` to the checkout's ``src`` and the BLAS thread count
  (``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/``MKL_NUM_THREADS``) to
  ``BLAS_THREADS``, and records it with the number of CPUs;
- runs the workload in one fresh worker process (``worker.py``), which
  also measures the set-up time.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.
Everything else (environment record, checks, passes, per-layer values)
goes to ``perfbench/_work/results/`` and to the lines printed before the
last one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# One BLAS thread: on a 2-CPU machine, two OpenBLAS threads made the
# scenarios pass slower (median 2.46 s against 1.77 s) and the dense
# Schur no faster, and their spin-waiting tracked every stall of the
# second CPU, which widened the spread between runs.
BLAS_THREADS = 1
# A worker that hangs is stopped here, so that a run still ends within 180 s.
RUN_LIMIT_S = 175.0


def git_commit(root: Path) -> str:
    """HEAD commit of the checkout; 'unknown' outside git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_worker(args, root: Path, env: dict, work: Path, result: Path,
               deadline: float) -> int:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(root), "--work", str(work), "--result", str(result),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("run: worker exceeded the time limit", file=sys.stderr)
        return -1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _terminate(signum, frame):
    # unwinds through run_worker's finally, which stops the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description="qpcmv benchmark: one workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "qpcmv" / "cli.py").is_file() or not spec_path.is_file():
        print(f"run: {root} holds no src/qpcmv or no BENCHMARK.json; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"run: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = child_env(root, BLAS_THREADS)
    base = HERE / "_work"
    work = base / f"{args.workload}-{os.getpid()}"
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = results_dir / f"{stem}.json"
    result_path.unlink(missing_ok=True)

    try:
        code = run_worker(args, root, env, work, result_path, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not result_path.is_file():
        print(f"run: worker exited with {code}", file=sys.stderr)
        return 3

    res = json.loads(result_path.read_text())
    res["why"] = why[args.workload]
    setup = res["setup_s_samples"]
    res["setup_s"] = statistics.median(setup)
    res["environment"] = {
        "commit": git_commit(root),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: env[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "versions": res.pop("versions"),
    }
    res["fail_ratio"] = res["failed"] / res["attempted"] if res["attempted"] else 1.0

    if args.trace:
        metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {"wall_s": res["wall_s"], "setup_s": res["setup_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    res["metrics"] = metrics
    result_path.write_text(json.dumps(res, indent=1) + "\n")

    n_untraced = sum(1 for p in res["passes"] if not p["traced"])
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    print(f"workload {args.workload}: {res['why']}")
    samples = {"setup_s": f"median of {len(setup)} interpreters",
               "peak_rss_mb": "worker process peak"}
    n_passes = len(res["passes"]) - n_untraced if args.trace else n_untraced
    for name, m in metrics.items():
        how = samples.get(name, f"median of {n_passes} passes")
        print(f"  {name} = {m['value']:.6g} {m['unit']} ({how})")
    print(f"  fail_ratio = {res['fail_ratio']:.6g} "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    for line in res["failures"][:10]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
