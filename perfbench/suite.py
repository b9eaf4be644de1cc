"""Run every workload and print every metric by name, unit and sample count.

    python3 perfbench/suite.py [--runs 10] [--seed 1]

Run from the root of a checkout.  For each workload of ``BENCHMARK.json``
it makes ``--runs`` untraced runs of ``run.py`` of ``run_seconds`` each,
each with its own seed (``--seed``, ``--seed + 1``, ...), then one traced
run.  It prints per end-to-end metric the median over runs, the quartile
spread as a share of the median and the number of runs, the output-check
totals with ``fail_ratio``, and the traced run's per-layer metrics with the
traced ``wall_s`` against the untraced median (the tracing overhead).  The whole summary is written as JSON to
``perfbench/_work/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SUMMARY = HERE / "_work" / "suite.json"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"suite: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for fewer than 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    summary = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [run_once(wl, args.seed + i, seconds, 0) for i in range(args.runs)]
        traced = run_once(wl, args.seed, seconds, 1)
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        e2e = {}
        print(f"== {wl}: {next(w['why'] for w in spec['workloads'] if w['name'] == wl)}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            e2e[m["name"]] = {
                "unit": m["unit"], "median": statistics.median(vals),
                "spread": spread(vals), "bound": m["bound"], "samples": len(vals),
                "values": vals,
            }
            print(f"  {m['name']} = {e2e[m['name']]['median']:.6g} {m['unit']} "
                  f"(median of {len(vals)} runs, spread {spread(vals):.3f}, "
                  f"bound {m['bound']})")
        fail_ratio = failed / attempted if attempted else 1.0
        print(f"  checks: {failed} failed of {attempted} attempted, "
              f"fail_ratio = {fail_ratio:.6g}")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = e2e["wall_s"]["median"]
        overhead = layers["trace.wall_s"] / untraced - 1.0 if untraced else 0.0
        print(f"  traced wall_s = {layers['trace.wall_s']:.6g} s against the "
              f"untraced median {untraced:.6g} s: overhead {overhead:+.3f}")
        for m in spec["per_layer"]:
            if layers.get(m["name"]):
                print(f"    {m['name']} = {layers[m['name']]:.6g} {m['unit']}")
        record = json.loads((HERE / "_work" / "results" /
                             f"{wl}-seed{args.seed}-trace1.json").read_text())
        summary["workloads"][wl] = {
            "why": record["why"],
            "sizes": record["sizes"],
            "steps": record["steps"],
            "environment": record["environment"],
            "end_to_end": e2e,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": fail_ratio,
            "per_layer": layers,
            "trace_overhead_vs_untraced_median": overhead,
        }
    SUMMARY.parent.mkdir(parents=True, exist_ok=True)
    SUMMARY.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {SUMMARY}")
    return 0 if all(w["failed"] == 0 for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
