"""Write every artifact of one source tree, so that two trees can be diffed.

    PYTHONPATH=TREE/src python3 .github/artifact_runs.py TREE HEAD OUT [SEED]

In the new directory OUT this runs the configs of TREE/configs at
``--seed 1801`` and again at each config's own seed (no ``--seed``), then
every step of the four benchmark workloads at SEED (default 1), with the
inputs built by HEAD/perfbench/workloads.py (imported, never written to),
then two ``orbit`` searches at SEED whose windows pass the full-scan cap,
so that their certificates are spot-scanned and their orbit tables are
scanned anew, then ``cmv --eig --profile all`` on the harmonic |alpha| =
0.9 window of 600 sites, whose two Rayleigh-Ritz runs of 79 angles are
each wider than a block of the spectrum, and ``gordon --q 8 --z-grid 389``
on the same window, whose 389 evidence rows fill three blocks of the
three-block solver and end 5 rows into a fourth: paths that no config or
workload step takes.
Every path the commands see is relative to OUT, so two trees that compute
the same thing write the same bytes; each step's label, exit
code and standard output go to OUT/exits.txt.  Compare two runs with
``diff -rq -x timings.json OUT_A OUT_B``.
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path


def main(tree: Path, head: Path, out: Path, seed: int) -> None:
    sys.path.insert(0, str(head / "perfbench"))
    import qpcmv.cli
    import workloads

    if not Path(qpcmv.cli.__file__).resolve().is_relative_to(tree / "src"):
        sys.exit(f"qpcmv imported from {qpcmv.cli.__file__}, not {tree}/src")
    out.mkdir(parents=True)
    os.chdir(out)
    # the configs are copied in, so that the scenarios workload reads them
    # at the same relative path in either tree
    shutil.copytree(tree / "configs", "configs")
    configs = sorted(Path("configs").glob("*.json"))
    steps = [(f"config-{p.stem}", ["run", "--config", str(p), "--seed",
                                   "1801", "--out", f"runs/{p.stem}"])
             for p in configs]
    steps += [(f"config-{p.stem}-own-seed",
               ["run", "--config", str(p), "--out", f"runs/{p.stem}-own-seed"])
              for p in configs]
    for name in workloads.DEFINITIONS:
        workload = workloads.build(name, Path("."), Path("workloads") / name,
                                   seed)
        steps += [(f"{name}/{s.label}", s.argv) for s in workload.steps]
    # golden q = 610 over 24 400 steps; liouville:2,4 skew q = 64 over 20 480
    spot_scans = {
        "rotation": ["--freq", "golden", "--epsilon", "1/1000", "--s", "40"],
        "skew": ["--system", "skew", "--freq", "liouville:2,4", "--omega",
                 "0,0", "--epsilon", "1/4", "--s", "320"],
    }
    steps += [(f"orbit-spot-scan-{kind}",
               ["orbit", *flags, "--seed", str(seed),
                "--out", f"orbit-spot-scan/{kind}"])
              for kind, flags in spot_scans.items()]
    window = "--window=-300:299"
    steps += [
        ("sample-harmonic-0.9",
         ["sample", "--family", "harmonic", "--params", "0.9,0", window,
          "--seed", str(seed), "--out", "wide-runs/sample"]),
        ("cmv-harmonic-0.9",
         ["cmv", "--seq-file", "wide-runs/sample/verblunsky.csv", window,
          "--eig", "--profile", "all", "--seed", str(seed),
          "--out", "wide-runs/cmv"]),
        ("gordon-harmonic-0.9-q8",
         ["gordon", "--seq-file", "wide-runs/sample/verblunsky.csv",
          "--q", "8", "--z-grid", "389", "--seed", str(seed),
          "--out", "wide-runs/gordon"]),
    ]

    with open("exits.txt", "w") as log:
        for label, argv in steps:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = qpcmv.cli.main(argv)
            log.write(f"{label}: exit {code}\n{stdout.getvalue()}")


if __name__ == "__main__":
    main(*(Path(p).resolve() for p in sys.argv[1:4]),
         int(sys.argv[4]) if len(sys.argv) > 4 else 1)
