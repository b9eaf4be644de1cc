"""Write every artifact of one source tree, so that two trees can be diffed.

    PYTHONPATH=TREE/src python3 .github/artifact_runs.py TREE HEAD OUT [SEED]

In the new directory OUT this runs the configs of TREE/configs at
``--seed 1801``, then every step of the four benchmark workloads at SEED
(default 1), with the inputs built by HEAD/perfbench/workloads.py
(imported, never written to).  Every path the commands see is relative to OUT, so two trees
that compute the same thing write the same bytes; each step's label, exit
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
    steps = [(f"config-{p.stem}", ["run", "--config", str(p), "--seed",
                                   "1801", "--out", f"runs/{p.stem}"])
             for p in sorted(Path("configs").glob("*.json"))]
    for name in workloads.DEFINITIONS:
        workload = workloads.build(name, Path("."), Path("workloads") / name,
                                   seed)
        steps += [(f"{name}/{s.label}", s.argv) for s in workload.steps]

    with open("exits.txt", "w") as log:
        for label, argv in steps:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = qpcmv.cli.main(argv)
            log.write(f"{label}: exit {code}\n{stdout.getvalue()}")


if __name__ == "__main__":
    main(*(Path(p).resolve() for p in sys.argv[1:4]),
         int(sys.argv[4]) if len(sys.argv) > 4 else 1)
