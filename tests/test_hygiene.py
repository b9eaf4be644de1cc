"""Source hygiene: no module of the package imports a name it never uses,
and none imports another package module's private (underscore) names;
importing the CLI leaves scipy and mpmath unloaded; the README's config table names
exactly the config fields, and its library tour only names that exist;
every subcommand ends malformed input with exit 1 and an ``error:`` line,
never a traceback; every oracle in ``tests/oracles.py`` is imported by a
test module.

The source checks use the standard library only (``ast``,
``subprocess``).  ``__init__.py`` is exempt from the unused-import check:
its imports are the package's re-exports.
"""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qpcmv import cli
from qpcmv.pipeline import CONFIG_SCHEMA

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpcmv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                a.asname or a.name.split(".")[0] for a in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_only_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]) -> None:\n"
        "    print(sys.argv, np.pi)\n"
    )
    assert unused_imports(src) == ["Sequence", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names (dunders aside) imported from a module of
    the package, by relative or absolute import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "qpcmv":
            continue
        found.extend(
            f"{module}.{a.name}" for a in node.names
            if a.name.startswith("_") and not a.name.endswith("__")
        )
    return sorted(found)


def test_private_import_detector():
    src = (
        "from . import __version__\n"
        "from .pipeline import ExperimentConfig, _write_json\n"
        "from qpcmv.cmv import _cmul\n"
        "from os import _exit\n"
    )
    assert private_imports(src) == ["pipeline._write_json", "qpcmv.cmv._cmul"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def loaded_after_cli_import(module: str) -> bool:
    """Is ``module`` in sys.modules once a fresh interpreter has imported
    the CLI?"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, qpcmv.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg is only needed once a spectrum is computed, and importing
    # it roughly doubles the start-up time of every command
    assert not loaded_after_cli_import("scipy")


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is only needed to round the golden mean, set a working
    # precision or convert an mpf input; importing it costs every command
    # about 0.03 s of start-up
    assert not loaded_after_cli_import("mpmath")


def test_readme_config_table_lists_the_config_fields():
    # the fields of ExperimentConfig, read from its class body, against
    # the backticked names in the first column of the README table
    tree = ast.parse((SRC / "pipeline.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef)
               and n.name == "ExperimentConfig")
    config_fields = {n.target.id for n in cls.body
                     if isinstance(n, ast.AnnAssign)}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Config schema")[1].split("\n#")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    listed = [name for row in rows
              for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert len(listed) == len(set(listed))
    assert set(listed) == config_fields


def tour_names(module) -> set[str]:
    """What a Library tour bullet on ``module`` may name: the module's
    names, and the attributes and dataclass fields of its classes."""
    names = set(vars(module))
    for cls in vars(module).values():
        if isinstance(cls, type) and cls.__module__ == module.__name__:
            names.update(dir(cls))
            if dataclasses.is_dataclass(cls):
                names.update(f.name for f in dataclasses.fields(cls))
    return names


def test_readme_library_tour_names_resolve():
    # each bullet opens with `qpcmv.<module>`; every other backticked span
    # that is a bare identifier must be a name that module provides
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library tour")[1].split("\n## ")[0]
    bullets = re.split(r"^- ", section, flags=re.M)[1:]
    assert bullets
    stale = []
    for bullet in bullets:
        head, *spans = re.findall(r"`([^`]+)`", bullet)
        names = tour_names(importlib.import_module(head))
        stale += [f"{head}: {s}" for s in spans
                  if re.fullmatch(r"[A-Za-z_]\w*", s) and s not in names]
    assert stale == []


def tube_spec(**fields):
    """A valid --construct-ck spec with ``fields`` replaced."""
    spec = {"system": "rotation", "freq": "golden", "center": ["0"],
            "period": 2, "radius": "1/1000", "values": [[0.1, 0], [0.2, 0]]}
    return {**spec, **fields}


# (id, argv, contents of the file "{input}" names or None[, the start of
# one stderr line]); each row must end with exit 1 and an error line on
# stderr, and a row that names a line must print it
MALFORMED_ARGV = [
    ("frequency-zero-denominator", ["frequency", "--value", "1/0"], None),
    ("orbit-freq-zero-denominator", ["orbit", "--freq", "1/0"], None),
    ("orbit-epsilon-zero-denominator",
     ["orbit", "--freq", "golden", "--epsilon", "1/0"], None),
    ("orbit-s-zero-denominator",
     ["orbit", "--freq", "golden", "--s", "1/0"], None),
    ("orbit-omega-zero-denominator",
     ["orbit", "--freq", "golden", "--omega", "1/0"], None),
    ("orbit-skew-1d-omega",
     ["orbit", "--system", "skew", "--freq", "golden", "--omega", "0"], None),
    ("sample-omega-zero-denominator",
     ["sample", "--family", "constant", "--omega", "1/0"], None),
    ("sample-construct-freq-zero-denominator",
     ["sample", "--construct-ck", "{input}"], tube_spec(freq="1/0")),
    ("sample-construct-center-zero-denominator",
     ["sample", "--construct-ck", "{input}"], tube_spec(center=["1/0"])),
    ("sample-construct-radius-zero-denominator",
     ["sample", "--construct-ck", "{input}"], tube_spec(radius="1/0")),
    ("sample-construct-epsilon-zero-denominator",
     ["sample", "--construct-ck", "{input}"],
     tube_spec(radius="auto", epsilon="1/0")),
    ("sample-construct-radius-zero",
     ["sample", "--construct-ck", "{input}"], tube_spec(radius="0")),
    ("sample-construct-radius-negative",
     ["sample", "--construct-ck", "{input}"], tube_spec(radius="-1/100")),
    ("gordon-missing-sequence", ["gordon", "--seq-file", "{missing}"], None),
    ("cmv-sequence-without-header", ["cmv", "--seq-file", "{input}"],
     "n,re,im\n0,0,0\n"),
    ("run-omega-zero-denominator", ["run", "--config", "{input}"],
     {"schema": CONFIG_SCHEMA, "scenario": "liouville-rotation",
      "omega": ["1/0"]}),
    # zero samples once reported lipschitz PASS from no evidence, and a
    # negative seed failed inside numpy
    ("run-lipschitz-samples-zero", ["run", "--config", "{input}"],
     {"schema": CONFIG_SCHEMA, "scenario": "free", "cmv_n": 20,
      "z_grid": 16, "lipschitz_samples": 0}),
    ("run-seed-negative", ["run", "--config", "{input}"],
     {"schema": CONFIG_SCHEMA, "scenario": "free", "cmv_n": 20,
      "z_grid": 16, "seed": -1}),
    # at r = 0 every sampled triple was dropped, and lipschitz read PASS
    ("run-lipschitz-r-zero", ["run", "--config", "{input}"],
     {"schema": CONFIG_SCHEMA, "scenario": "free", "cmv_n": 20,
      "z_grid": 16, "lipschitz_r": 0},
     "error: lipschitz-validation stage:"),
    # malformed flag values once surfaced as "invalid literal for int()"
    # or "not enough values to unpack"; the flags are read before any file
    ("sample-window-not-integers",
     ["sample", "--family", "constant", "--window=a:b"], None,
     "error: --window expects N_MIN:N_MAX"),
    ("sample-window-one-field",
     ["sample", "--family", "constant", "--window=5"], None,
     "error: --window expects N_MIN:N_MAX"),
    ("cmv-window-three-fields",
     ["cmv", "--seq-file", "{missing}", "--window=1:2:3"], None,
     "error: --window expects N_MIN:N_MAX"),
    ("cmv-boundary-one-field",
     ["cmv", "--seq-file", "{missing}", "--boundary", "1"], None,
     "error: --boundary expects RE,IM;RE,IM"),
    ("cmv-boundary-not-a-number",
     ["cmv", "--seq-file", "{missing}", "--boundary", "1,a;1,0"], None,
     "error: --boundary expects RE,IM;RE,IM"),
    ("gordon-k-list-one-field",
     ["gordon", "--seq-file", "{missing}", "--k-list", "1:2,3"], None,
     "error: --k-list expects K:Q"),
    # scalar flags once surfaced as "could not convert string to float",
    # "Invalid literal for Fraction" or "not enough values to unpack"
    ("sample-params-not-a-number",
     ["sample", "--family", "constant", "--params", "a"], None,
     "error: --params expects RE[,IM], got 'a'"),
    ("sample-omega-not-a-number",
     ["sample", "--family", "constant", "--omega", "x"], None,
     "error: --omega expects"),
    ("orbit-epsilon-not-a-number",
     ["orbit", "--freq", "golden", "--epsilon", "abc"], None,
     "error: --epsilon expects P/Q or a decimal, got 'abc'"),
    ("orbit-s-not-a-number", ["orbit", "--freq", "golden", "--s", "q"], None,
     "error: --s expects"),
    ("orbit-freq-not-a-frequency", ["orbit", "--freq", "zz"], None,
     "error: --freq expects"),
    ("frequency-value-not-a-frequency", ["frequency", "--value", "zz"], None,
     "error: --value expects"),
    ("frequency-liouville-one-field", ["frequency", "--liouville", "x"], None,
     "error: --liouville expects BASE,DEPTH, got 'x'"),
]


def test_malformed_table_covers_every_subcommand():
    # the subcommands as the CLI's module docstring lists them
    commands = set(re.findall(r"^  (\w+) ", cli.__doc__, re.M))
    assert len(commands) == 6
    assert commands == {row[1][0] for row in MALFORMED_ARGV}


@pytest.mark.parametrize("argv,contents,line",
                         [(*row[1:3], (row[3:] or ["error: "])[0])
                          for row in MALFORMED_ARGV],
                         ids=[row[0] for row in MALFORMED_ARGV])
def test_cli_rejects_malformed_input(tmp_path, capsys, argv, contents, line):
    path = tmp_path / "input"
    if contents is not None:
        path.write_text(contents if isinstance(contents, str)
                        else json.dumps(contents))
    argv = [a.format(input=path, missing=tmp_path / "missing.csv")
            for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert any(x.startswith(line) for x in err.splitlines()), err
    if line.startswith("error: --"):  # a malformed flag: nothing written
        assert not (tmp_path / "out").exists()


def test_every_oracle_is_imported_by_a_test():
    # an oracle that no test module imports checks nothing; the top-level
    # functions of tests/oracles.py against the names test modules import
    tests = ROOT / "tests"
    tree = ast.parse((tests / "oracles.py").read_text())
    oracles = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert oracles
    imported = set()
    for path in tests.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                imported.update(a.name for a in node.names)
    assert sorted(oracles - imported) == []
