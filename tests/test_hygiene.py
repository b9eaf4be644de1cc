"""Source hygiene: no module of the package imports a name it never uses,
and none imports another package module's private (underscore) names;
importing the CLI leaves scipy unloaded; the README's config table names
exactly the config fields.

Standard library only (``ast``, ``subprocess``).  ``__init__.py`` is
exempt from the unused-import check: its imports are the package's
re-exports.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg is only needed once a spectrum is computed, and importing
    # it roughly doubles the start-up time of every command
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qpcmv.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


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
