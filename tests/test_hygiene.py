"""Source hygiene: no module of the package imports a name it never uses,
and none imports another package module's private (underscore) names;
``artifacts`` imports no package module but ``errors``, and its typed
reader resolves each field type once per read, however long a list;
importing the CLI leaves numpy, scipy and mpmath unloaded, the exact
commands (``frequency``, ``orbit``) never load numpy, no command loads
mpmath, and the third-party packages the source imports are the runtime
dependencies ``pyproject.toml`` declares; the package
resolves each exported name from its submodule on first access; the
README's config table names exactly the config fields, its CLI section
names every option of every subcommand, and its library tour only names
that exist; every subcommand ends malformed input with exit 1 and an
``error:`` line, never a traceback; every oracle in ``tests/oracles.py``
is imported by a test module; every top-level symbol that no command or
scenario reaches is on an allowlist, with its reason.

The source checks use the standard library only (``ast``,
``subprocess``).
"""

import argparse
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

from qpcmv import artifacts, cli
from qpcmv.pipeline import CONFIG_SCHEMA

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpcmv"
MODULES = sorted(SRC.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source`` imports, by relative or
    absolute import, named without the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "qpcmv"):  # from . import x: module x
                modules = [f"qpcmv.{a.name}" for a in node.names]
            else:
                modules = [module.replace(".", "qpcmv.", node.level > 0)]
        else:
            continue
        found |= {m.removeprefix("qpcmv.") for m in modules
                  if m.startswith("qpcmv.")}
    return found


def test_package_import_detector():
    src = ("import os, qpcmv.cmv\n"
           "from . import artifacts\n"
           "from .errors import QpcmvError\n"
           "from qpcmv.dynamics import TorusPoint\n"
           "from qpcmv import sampling\n")
    assert package_imports(src) == {"cmv", "artifacts", "errors", "dynamics",
                                    "sampling"}


def test_artifacts_imports_only_errors():
    # the formats sit below every layer: what a table holds is chosen in
    # the layer that computes it (an orbit table in dynamics), and
    # artifacts only writes it
    assert package_imports((SRC / "artifacts.py").read_text()) == {"errors"}


def loaded_after(module: str, code: str = "import qpcmv.cli") -> bool:
    """Is ``module`` in sys.modules once a fresh interpreter has run
    ``code``?"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport sys; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.splitlines()[-1] == "True"


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg is only needed once a spectrum is computed, and importing
    # it roughly doubles the start-up time of every command
    assert not loaded_after("scipy")


def test_cli_import_leaves_mpmath_unloaded():
    # importing mpmath costs a command about 0.03 s of start-up
    assert not loaded_after("mpmath")


def test_cli_import_leaves_numpy_unloaded():
    # numpy is about half the start-up time of a command; only sample,
    # gordon, cmv and run use it
    assert not loaded_after("numpy")


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    # frequency and orbit use Fraction and integer arithmetic only
    code = (
        "from qpcmv import cli\n"
        f"assert cli.main(['frequency', '--value', 'golden', '--out', "
        f"{str(tmp_path / 'f')!r}]) == 0\n"
        f"assert cli.main(['orbit', '--freq', 'golden', '--out', "
        f"{str(tmp_path / 'o')!r}]) == 0"
    )
    assert not loaded_after("numpy", code)


def test_golden_commands_leave_mpmath_unloaded(tmp_path):
    # the golden mean is rounded by an integer square root, and the
    # package imports mpmath nowhere; an mpf is only ever a caller's input
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tube_spec()))
    out = str(tmp_path / "out")
    code = "\n".join(
        f"assert cli.main({argv!r} + ['--out', {out!r}]) == 0"
        for argv in (
            ["frequency", "--value", "golden"],
            ["orbit", "--freq", "golden"],
            ["orbit", "--system", "skew", "--freq", "golden",
             "--omega", "0,0"],
            ["sample", "--family", "harmonic", "--freq", "golden"],
            ["sample", "--construct-ck", str(spec)],
        )
    )
    assert not loaded_after("mpmath", "from qpcmv import cli\n" + code)


def imported_packages(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source``, those inside
    functions included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_third_party_imports_are_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", d).group() for d in deps}
    imported = set().union(*(imported_packages(p.read_text())
                             for p in MODULES))
    third_party = imported - set(sys.stdlib_module_names) - {"qpcmv"}
    assert third_party == declared == {"numpy", "scipy"}


def test_package_names_are_their_submodules_objects():
    # each exported name is read from the submodule that defines it; the
    # package exports 52 names
    import qpcmv

    assert len(set(qpcmv.__all__)) == len(qpcmv.__all__) == 52
    for name in qpcmv.__all__:
        home = importlib.import_module(f"qpcmv.{qpcmv._SUBMODULE[name]}")
        assert getattr(qpcmv, name) is vars(home)[name], name
        # the defining submodule is an attribute too, as when it was
        # imported eagerly
        assert qpcmv.__getattr__(qpcmv._SUBMODULE[name]) is home
    namespace = {}
    exec("from qpcmv import *", namespace)
    assert set(qpcmv.__all__) <= set(namespace)


def test_package_dir_lists_every_exported_name():
    import qpcmv

    assert set(qpcmv.__all__) <= set(dir(qpcmv))


def test_package_unknown_attribute_raises_attribute_error():
    import qpcmv

    with pytest.raises(AttributeError, match="no_such_name"):
        qpcmv.no_such_name


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


# a coefficient file over n = -8..8 that is not 2-periodic, so the default
# Gordon level 1:2 fails and no evidence is computed
UNPERIODIC_SEQ = "n,re_alpha,im_alpha\n" + "".join(
    f"{n},{(0.1, 0.5, 0.9)[n % 3]},0\n" for n in range(-8, 9))


def tube_spec(**fields):
    """A valid --construct-ck spec with ``fields`` replaced."""
    spec = {"system": "rotation", "freq": "golden", "center": ["0"],
            "period": 2, "radius": "1/1000", "values": [[0.1, 0], [0.2, 0]]}
    return {**spec, **fields}


def test_long_values_list_resolves_each_hint_once(monkeypatch):
    # each field type is resolved once per read: a spec of 2000 [re, im]
    # pairs resolves as many hints as one of a single pair, and reads as
    # the values it holds
    from qpcmv.cli import _ConstructSpec

    resolved = []
    for name in ("get_origin", "get_args"):
        def counted(hint, resolve=getattr(artifacts, name)):
            resolved.append(hint)
            return resolve(hint)

        monkeypatch.setattr(artifacts, name, counted)

    def read(values):
        resolved.clear()
        spec = artifacts.read_fields(
            _ConstructSpec, tube_spec(period=len(values), values=values),
            "construct spec")
        return spec, sorted(map(repr, resolved))

    pairs = [[k / 7, -k / 3] for k in range(2000)]
    spec, long = read(pairs)
    assert long == read(pairs[:1])[1]
    assert spec == _ConstructSpec(
        system="rotation", freq="golden", center=("0",), period=2000,
        radius="1/1000", values=tuple(map(tuple, pairs)))


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
    # malformed spec fields once surfaced as "Invalid literal for
    # Fraction", "not enough values to unpack" or "invalid literal for
    # int()", naming no field
    ("sample-construct-freq-not-a-frequency",
     ["sample", "--construct-ck", "{input}"], tube_spec(freq="zz"),
     "error: construct spec field 'freq' expects golden, "
     "liouville:BASE,DEPTH, P/Q or a decimal, got 'zz'"),
    ("sample-construct-freq-liouville-one-field",
     ["sample", "--construct-ck", "{input}"], tube_spec(freq="liouville:2"),
     "error: construct spec field 'freq' expects"),
    ("sample-construct-freq-liouville-not-integers",
     ["sample", "--construct-ck", "{input}"],
     tube_spec(freq="liouville:a,b"),
     "error: construct spec field 'freq' expects"),
    ("sample-construct-center-not-a-number",
     ["sample", "--construct-ck", "{input}"], tube_spec(center=["x"]),
     "error: construct spec field 'center' expects P/Q or a decimal, "
     "got 'x'"),
    ("sample-construct-radius-not-a-number",
     ["sample", "--construct-ck", "{input}"], tube_spec(radius="x"),
     "error: construct spec field 'radius' expects"),
    ("sample-construct-epsilon-not-a-number",
     ["sample", "--construct-ck", "{input}"],
     tube_spec(radius="auto", epsilon="x"),
     "error: construct spec field 'epsilon' expects"),
    # the family flags were once ignored beside --construct-ck, and with
    # neither the error was "unknown family None"
    ("sample-construct-with-family-flags",
     ["sample", "--construct-ck", "{input}", "--family", "constant",
      "--params", "0.3", "--freq", "1/3"], tube_spec(),
     "error: --construct-ck reads the frequency, point and values from its "
     "spec; drop --family, --params, --freq"),
    ("sample-construct-with-omega",
     ["sample", "--construct-ck", "{input}", "--omega", "0"], tube_spec(),
     "error: --construct-ck reads"),
    ("sample-neither-family-nor-spec", ["sample"], None,
     "error: sample needs --family or --construct-ck"),
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
    # a third comma field was once dropped: the window of 0.5 was written,
    # and the operator assembled with b- = 1
    ("sample-params-three-fields",
     ["sample", "--family", "harmonic", "--params", "0.5,0,7",
      "--window=-2:2"], None,
     "error: --params expects RE[,IM], got '0.5,0,7'"),
    # a NaN boundary once assembled a NaN matrix under unitary=True, and
    # a NaN coefficient or constant passed the disk checks
    ("cmv-boundary-nan",
     ["cmv", "--seq-file", "{input}", "--window=-4:3", "--boundary",
      "nan,0;1,0"], UNPERIODIC_SEQ,
     "error: boundary coefficients must be unimodular"),
    ("cmv-sequence-nan", ["cmv", "--seq-file", "{input}", "--window=-1:1"],
     "n,re_alpha,im_alpha\n-1,0,0\n0,nan,0\n1,0,0\n",
     "error: alpha(0) = (nan+0j) does not lie in the open unit disk"),
    ("sample-constant-nan",
     ["sample", "--family", "constant", "--params", "nan", "--window=-2:2"],
     None, "error: constant value must lie in the open unit disk"),
    ("cmv-boundary-three-fields",
     ["cmv", "--seq-file", "{missing}", "--boundary", "1,0,9;1,0"], None,
     "error: --boundary expects RE,IM;RE,IM (b-;b+), got '1,0,9;1,0'"),
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
    # a q_max below the first even candidate once ended with exit 0 and
    # "no even repetition time q <= -3"
    ("orbit-qmax-zero", ["orbit", "--freq", "golden", "--qmax", "0"], None,
     "error: q_max must be >= 2"),
    ("orbit-qmax-negative", ["orbit", "--freq", "golden", "--qmax=-3"], None,
     "error: q_max must be >= 2"),
    ("run-repetition-q-max-zero", ["run", "--config", "{input}"],
     {"schema": CONFIG_SCHEMA, "scenario": "liouville-rotation",
      "repetition_q_max": 0, "cmv_n": 20, "z_grid": 16},
     "error: repetition stage: DomainError: q_max must be >= 2"),
    # --profile x once failed after matrix.txt was written, and a --z-grid
    # below 1 went unnoticed when certification failed
    ("cmv-profile-not-an-index",
     ["cmv", "--seq-file", "{input}", "--window=-4:3", "--profile", "x"],
     UNPERIODIC_SEQ, "error: --profile expects IDX|all, got 'x'"),
    ("gordon-z-grid-zero",
     ["gordon", "--seq-file", "{input}", "--z-grid", "0"], UNPERIODIC_SEQ,
     "error: --z-grid expects an integer >= 1, got 0"),
    ("gordon-z-grid-negative",
     ["gordon", "--seq-file", "{input}", "--z-grid=-4"], UNPERIODIC_SEQ,
     "error: --z-grid expects an integer >= 1, got -4"),
    # an explicit --q 0 once read evidence PASS from no transfer matrix,
    # and a negative one failed inside the block product
    ("gordon-q-zero",
     ["gordon", "--seq-file", "{input}", "--q", "0"], UNPERIODIC_SEQ,
     "error: --q expects an integer >= 1, got 0"),
    ("gordon-q-negative",
     ["gordon", "--seq-file", "{input}", "--q=-2"], UNPERIODIC_SEQ,
     "error: --q expects an integer >= 1, got -2"),
    # an empty k_list once recorded gordon PASS from zero levels, and ended
    # without a report
    ("run-k-list-empty", ["run", "--config", "{input}"],
     {"schema": CONFIG_SCHEMA, "scenario": "free", "k_list": []},
     "error: config field 'k_list' must not be empty"),
    # free levels of different lengths were once cut to the shorter list,
    # and the run ended with gordon=PASS and exit 0
    ("run-free-level-lists-differ", ["run", "--config", "{input}"],
     {"schema": CONFIG_SCHEMA, "scenario": "free", "k_list": [1, 2, 3],
      "free_q_list": [2, 4]},
     "error: config fields 'k_list' and 'free_q_list' pair levels with "
     "periods, got 3 and 2 entries"),
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


def test_readme_cli_section_names_every_option():
    # every option of every subcommand, as the parser defines it, against
    # the README's CLI section (its examples, prose and spec schema)
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## CLI")[1].split("\n## ")[0]
    ap = cli._build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--")}
    options.discard("--help")
    assert len(options) > 20
    missing = sorted(opt for opt in options
                     if not re.search(re.escape(opt) + r"(?![\w-])", section))
    assert missing == []


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


# ---------------------------------------------------------------------------
# symbols that no command or scenario reaches
# ---------------------------------------------------------------------------


def unreached_symbols(sources: dict, roots) -> dict:
    """{"module.name": line count} of the top-level symbols of the modules
    (name -> source) that no walk of name references reaches.  The walk
    starts from ``roots`` ("module.name"), the module-level statements
    other than definitions, and the dunder names (``__getattr__`` and
    ``__dir__``, the PEP 562 hooks, among them).  A name resolves to the
    module's own symbol, or through a relative ``from .m import name``
    anywhere in the module; ``m.name`` resolves through ``from . import
    m``.  A reached class or assignment is walked whole."""
    defs, imports, aliases, starts = {}, {}, {}, []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                starts.append((module, node))
                continue
            for name in names:
                defs[module, name] = node
                if name.startswith("__") and name.endswith("__"):
                    starts.append((module, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        imports[module, a.asname or a.name] = (node.module,
                                                               a.name)
                    else:
                        aliases[module, a.asname or a.name] = a.name

    def resolve(module, name):
        while (module, name) not in defs and (module, name) in imports:
            module, name = imports[module, name]
        return (module, name) if (module, name) in defs else None

    seen = {tuple(r.split(".")) for r in roots}
    starts += [(m, defs[m, n]) for m, n in seen]
    while starts:
        module, node = starts.pop()
        for n in ast.walk(node):
            target = None
            if isinstance(n, ast.Name):
                target = resolve(module, n.id)
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and (module, n.value.id) in aliases):
                target = resolve(aliases[module, n.value.id], n.attr)
            if target and target not in seen:
                seen.add(target)
                starts.append((target[0], defs[target]))
    return {f"{m}.{n}": node.end_lineno - node.lineno + 1
            for (m, n), node in defs.items()
            if (m, n) not in seen and not (n.startswith("__")
                                            and n.endswith("__"))}


def test_unreached_detector():
    sources = {
        "a": "from . import b\n"
             "from .c import used as alias\n"
             "LIMIT = 3\n"
             "def main():\n"
             "    return b.helper() + alias()\n"
             "def dead():\n"
             "    return b.other()\n",
        "b": "def helper():\n    return _private()\n"
             "def _private():\n    return 1\n"
             "def other():\n    return 2\n",
        "c": "from .b import helper as used\n"
             "TABLE = {'x': 1}\n"
             "print(TABLE)\n",
    }
    assert unreached_symbols(sources, ["a.main"]) == {
        "a.LIMIT": 1, "a.dead": 2, "b.other": 2}


ACCEPTANCE = "acceptance criterion"
PUBLIC_API = "public API under test"
OPENNESS = "ROADMAP item 5 openness"

# every top-level symbol that neither a command (cli.main) nor a scenario
# (pipeline.run) reaches, with the reason it stays
UNREACHED = {
    "dynamics.SkewRepetitionTimes": ACCEPTANCE,
    "dynamics.skew_repetition_times": ACCEPTANCE,
    "sampling.periodic_defect_maxima": ACCEPTANCE,
    "transfer.szego_matrix": PUBLIC_API,
    "sampling.PerturbedFunction": OPENNESS,
    "sampling.TentBump": OPENNESS,
    "sampling.TubeDistanceReport": OPENNESS,
    "sampling._circumcircle": OPENNESS,
    "sampling.distance_to_tubes": OPENNESS,
    "sampling.min_enclosing_circle": OPENNESS,
    "sampling.tube_sample_points": OPENNESS,
    "sampling.tube_tolerance_verdict": OPENNESS,
}


def test_every_unreached_symbol_is_allowlisted():
    # a symbol leaves the list when a command or scenario wires it, and
    # goes from the source when nothing needs it
    sources = {p.stem: p.read_text() for p in MODULES}
    unreached = unreached_symbols(sources, ["cli.main", "pipeline.run"])
    assert sorted(unreached) == sorted(UNREACHED)
    assert set(UNREACHED.values()) <= {ACCEPTANCE, PUBLIC_API, OPENNESS}
