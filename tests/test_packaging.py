import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cmcert

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def test_version_has_one_source():
    # the build reads the version from the package, the way setuptools does
    expand = pytest.importorskip("setuptools.config.expand")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    built = expand.read_attr(attr, package_dir={"": "src"}, root_dir=ROOT)
    assert built == cmcert.__version__


def _unused_imports(path: Path) -> list:
    """Names a module imports, at any level, and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_top_level_imports():
    modules = sorted((ROOT / "src" / "cmcert").glob("*.py"))
    assert len(modules) > 1
    unused = [u for path in modules if path.name != "__init__.py"
              for u in _unused_imports(path)]
    assert unused == []


def test_no_import_inside_a_function():
    # a module edge is one module-level import; a cycle takes the lazily
    # registered module (`from . import name`), not a deferred import
    nested = []
    for path in sorted((ROOT / "src" / "cmcert").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                nested += [f"{path.name}:{node.lineno}"
                           for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


# public functions that no src/ path names, each kept for a stated reason
UNNAMED_BUT_KEPT = {
    "slope_sign_changes": "backs a paper-claim acceptance test; ROADMAP "
                          "item 3 is to call it",
    "descartes_sign_changes": "backs a paper-claim acceptance test",
    "isolate_root": "backs a paper-claim acceptance test",
    "series_at_zero": "the whole-ray kernel proof and the degree-4 theorem "
                      "(ROADMAP items 1 and 2) are to call it",
}


def test_every_public_function_is_reached():
    # by name: each public module-level function of src/cmcert is named
    # somewhere in src/cmcert, and each public method is the attribute of
    # some access there (a local of the same name does not reach it); or it
    # is a command or main, a traced benchmark target (a method one whose
    # row names its class), or is kept above with its reason
    from cmcert import cli
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {(cls, attr) for _, cls, attr, *_ in tracer.TARGETS}
    functions = {attr for cls, attr in traced if cls is None}
    functions |= {fn.__name__ for fn, _ in cli._COMMANDS.values()}
    functions |= {"main", *UNNAMED_BUT_KEPT}
    attributes, defined = set(), []
    for path in sorted((ROOT / "src" / "cmcert").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            cls, body = ((node.name, node.body)
                         if isinstance(node, ast.ClassDef) else (None, [node]))
            defined += [(path.stem, cls, fn.name) for fn in body
                        if isinstance(fn, ast.FunctionDef)]
        functions |= {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)}
        attributes |= {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)}
    unreached = [".".join(filter(None, where)) for where in defined
                 if not where[2].startswith("_")
                 and where[2] not in attributes
                 and (where[2] not in functions if where[1] is None
                      else where[1:] not in traced)]
    assert unreached == []


# the module-level limits that are not costs, each kept for a stated
# reason; every cost is an estimate checked against the one WORK_MAX
LIMITS_KEPT = {
    "WORK_MAX": "the one work budget, in word products",
    "DIGIT_CAP": "the most digits refine doubles a precision to",
    "TERM_CAP": "a Bessel series that has not converged by then raises",
    "EXP_BITS_CAP": "the most bits of an exp enclosure of x > 0, past "
                    "which e**x raises at once",
    "MAX_PRECISION": "the most --precision digits",
    "RATIONAL_MAX_DIGITS": "the most digits of an option value, checked "
                           "before Fraction builds it",
    "POLY_MAX_COEFFS": "the most coefficients of a --file",
    "POLY_MAX_DIGITS": "the most digits of a --file coefficient",
    "MAX_DEPTH": "the most bisections of a failing piece",
}


def test_every_module_level_limit_is_kept_for_a_reason():
    # a cost cap sized alone has no ceiling on its products with the
    # others, so no module-level *_MAX* or *_CAP* name may appear beyond
    # the limits above
    limit = re.compile(r"(^|_)(MAX|CAP)(_|$)")
    names = set()
    for path in sorted((ROOT / "src" / "cmcert").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            names |= {name.id for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name) and limit.search(name.id)}
    assert names == set(LIMITS_KEPT)


def test_cli_import_loads_every_module_and_no_dataclasses():
    # a cold `import cmcert.cli` is paid by every invocation, and the
    # benchmark tracer relies on it to register every module it rebinds (a
    # registered module runs on first use, so each is run here before the
    # diff); the front end is cli.py's own option reader, with no
    # third-party dependency
    code = ("import json, sys, types; before = set(sys.modules); "
            "import cmcert.cli; from cmcert import _SUBMODULES; "
            "[vars(sys.modules['cmcert.' + name]) for name in _SUBMODULES]; "
            "print(json.dumps(sorted(set(sys.modules) - before))); "
            "print(json.dumps(sorted(name for name, m in sys.modules.items() "
            "if name.startswith('cmcert.') "
            "and type(m) is not types.ModuleType)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded, not_run = map(json.loads, out.splitlines())
    assert not_run == []
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert [name for name in loaded if name.split(".")[0] != "cmcert"
            and name.split(".")[0] not in sys.stdlib_module_names] == []
    for name in ("enclosure", "poly", "specfun", "expring", "seriesratio",
                 "cmdegree"):
        assert f"cmcert.{name}" in loaded


@pytest.mark.parametrize("run", [
    "import cmcert.cli",
    "from cmcert import cli\ntry:\n    cli.main(['--help'])\n"
    "except SystemExit as exc:\n    assert exc.code == 0, exc.code",
], ids=["import", "help"])
def test_cold_cli_loads_neither_argparse_nor_gettext(run):
    # argparse, which imports gettext, cost about 3 ms of every cold
    # process; the option reader in cli.py needs neither
    code = ("import sys\nbefore = set(sys.modules)\n" + run + "\n"
            "print(*sorted(set(sys.modules) - before), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    loaded = out.stderr.split()
    assert "cmcert.cli" in loaded
    assert "argparse" not in loaded and "gettext" not in loaded


def test_benchmark_tracer_finds_every_target():
    # the traced benchmark rebinds each name in its TARGETS list; a deleted
    # or renamed one raises here instead of only in a traced benchmark run
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "tracer.Tracer().install(); print(len(tracer.TARGETS))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) > 0


ALL_MODULES = {"cli", "enclosure", "poly", "specfun", "expring", "seriesratio",
               "cmdegree"}
# the kernel margins' evaluator reads its coefficient table, not `poly`
KERNEL_MODULES = {"cli", "enclosure", "cmdegree", "specfun", "expring"}
GRID = ["--grid", "linear:1,2,2"]


@pytest.mark.parametrize("args, ran", [
    (["certify-poly", "--file", "{poly}", "--interval", "0,1"],
     {"cli", "enclosure", "poly"}),
    (["shift-chain", "--file", "{poly}"], {"cli", "enclosure", "poly"}),
    (["ratio-mono", "--which", "c", "--beta", "1"],
     {"cli", "enclosure", "seriesratio"}),
    (["ladder"], {"cli", "enclosure", "seriesratio"}),
    (["verify-identity"], {"cli", "enclosure", "cmdegree"}),
    (GRID + ["cm-check", "--alpha", "1", "--beta", "1", "--r", "4"],
     {"cli", "enclosure", "specfun", "cmdegree"}),
    (GRID + ["kernel-ineq", "--k", "2"], KERNEL_MODULES),
    (GRID + ["conjecture-scan", "--k", "2"], KERNEL_MODULES),
    (["reproduce-paper"], ALL_MODULES),
    (["--help"], {"cli", "enclosure"}),
    (["ktail", "--ell", "1", "--a", "1"],
     {"cli", "enclosure", "specfun", "expring"}),
])
def test_each_command_runs_only_the_modules_it_uses(tmp_path, args, ran):
    # every submodule is registered at import; only those a command touches
    # run, so a cold process compiles no other module
    poly_file = tmp_path / "p.poly"
    poly_file.write_text("1\n0\n1\n")
    code = ("import contextlib, io, json, sys, types; from cmcert import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n        cli.main(sys.argv[1:])\n"
            "    except SystemExit:\n        pass\n"
            "print(json.dumps(sorted(name for name, m in sys.modules.items()\n"
            "    if name.startswith('cmcert.') and type(m) is types.ModuleType)))")
    args = [a.replace("{poly}", str(poly_file)) for a in args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == sorted(f"cmcert.{m}" for m in ran)


def test_benchmark_tracer_wraps_the_lazily_registered_modules():
    # the tracer finds each module in sys.modules before it has run; every
    # module-level target must still read as its wrapper, and a command's
    # call through the module the CLI holds must still be counted
    code = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.Tracer()
t.install()
plain = [f"{mod}.{attr}" for mod, cls, attr, *_ in tracer.TARGETS
         if cls is None and getattr(sys.modules["cmcert." + mod], attr)
         .__qualname__ != "Tracer.wrap.<locals>.wrapper"]
from cmcert import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["ladder", "--k-max", "6"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(plain, t.calls["seriesratio.ladder"])
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[] 1\n"
