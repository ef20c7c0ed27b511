import ast
import json
import os
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


def test_every_exported_name_resolves():
    missing = [name for name in cmcert.__all__ if not hasattr(cmcert, name)]
    assert missing == []


def test_cli_import_loads_every_module_and_no_dataclasses():
    # a cold `import cmcert.cli` is paid by every invocation, and the
    # benchmark tracer relies on it to register every module it rebinds (a
    # registered module runs on first use, so each is run here before the
    # diff); the front end is stdlib argparse, with no third-party dependency
    code = ("import json, sys, types; before = set(sys.modules); "
            "import cmcert.cli; from cmcert import _EXPORTS; "
            "[vars(sys.modules['cmcert.' + name]) for name in _EXPORTS]; "
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
     {"cli", "enclosure", "seriesratio", "specfun", "cmdegree"}),
    (GRID + ["kernel-ineq", "--k", "2"], ALL_MODULES),
    (["reproduce-paper"], ALL_MODULES),
    (["--help"], {"cli", "enclosure"}),
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
