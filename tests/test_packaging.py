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
    # benchmark tracer relies on it to load every module it rebinds; the
    # front end is stdlib argparse, with no third-party dependency
    code = ("import json, sys; before = set(sys.modules); import cmcert.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
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
