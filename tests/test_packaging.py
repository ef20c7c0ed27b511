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
