"""Every data file of the package ships in a wheel.

The tests read the package from ``src/`` and CI installs it in editable
mode, so a data file that no ``[tool.setuptools.package-data]`` pattern
names would break only an installed wheel. This checks the patterns
instead, as setuptools expands them: globs relative to the package.
"""

from __future__ import annotations

import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pertpipe"


def test_every_data_file_matches_a_package_data_pattern():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["pertpipe"]
    shipped = {path for pattern in patterns for path in PACKAGE.glob(pattern)}
    data_files = {
        path for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }
    assert {p.parent.name for p in data_files} >= {"prompts", "landscapes"}
    assert sorted(str(p.relative_to(PACKAGE)) for p in data_files - shipped) == []
