"""Every console script declared in pyproject.toml points at real code."""

import importlib
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"{name} -> {target}"
