"""The scripts under scripts/ load: every name they import still exists."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["compare_bounds", "improvement_table", "report_digest"])
def test_script_loads(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports, not main()
    assert callable(module.main)
