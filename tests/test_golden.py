"""Golden outputs in the suite: every section of ``tools/golden.py`` except
``verify`` (its ``--n-max 3`` output is pinned in test_cli.py, and the
``--n-max 100`` calls are left to the script) must match its digest in
``tools/golden.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

from epwlat import cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("golden", TOOLS / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

SECTIONS = [name for name in golden.corpus() if name != "verify"]


@pytest.mark.parametrize("section", SECTIONS)
def test_section_matches_golden(section, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help text
    expected = json.loads(golden.GOLDEN.read_text())[section]
    assert golden.section_digest(cli.main, golden.corpus()[section]) == expected
