"""Golden outputs in the suite: every section of ``tools/golden.py`` except
``verify`` (its ``--n-max 3`` output is pinned in test_cli.py, and the
``--n-max 100`` calls are left to the script) must match its digest in
``tools/golden.json``."""

import importlib.util
import json
import re
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
    assert golden.section_digest(golden.corpus()[section]) == expected


def test_help_corpus_names_every_subcommand(monkeypatch):
    # a new subcommand must join the corpus, at least with its --help
    monkeypatch.setenv("COLUMNS", "80")
    usage = cli.build_parser().format_usage()
    commands = re.search(r"\{([^}]*)\}\s*\.\.\.", usage).group(1).split(",")
    helped = {argv[0] for argv in golden.corpus()["argparse"] if argv[1:] == ["--help"]}
    assert commands and set(commands) <= helped
