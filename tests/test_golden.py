"""Golden outputs in the suite: every section of ``tools/golden.py`` except
``verify`` (its ``--n-max 3`` output is pinned in test_cli.py, and the
``--n-max 100`` calls are left to the script) must match its digest in
``tools/golden.json``; ``--write`` names each section whose digest it
replaces."""

import importlib.util
import json
import re
import sys
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


def test_write_names_each_changed_section(tmp_path, monkeypatch, capsys):
    # main sets COLUMNS and puts src/ on sys.path; monkeypatch undoes both
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(golden, "corpus", lambda: {"ogrady": [["ogrady", "--r", "0"]]})
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden.json")
    golden.GOLDEN.write_text(json.dumps({"ogrady": "0" * 64}))
    assert golden.main(["--write"]) == 0
    assert "CHANGED ogrady\n" in capsys.readouterr().out
    digest = golden.section_digest([["ogrady", "--r", "0"]])
    assert json.loads(golden.GOLDEN.read_text()) == {"ogrady": digest}
    # an unchanged digest is rewritten without a CHANGED line
    assert golden.main(["--write"]) == 0
    assert "CHANGED" not in capsys.readouterr().out
