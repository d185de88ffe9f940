"""Drift check for the mutation gate, without running it: no fault of
``tools/mutants.py`` is declared twice, every row must still apply (its old
text occurs exactly once in its file) and must name a test that pytest
collects, and every group of ``verify.CHECKS`` must have a row whose test is
its ``test_check_group`` id. The gate itself starts one pytest per mutant
and stays out of the suite."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epwlat import verify

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.fixture(scope="module")
def collected() -> list[str]:
    """Node ids of the entries' test files, from one ``pytest --collect-only``
    that loads no entry-point plugin, as the gate's rows do."""
    files = sorted({m.test.partition("::")[0] for m in mutants.MUTANTS})
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return [line for line in proc.stdout.splitlines() if "::" in line]


def test_each_fault_declared_once():
    # a second test of a fault goes into its one declaration, as a further row
    faults = [(f.path, f.old, f.new) for f in mutants.FAULTS]
    assert [f for f in faults if faults.count(f) > 1] == []


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant, collected):
    # a node id, or a class, function or parametrized family it begins
    t = mutant.test
    assert any(node == t or node.startswith((f"{t}[", f"{t}::")) for node in collected), t


@pytest.mark.parametrize("group", [name for name, _ in verify.CHECKS])
def test_every_group_has_a_row(group):
    assert mutants.group_rows(group), group
