"""Drift check for the mutation gate, without running it: every entry of
``tools/mutants.py`` must still apply (its old text occurs exactly once in
its file) and must name a test that exists, and a ``test_check_group`` id
must name a group of ``verify.CHECKS``. The gate itself starts one pytest
per mutant and stays out of the suite."""

import importlib.util
import re
from pathlib import Path

import pytest

from epwlat import verify

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    path, _, name = mutant.test.partition("::")
    text = (ROOT / path).read_text()
    if name:  # the first name after the file: a test function or class
        group = re.fullmatch(r"test_check_group\[(.*)\]", name)
        if group:  # its id is a group name, else pytest finds no test
            assert group[1] in dict(verify.CHECKS), mutant.test
        name = re.split(r"::|\[", name)[0]
        assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), mutant.test
