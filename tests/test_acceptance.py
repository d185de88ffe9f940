"""Acceptance suite: every check group of ``epwlat verify`` at full scale.

One test per group in ``verify.CHECKS``, with the group's name as its id,
run at the verifier's default scale (n_max = 100), which is what
``epwlat verify`` runs. A group raises ``CheckFailure`` with its first
counterexample; every comparison is exact integer equality.
"""

import pytest

from epwlat import verify

FULL_SCALE = 100  # verify.run_all default: the acceptance scale


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS],
                         ids=[name for name, _ in verify.CHECKS])
def test_check_group(check):
    check(FULL_SCALE)
