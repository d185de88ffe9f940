"""Acceptance suite: every check group of ``epwlat verify`` at full scale.

One test per group in ``verify.CHECKS``, with the group's name as its id,
run at the verifier's default scale (n_max = 100), which is what
``epwlat verify`` runs. A group raises ``InvariantError`` with its first
counterexample; every comparison is exact integer equality. The five
certified groups are also checked to evaluate each claim at n = 1, ...,
k + 1 for their declared degree k, and at the far point. Two tests
check ``_expect``, which compares the fixed claims: on its own, and as
the pell-d5 group reports a false claim. A last test records which public
functions of the core modules ``run_all`` calls.
"""

import sys
import types
from math import isqrt

import pytest

from epwlat import InvariantError, catalog, epwfamily, intmat, lattices, pell, verify

FULL_SCALE = 100  # verify.run_all default: the acceptance scale

# public functions that verify does not call, each with its reason
_NOT_REACHED = {
    "catalog.names": "a listing that tests use and verify does not",
    "epwfamily.ogrady_status": "used only by the `ogrady` subcommand",
    "intmat.row_hnf": "verify reads saturation from `echelon`'s pivots; the Hermite "
                      "form is left to the property tests",
    "pell.ContinuedFraction.period_length":
        "printed only by the `pell` subcommand for an unsolvable D",
}


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS],
                         ids=[name for name, _ in verify.CHECKS])
def test_check_group(check):
    check(FULL_SCALE)


def _n_of_degree(d):
    """n with d(n) = 2((2n+2)^2 + 1) = d, or None off the family."""
    m = isqrt(d // 2 - 1)
    return m // 2 - 1 if d == 2 * (m * m + 1) and m % 2 == 0 and m >= 4 else None


# each certified claim: its group, and the call that evaluates it at one n
# with the n read back from that call's arguments
_CLAIM_CALLS = [
    ("family-identities", epwfamily, "family", lambda n: n),
    ("h2-basis", catalog, "epw_picard_lattice", lambda n: n),
    ("h2-basis", lattices, "is_primitive", lambda lat, v: v[1] // 2 - 1),
    ("involution-soundness", epwfamily, "epw_involution", _n_of_degree),
    ("involution-soundness", verify, "involution_law", lambda j: -j.root[1] // 2 - 1),
    ("necessary-condition", epwfamily, "necessary_condition", _n_of_degree),
    ("disc-obstruction", epwfamily, "disc_obstruction", lambda n: n),
    ("disc-obstruction", epwfamily, "k3_embedding_sufficient", lambda lat: lat.gram[0][1] - 10),
    ("disc-obstruction", epwfamily, "reflection_inequality", lambda n, fh_bar: n),
]


@pytest.mark.parametrize("group,module,name,n_of", _CLAIM_CALLS,
                         ids=[f"{g}-{name}" for g, _, name, _ in _CLAIM_CALLS])
def test_certified_claim_covers_its_points(group, module, name, n_of, monkeypatch):
    # degree k needs k + 1 points; the far point 10 * n_max lies beyond them
    seen = set()
    real = getattr(module, name)

    def spy(*args):
        seen.add(n_of(*args))
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    dict(verify.CHECKS)[group](1)
    degree = verify._DEGREE[group]
    assert seen - {None} == {*range(1, degree + 2), 10}
    assert degree + 1 < 10


def test_every_certified_group_has_its_claims():
    assert sorted(verify._DEGREE) == sorted({g for g, *_ in _CLAIM_CALLS})


def test_expect_fails_on_the_first_false_claim():
    assert verify._expect(("a", 1, 1), ("b", (2, 3), (2, 3))) is None
    with pytest.raises(InvariantError) as caught:
        verify._expect(("a", 1, 1), ("b", 2, 3), ("c", 4, 5))
    assert str(caught.value) == "b = 2, expected 3"


def test_pell_d5_reports_its_third_claim(monkeypatch):
    # is_solvable_negative feeds only the third of the group's four claims
    monkeypatch.setattr(pell, "is_solvable_negative", lambda d: True)
    row = {r.name: r for r in verify.run_all(1)}["pell-d5"]
    assert row == ("pell-d5", False, "D=34 solvable = True, expected False")


def _public_code(module):
    """Code object of every public function of ``module`` and of every
    public method or property of a class defined there, by dotted name."""
    short = module.__name__.rpartition(".")[2]
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            found[f"{short}.{name}"] = obj.__code__
        elif isinstance(obj, type):
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                if not attr.startswith("_") and isinstance(member, types.FunctionType):
                    found[f"{short}.{name}.{attr}"] = member.__code__
    return found


def test_verify_reaches_every_public_function():
    # a law that no group reaches cannot catch a fault; the small scale
    # n_max = 3 already reaches everything that n_max = 100 does
    public = {}
    for module in (intmat, lattices, pell, catalog, epwfamily):
        public.update(_public_code(module))
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        results = verify.run_all(3)
    finally:
        sys.setprofile(previous)
    assert all(r.passed for r in results)
    assert sorted(n for n, code in public.items() if code not in called) == sorted(_NOT_REACHED)
