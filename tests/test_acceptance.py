"""Acceptance suite: every check group of ``epwlat verify`` at full scale.

One test per group in ``verify.CHECKS``, with the group's name as its id,
run at the verifier's default scale (n_max = 100), which is what
``epwlat verify`` runs. A group raises ``InvariantError`` with its first
counterexample; every comparison is exact integer equality. The five
certified groups are also checked to evaluate each claim at n = 1, ...,
k + 1 for their declared degree k, and at the far point. Every claim a
group states itself is a row of ``_expect``: no ``check_*`` function calls
``_fail``, ``_expect`` is checked on its own, as the pell-d5 group reports
a false claim, and as each group that states claims at points or over a
range reports one producer made wrong at one point. A last test records
which public functions of the core modules ``run_all`` calls.
"""

import ast
import sys
import types
from math import isqrt
from pathlib import Path

import pytest

from epwlat import InvariantError, catalog, epwfamily, intmat, lattices, pell, verify

FULL_SCALE = 100  # verify.run_all default: the acceptance scale

# public functions that verify does not call, each with its reason
_NOT_REACHED = {
    "catalog.names": "a listing that tests use and verify does not",
    "epwfamily.ogrady_status": "used only by the `ogrady` subcommand",
    "intmat.row_hnf": "verify reads saturation from `echelon`'s pivots; `saturation` "
                      "shares row_hnf's Hermite reduction, not row_hnf itself",
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


def test_no_check_group_calls_fail():
    # a group's own claims are _expect rows; the laws raise their own
    tree = ast.parse(Path(verify.__file__).read_text())
    groups = [f for f in tree.body if isinstance(f, ast.FunctionDef)
              and f.name.startswith("check_")]
    assert [f.name for f in groups] == [fn.__name__ for _, fn in verify.CHECKS]
    callers = [f.name for f in groups for node in ast.walk(f)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail"]
    assert callers == []


# one producer of each group made wrong at one point: the group, the
# producer, which arguments are the point, the wrong value (from the real
# producer and those arguments) and the group's detail line
_WRONG_AT_ONE_POINT = [
    ("family-identities", epwfamily, "family", lambda n: n == 2,
     lambda real, n: real(n)._replace(gram_pi=((2, 13), (13, -2))),
     "n=2: (gamma, delta2) = 13, expected 12"),
    ("h2-basis", lattices, "is_primitive", lambda lat, v: v == (1, 8),
     lambda real, lat, v: False, "n=3: h2 primitive = False, expected True"),
    ("involution-soundness", epwfamily, "epw_involution", lambda d: d == 74,
     lambda real, d: real(130), "n=2: gamma = (1, -8), expected (1, -6)"),
    ("necessary-condition", epwfamily, "necessary_condition", lambda d: d == 74,
     lambda real, d: None, "n=2: witness = None, expected (37, 6, 1)"),
    ("disc-obstruction", epwfamily, "k3_embedding_sufficient", lambda lat: lat.gram[0][1] == 13,
     lambda real, lat: False, "n=3: K3 criterion on R(n) = False, expected True"),
    ("prime-criterion", pell, "is_solvable_negative", lambda d: d == 13,
     lambda real, d: False,
     "first prime p where the residue criterion and the solver differ = 13, expected None"),
]


@pytest.mark.parametrize("group,module,name,at,wrong,detail", _WRONG_AT_ONE_POINT,
                         ids=[case[0] for case in _WRONG_AT_ONE_POINT])
def test_group_names_the_point_of_a_false_claim(group, module, name, at, wrong, detail,
                                                monkeypatch):
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: wrong(real, *args) if at(*args) else real(*args))
    row = {r.name: r for r in verify.run_all(1)}[group]
    assert row == (group, False, detail)


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
