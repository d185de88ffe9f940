"""Negative Pell solver: continued fractions, fundamental solutions,
enumeration, the prime criterion, and the misprinted D=5 closed form.

Brute-force oracles here search for x with D x^2 - 1 a perfect square,
independently of the continued-fraction machinery under test; the
full-period reference walk comes from ``epwlat.verify``, which checks the
solver against it too."""

import copy
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from epwlat import cli, pell, verify
from epwlat.errors import InvariantError
from epwlat.verify import full_period_walk, min_solution_x_brute, sequential_fundamental


def brute_first_solutions(d, count, x_max=10**4):
    out = []
    for x in range(1, x_max + 1):
        v = d * x * x - 1
        s = isqrt(v)
        if s * s == v:
            out.append((s, x))
            if len(out) == count:
                break
    return out


def brute_table(top, x_max):
    """Reference for ``min_solution_x_brute``: one unfiltered scan per D."""
    table = {}
    for d in range(2, top + 1):
        first = brute_first_solutions(d, 1, x_max)
        if first:
            table[d] = first[0][1]
    return table


@pytest.fixture(scope="module")
def brute_500():
    return min_solution_x_brute(500)


class TestContinuedFraction:
    @pytest.mark.parametrize("d,a0,period", [
        (5, 2, (4,)),
        (2, 1, (2,)),
        (3, 1, (1, 2)),
        (6, 2, (2, 4)),
        (13, 3, (1, 1, 1, 1, 6)),
        (34, 5, (1, 4, 1, 10)),
    ])
    def test_known_expansions(self, d, a0, period):
        cf = pell.cf_expansion(d)
        assert (cf.a0, cf.period) == (a0, period)

    def test_first_convergent_brackets_sqrt(self):
        # [2; 4] = 9/4 and 9^2 - 5*4^2 = 1: the recurrence really cycles on sqrt 5
        cf = pell.cf_expansion(5)
        p, q = cf.a0 * cf.period[0] + 1, cf.period[0]
        assert p * p - 5 * q * q == 1

    @pytest.mark.parametrize("bad", [0, 1, 4, 9, 10000])
    def test_squares_and_small_d_rejected(self, bad):
        with pytest.raises(ValueError):
            pell.cf_expansion(bad)

    @pytest.mark.parametrize("d", [n for n in range(2, 300) if isqrt(n) ** 2 != n])
    def test_period_shape(self, d):
        cf = pell.cf_expansion(d)
        assert cf.period[-1] == 2 * cf.a0
        body = cf.period[:-1]
        assert body == tuple(reversed(body))


class TestHalfPeriodWalk:
    """``cf_expansion`` stops at the middle of the period; the full walk in
    ``full_period_walk`` is the reference."""

    @staticmethod
    def check(ds):
        parities = set()
        for d in ds:
            cf = pell.cf_expansion(d)
            assert (cf.a0, cf.period) == full_period_walk(d), d
            parities.add(cf.period_length % 2)
        return parities

    def test_every_nonsquare_to_20000(self):
        # with the families a^2 + 1 (L = 1), a^2 + 2 and a^2 - 1 (L = 2) for
        # a <= 200; the sweep holds them up to a = 141
        lengths = {1: 1, 2: 2, -1: 2}
        ds = [d for d in range(2, 20001) if isqrt(d) ** 2 != d]
        ds += [a * a + s for a in range(142, 201) for s in lengths]
        assert self.check(ds) == {0, 1}
        for s, length in lengths.items():
            for a in range(1, 201):
                if a * a + s >= 2:
                    assert pell.cf_expansion(a * a + s).period_length == length

    def test_seeded_up_to_1e9(self):
        rng = random.Random(20261018)
        ds = []
        while len(ds) < 200:  # log-uniform in [10^2, 10^9)
            d = int(10 ** rng.uniform(2, 9))
            if isqrt(d) ** 2 != d:
                ds.append(d)
        assert min(ds) < 10**3 and max(ds) > 10**8
        assert self.check(ds) == {0, 1}

    @staticmethod
    def check_cli_even_row(d, capsys):
        _, period = full_period_walk(d)
        assert len(period) % 2 == 0
        assert cli.main(["--format", "csv", "pell", "--d", str(d)]) == 2
        assert capsys.readouterr().out == (
            f"d,solvable,period_length\n{d},false,{len(period)}\n")

    def test_cli_even_period_row(self, capsys):
        self.check_cli_even_row(34, capsys)

    def test_cli_even_period_row_near_1e9(self, capsys):
        rng = random.Random(5)
        while True:
            d = rng.randrange(10**9 - 10**6, 10**9)
            if isqrt(d) ** 2 != d and len(full_period_walk(d)[1]) % 2 == 0:
                break
        self.check_cli_even_row(d, capsys)


def seeded_nonsquares_to_1e9():
    """The 200 non-square D of ``TestHalfPeriodWalk.test_seeded_up_to_1e9``."""
    rng = random.Random(20261018)
    ds = []
    while len(ds) < 200:  # log-uniform in [10^2, 10^9)
        d = int(10 ** rng.uniform(2, 9))
        if isqrt(d) ** 2 != d:
            ds.append(d)
    return ds


class TestHalfPeriodRepresentation:
    """``ContinuedFraction`` stores the half period and its parity; the full
    period, its length and solvability are derived from them."""

    @pytest.mark.parametrize("ds", [
        pytest.param([d for d in range(2, 3001) if isqrt(d) ** 2 != d], id="to-3000"),
        pytest.param(seeded_nonsquares_to_1e9(), id="seeded-to-1e9"),
    ])
    def test_half_is_the_first_half_of_the_full_walk(self, ds):
        for d in ds:
            _, period = full_period_walk(d)
            length = len(period)
            cf = pell.cf_expansion(d)
            assert cf.half == period[:length // 2], d
            assert cf.period_length == len(cf.period) == length, d
            assert cf.solvable == (length % 2 == 1), d

    def test_hand_built_periods(self):
        assert pell.ContinuedFraction(2, 1, (), True).period == (2,)
        assert pell.ContinuedFraction(3, 1, (1,), False).period == (1, 2)


class TestRecords:
    """``PellSolution`` and ``ContinuedFraction`` are NamedTuple records;
    every way of building a ``PellSolution`` runs its check."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: pell.PellSolution(5, 2, 2), id="constructor"),
        pytest.param(lambda: pell.PellSolution(d=5, y=0, x=1), id="keywords"),
        pytest.param(lambda: pell.PellSolution._make((5, 2, 2)), id="make"),
        pytest.param(lambda: pell.PellSolution(5, 2, 1)._replace(y=3), id="replace"),
    ])
    def test_every_construction_path_checks(self, build):
        with pytest.raises(ValueError):
            build()

    def test_copies_check_and_keep_the_record(self, monkeypatch):
        sol = pell.PellSolution(13, 18, 5)
        checked = []
        check = pell.PellSolution.__post_init__

        def counting(s):
            checked.append(tuple(s))
            check(s)

        monkeypatch.setattr(pell.PellSolution, "__post_init__", counting)
        copies = [copy.copy(sol), copy.deepcopy(sol), pickle.loads(pickle.dumps(sol)),
                  pell.PellSolution._make([13, 18, 5]), sol._replace(d=13)]
        assert all(type(c) is pell.PellSolution and c == sol for c in copies)
        assert checked == [(13, 18, 5)] * len(copies)

    def test_record_behaviour(self):
        sol = pell.PellSolution(13, 18, 5)
        assert repr(sol) == "PellSolution(d=13, y=18, x=5)"
        assert sol == (13, 18, 5) and hash(sol) == hash((13, 18, 5))
        d, y, x = sol
        assert (d, y, x) == (sol.d, sol.y, sol.x)
        with pytest.raises(AttributeError):
            sol.y = 3
        cf = pell.cf_expansion(13)
        assert cf == (13, 3, (1, 1), True)
        with pytest.raises(AttributeError):
            cf.half = ()


class TestFundamental:
    @pytest.mark.parametrize("d,expected", [
        (5, (2, 1)),
        (2, (1, 1)),
        (17, (4, 1)),
        (13, (18, 5)),
    ])
    def test_known_fundamentals(self, d, expected):
        sol = pell.fundamental_negative(d)
        assert (sol.y, sol.x) == expected

    def test_unsolvable_returns_none(self):
        assert pell.fundamental_negative(3) is None
        assert pell.fundamental_negative(34) is None
        # no solution below a large brute-force bound either
        wide = min_solution_x_brute(34, 10**6)
        assert 3 not in wide and 34 not in wide

    def test_wide_brute_force_sizes_its_tables_by_what_they_read(self):
        # the flags cover D <= 34 only, and tiles exist only for the residues
        # of the few flagged D: the 10^6-bit candidate ints, not 359 tiles,
        # bound the peak
        tracemalloc.start()
        try:
            min_solution_x_brute(34, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_square_rejected(self):
        with pytest.raises(ValueError):
            pell.fundamental_negative(16)

    @pytest.mark.parametrize("d", [n for n in range(2, 120) if isqrt(n) ** 2 != n])
    def test_matches_brute_force_minimum(self, d):
        sol = pell.fundamental_negative(d)
        brute = brute_first_solutions(d, 1)
        if sol is not None and sol.x <= 10**4:
            assert brute and brute[0] == (sol.y, sol.x)
        elif sol is None:
            assert not brute


class TestBruteForceTable:
    def test_matches_per_d_scan_to_200(self):
        assert min_solution_x_brute(200) == brute_table(200, 10**4)

    def test_matches_per_d_scan_to_20000_at_small_x(self):
        # top far above x_max: the flags for D run past those for x
        assert min_solution_x_brute(20000, 60) == brute_table(20000, 60)

    def test_sizes(self, brute_500):
        assert len(brute_500) == 62
        assert len(min_solution_x_brute(2000)) == 145

    def test_sieve_matches_per_d_scan_to_300(self):
        assert min_solution_x_brute(300, 10**4) == brute_table(300, 10**4)

    def test_sieve_matches_per_d_scan_with_top_below_x_max(self):
        assert min_solution_x_brute(60, 5000) == brute_table(60, 5000)

    def test_sieve_matches_full_period_reference_to_2000(self):
        # D is in the table exactly when the least solution has x <= 10^4,
        # and then with that x
        table = min_solution_x_brute(2000)
        expected = {}
        for d in range(2, 2001):
            if isqrt(d) ** 2 != d:
                ref = sequential_fundamental(d)
                if ref is not None and ref[1] <= verify.BRUTE_X_MAX:
                    expected[d] = ref[1]
        assert table == expected


class TestEnumeration:
    def test_d5_first_three(self):
        got = [(s.y, s.x) for s in pell.enumerate_negative(5, 3)]
        assert got == brute_first_solutions(5, 3) == [(2, 1), (38, 17), (682, 305)]

    def test_d2_first_two(self):
        got = [(s.y, s.x) for s in pell.enumerate_negative(2, 2)]
        assert got == [(1, 1), (7, 5)]
        assert 7 * 7 - 2 * 5 * 5 == -1

    def test_every_emitted_pair_is_validated(self):
        for s in pell.enumerate_negative(13, 6):
            assert s.y * s.y - 13 * s.x * s.x == -1

    def test_growth_is_strict(self):
        verify.enumeration_law(5, 6)

    def test_unsolvable_or_zero_count_rejected(self):
        with pytest.raises(ValueError):
            pell.enumerate_negative(3, 1)
        with pytest.raises(ValueError):
            pell.enumerate_negative(5, 0)


def odd_powers(d, y0, x0, k):
    """Reference: the first k odd powers of y0 + x0 sqrt(d), multiplying by
    the fundamental solution one power at a time."""
    powers, y, x = [], 1, 0
    for n in range(1, 2 * k):
        y, x = y * y0 + d * x * x0, y * x0 + x * y0
        if n % 2:
            powers.append((y, x))
    return powers


class TestConvergentProduct:
    def test_matches_sequential_recurrence_to_2000(self):
        lengths = set()
        for d in range(2, 2301):
            if isqrt(d) ** 2 != d and verify.minimality_law(d):
                lengths.add(pell.cf_expansion(d).period_length)
        # one-term periods, and lengths on both sides of the 16-term leaf
        # and of two leaves, counted in L and in the half period h = L // 2
        # (L = 33, 35, 65, 67); the first L = 65 is D = 2293
        assert {1, 15, 17, 31, 33, 35, 65, 67}.issubset(lengths) and max(lengths) > 64

    def test_cubed_fundamental_beyond_brute_force_cap(self, monkeypatch):
        # the cube of the fundamental solution still solves y^2 - D x^2 = -1;
        # brute force compares x only up to its cap, the full-period
        # reference at every x, and D = 109 is the least D with x > 10^4
        true = pell.fundamental_negative

        def cubed(d):
            sol = true(d)
            if sol is None or sol.x <= verify.BRUTE_X_MAX:
                return sol
            y, x = sol.y, sol.x
            return pell.PellSolution(d, y**3 + 3 * d * y * x * x, 3 * y * y * x + d * x**3)

        monkeypatch.setattr(pell, "fundamental_negative", cubed)
        verify.check_pell_oracle(100)
        with pytest.raises(InvariantError, match=r"^D=109: "):
            verify.check_pell_minimality(100)

    def test_large_prime(self):
        d = 10**9 + 9
        assert pell.cf_expansion(d).period_length == 59879
        assert pell.fundamental_negative(d).x.bit_length() == 102089

    def test_enumerate_prime_near_1e8(self):
        p = 100000037
        assert pell.is_prime(p) and p % 4 == 1
        sols = pell.enumerate_negative(p, 3)
        assert [(s.y, s.x) for s in sols] == odd_powers(p, *sequential_fundamental(p), 3)
        assert [s.x.bit_length() for s in sols] == [4366, 13127, 21888]

    def test_negative_solutions_takes_an_expansion(self):
        cf = pell.cf_expansion(13)
        assert pell.negative_solutions(cf, 3) == pell.enumerate_negative(13, 3)
        with pytest.raises(ValueError, match="no integer solutions"):
            pell.negative_solutions(pell.cf_expansion(34), 1)
        with pytest.raises(ValueError, match="k must be"):
            pell.negative_solutions(cf, 0)

    def test_cli_expands_once(self, monkeypatch, capsys):
        calls = []
        expand = pell.cf_expansion

        def counting(d):
            calls.append(d)
            return expand(d)

        monkeypatch.setattr(pell, "cf_expansion", counting)
        assert cli.main(["pell", "--d", "13", "--count", "2"]) == 0
        assert "y=18 x=5" in capsys.readouterr().out
        assert calls == [13]


class TestDerivedSolutions:
    """Only the fundamental solution is checked when it is built; the odd
    powers after it come from the unit recurrence and are checked here."""

    @staticmethod
    def check(d, k):
        sols = pell.enumerate_negative(d, k)
        assert len(sols) == k
        assert isinstance(sols[0], pell.PellSolution)
        assert all(type(s) is pell.DerivedSolution for s in sols[1:])
        assert all(s.y * s.y - d * s.x * s.x == -1 for s in sols), d
        assert [(s.y, s.x) for s in sols] == odd_powers(
            d, *sequential_fundamental(d), k), d

    def test_every_solvable_d_to_2000(self):
        solvable = [d for d in range(2, 2001)
                    if isqrt(d) ** 2 != d and sequential_fundamental(d)]
        assert len(solvable) == 296
        for d in solvable:
            self.check(d, 6)

    @pytest.mark.parametrize("d", [100000037, 10**9 + 9])
    def test_large_primes(self, d):
        self.check(d, 3)

    @pytest.mark.parametrize("k", [1, 5])
    def test_one_check_per_call(self, k, monkeypatch):
        checked = []
        check = pell.PellSolution.__post_init__

        def counting(sol):
            checked.append((sol.y, sol.x))
            check(sol)

        monkeypatch.setattr(pell.PellSolution, "__post_init__", counting)
        sols = pell.negative_solutions(pell.cf_expansion(13), k)
        assert len(sols) == k
        assert checked == [(18, 5)]


class TestSolvability:
    def test_headline_cases(self):
        assert pell.is_solvable_negative(5)
        assert not pell.is_solvable_negative(34)

    def test_degenerate_and_squares(self):
        assert pell.is_solvable_negative(1)  # (y, x) = (0, 1)
        assert not pell.is_solvable_negative(4)
        assert not pell.is_solvable_negative(9)
        with pytest.raises(ValueError):
            pell.is_solvable_negative(0)

    @pytest.mark.parametrize("d", [n for n in range(2, 500) if isqrt(n) ** 2 != n])
    def test_agrees_with_brute_force(self, d, brute_500):
        verify.oracle_law(d, brute_500.get(d))


class TestPrimeCriterion:
    @pytest.mark.parametrize("p,expected", [(2, True), (5, True), (7, False),
                                            (13, True), (3, False), (9973, True)])
    def test_known_primes(self, p, expected):
        assert pell.prime_criterion(p) is expected

    def test_composite_rejected(self):
        for bad in (1, 0, 15, 91):
            with pytest.raises(ValueError):
                pell.prime_criterion(bad)

    def test_agrees_with_solver_small_range(self):
        for p in range(2, 500):
            if pell.is_prime(p):
                assert pell.prime_criterion(p) == pell.is_solvable_negative(p)

    def test_is_prime_against_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % k for k in range(2, isqrt(n) + 1))
        assert all(pell.is_prime(n) == trial(n) for n in range(0, 10**5))
        assert pell.is_prime(10**12 + 39)  # beyond trial-division comfort

    # psi_12 is a strong pseudoprime to every prime base 2..37
    PSI_12 = 318665857834031151167461
    PSI_13 = 3317044064679887385961981

    def test_psi_12_is_not_prime(self):
        assert self.PSI_12 == 399165290221 * 798330580441

    # psi_k, the least strong pseudoprime to each of the first k prime bases
    # (OEIS A014233); psi_13 is refused
    PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, PSI_12]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_psi_k_is_not_prime(self, k):
        # psi_k fools the first k bases, so a table that tests n = psi_k with
        # only k of them calls it prime
        assert pell.is_prime(self.PSI[k - 1]) is False

    def test_psi_12_rejected_by_criterion(self):
        with pytest.raises(ValueError, match="not prime"):
            pell.prime_criterion(self.PSI_12)

    @pytest.mark.parametrize("offset", [0, 1, 2, 10**30])
    def test_refuses_at_and_above_psi_13(self, offset):
        n = self.PSI_13 + offset
        with pytest.raises(ValueError, match=str(self.PSI_13)):
            pell.is_prime(n)
        with pytest.raises(ValueError, match=str(self.PSI_13)):
            pell.prime_criterion(n)

    def test_decided_just_below_psi_13(self):
        assert pell.is_prime(self.PSI_13 - 1) is False  # even


def _qmul5(u, v):
    """(r + s sqrt5)(r' + s' sqrt5) for rational coordinates."""
    return u[0] * v[0] + 5 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def printed_d5_closed_form(n):
    """Reference: the printed D = 5 formula evaluated literally in Q(sqrt5),
    numbers stored as pairs (r, s) = r + s sqrt5 of Fractions.

        2 y_n = (1 + 2 sqrt5)(2 + sqrt5)^(2n) + (1 - 2 sqrt5)(2 - sqrt5)^(2n)
        2 x_n = (2 + 1/sqrt5)(2 + sqrt5)^(2n) + (2 - 1/sqrt5)(2 - sqrt5)^(2n)
    """
    unit, conj = (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))
    for _ in range(2 * n):
        unit, conj = _qmul5(unit, (2, 1)), _qmul5(conj, (2, -1))
    inv_sqrt5 = Fraction(1, 5)  # 1/sqrt5 = sqrt5/5
    two_y = [a + b for a, b in zip(_qmul5((1, 2), unit), _qmul5((1, -2), conj))]
    two_x = [a + b for a, b in zip(_qmul5((2, inv_sqrt5), unit),
                                   _qmul5((2, -inv_sqrt5), conj))]
    assert two_y[1] == two_x[1] == 0  # conjugate sums are rational
    y, x = two_y[0] / 2, two_x[0] / 2
    assert y.denominator == x.denominator == 1
    return int(y), int(x)


class TestClosedFormMisprint:
    def test_matches_literal_evaluation(self):
        for n in range(0, 41):
            assert pell.d5_closed_form_misprint(n) == printed_d5_closed_form(n)

    def test_n1_values(self):
        y, x = pell.d5_closed_form_misprint(1)
        assert (y, x) == (49, 22)
        assert y * y - 5 * x * x == -19

    def test_never_a_pell_solution_in_range(self):
        for n in range(0, 6):
            y, x = pell.d5_closed_form_misprint(n)
            assert y * y - 5 * x * x != -1

    def test_true_second_solution_differs(self):
        second = pell.enumerate_negative(5, 2)[1]
        assert (second.y, second.x) == (38, 17)
        assert second.y**2 - 5 * second.x**2 == -1
