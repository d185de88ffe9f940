"""Negative Pell solver: continued fractions, fundamental solutions,
enumeration, the prime criterion, and the misprinted D=5 closed form.

Brute-force oracles here search for x with D x^2 - 1 a perfect square,
independently of the continued-fraction machinery under test."""

import random
from math import isqrt

import pytest

from epwlat import cli, pell, verify
from epwlat.verify import min_solution_x_brute


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


def full_period_walk(d):
    """Reference: (a0, period) of sqrt(d), walking the whole period until the
    first post-initial state (m, q) recurs."""
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    period = []
    first_state = None
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        if first_state is None:
            first_state = (m, q)
        elif (m, q) == first_state:
            break
        period.append(a)
    return a0, tuple(period)


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

    def test_norm_algebra_to_plus_one(self):
        verify.enumeration_law(5, 4)

    def test_unsolvable_or_zero_count_rejected(self):
        with pytest.raises(ValueError):
            pell.enumerate_negative(3, 1)
        with pytest.raises(ValueError):
            pell.enumerate_negative(5, 0)


def sequential_fundamental(d):
    """Reference: the one-term-at-a-time convergent recurrence over the whole
    period of the full walk."""
    a0, period = full_period_walk(d)
    if len(period) % 2 == 0:
        return None
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    for a in period[:-1]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


class TestConvergentProduct:
    def test_matches_sequential_recurrence_to_2000(self):
        lengths = set()
        for d in range(2, 2301):
            if isqrt(d) ** 2 == d:
                continue
            sol = pell.fundamental_negative(d)
            assert (sol and (sol.y, sol.x)) == sequential_fundamental(d), d
            if sol is not None:
                lengths.add(pell.cf_expansion(d).period_length)
        # one-term periods, and lengths on both sides of the 16-term leaf
        # and of two leaves, counted in L and in the half period h = L // 2
        # (L = 33, 35, 65, 67); the first L = 65 is D = 2293
        assert {1, 15, 17, 31, 33, 35, 65, 67}.issubset(lengths) and max(lengths) > 64

    def test_large_prime(self):
        d = 10**9 + 9
        assert pell.cf_expansion(d).period_length == 59879
        assert pell.fundamental_negative(d).x.bit_length() == 102089

    def test_enumerate_prime_near_1e8(self):
        p = 100000037
        assert pell.is_prime(p) and p % 4 == 1
        sols = pell.enumerate_negative(p, 3)
        y0, x0 = sequential_fundamental(p)
        powers, y, x = [], 1, 0
        for n in range(1, 6):
            y, x = y * y0 + p * x * x0, y * x0 + x * y0
            if n % 2:
                powers.append((y, x))
        assert [(s.y, s.x) for s in sols] == powers
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
        assert all(pell.is_prime(n) == trial(n) for n in range(0, 2000))
        assert pell.is_prime(10**12 + 39)  # beyond trial-division comfort

    # psi_12 is a strong pseudoprime to every prime base 2..37
    PSI_12 = 318665857834031151167461
    PSI_13 = 3317044064679887385961981

    def test_psi_12_is_not_prime(self):
        assert self.PSI_12 == 399165290221 * 798330580441
        assert not pell.is_prime(self.PSI_12)

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


class TestClosedFormMisprint:
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
