"""Exact solver for the negative Pell equation y^2 - D x^2 = -1.

Solvability for non-square D >= 2 is decided by the parity of the period
of the continued fraction of sqrt(D): the equation has a solution iff the
period length is odd, in which case the convergent at the end of the
first period is the fundamental (minimal) solution. The body of the period
is a palindrome, so ``cf_expansion`` walks only to its middle (detected by
Q_{h+1} = Q_h for an odd period, P_{h+1} = P_h for an even one) and
``ContinuedFraction`` keeps that half and the period's parity; the full
period is mirrored from them only when it is read. The convergent is the
product of the 2x2 matrices
M(a) = [[a, 1], [1, 0]] over a0, a1, ..., a_{2h}; by the palindrome it is
M(a0) N N^T with N = M(a1) ... M(a_h), so only the half product N is
formed, as a balanced product tree (binary splitting; Lagarias, Trans. AMS
260, 1980; Jacobson and Williams, Solving the Pell Equation, 2009, ch. 3)
whose leaves run the sequential recurrence on at most 16 terms, so the
large multiplications pair operands of equal size. All further
solutions are the odd powers of the fundamental unit y0 + x0*sqrt(D) in
Z[sqrt(D)]. Only the fundamental solution is checked exactly (it is the
one ``PellSolution`` built); the odd powers follow from it by the
two-term recurrence s_{m+1} = T s_m - s_{m-1} with T = 4 y0^2 + 2, whose
terms have norm -1 by multiplicativity. ``negative_solutions`` builds
them from an already expanded ``ContinuedFraction``.

The records ``PellSolution``, ``DerivedSolution`` and ``ContinuedFraction``
are ``typing.NamedTuple``s, like every record of the package: a record
compares equal to the plain tuple of its fields and unpacks like one.
``PellSolution.__post_init__`` is its one check hook: ``__new__`` calls
it, and ``_make`` (hence ``_replace``) goes through ``__new__``.

For prime D the classical criterion applies: y^2 - p x^2 = -1 is solvable
iff p = 2 or p = 1 (mod 4). ``prime_criterion`` implements it and the
test suite pins its agreement with the continued-fraction decision. Its
primality test is exact below psi_13 (about 3.3 * 10^24) and refuses
larger p.

A closed form for the D = 5 solutions that circulates in print,

    2 y_n = (1 + 2√5)(2 + √5)^{2n} + (1 - 2√5)(2 - √5)^{2n}
    2 x_n = (2 + 1/√5)(2 + √5)^{2n} + (2 - 1/√5)(2 - √5)^{2n},

is misprinted: evaluated exactly it yields (y_1, x_1) = (49, 22), whose
Pell residual 49^2 - 5*22^2 = -19 is not -1 (the true second solution is
(38, 17)). ``d5_closed_form_misprint`` evaluates the printed expression
exactly: with (2 + √5)^{2n} = a + b√5, both sides are conjugate sums
whose rational parts give y_n = a + 10b and x_n = 2a + b, and (a, b)
steps by the unit (2 + √5)^2 = 9 + 4√5. So the verifier can document the
discrepancy; the enumeration here deliberately uses odd unit powers instead.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt
from typing import NamedTuple


class _PellFields(NamedTuple):
    d: int
    y: int
    x: int


class PellSolution(_PellFields):
    """A positive solution of y^2 - d x^2 = -1, validated exactly.

    A NamedTuple record (d, y, x): it compares equal to the plain tuple of
    its fields, hashes as that tuple and unpacks as one. ``__post_init__``
    is its one check. ``__new__`` calls it, looked up on the instance at
    call time, and ``_make`` goes through the constructor, so every way of
    building a record reaches it: the constructor, ``_make``, ``_replace``
    (which calls ``_make``), ``copy`` and ``pickle`` (which call
    ``__new__``).
    """

    __slots__ = ()

    def __new__(cls, d: int, y: int, x: int):
        self = tuple.__new__(cls, (d, y, x))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __post_init__(self):
        if self.y <= 0 or self.x <= 0:
            raise ValueError("Pell solutions are stored with positive y, x")
        # d * (x * x): CPython squares x * x faster than it multiplies (d * x) * x
        if self.y * self.y - self.d * (self.x * self.x) != -1:
            raise ValueError(
                f"({self.y}, {self.x}) does not solve y^2 - {self.d} x^2 = -1"
            )


class DerivedSolution(NamedTuple):
    """A solution of y^2 - d x^2 = -1 derived from a checked PellSolution.

    ``negative_solutions`` produces it by the unit recurrence; it is not
    re-checked, because its norm follows from that of the fundamental
    solution (see ``negative_solutions``).
    """

    y: int
    x: int


class ContinuedFraction(NamedTuple):
    """The periodic continued fraction of sqrt(d): [a0; period repeated].

    Only what the half-period walk of ``cf_expansion`` computes is stored:
    a0, the first half ``half`` = (a_1, ..., a_h) of the period and ``odd``,
    the parity of its length L = 2h + odd. The period is a palindromic body
    followed by 2*a0, so it is determined by these and is mirrored from
    them when ``period`` is read. A NamedTuple record (d, a0, half, odd):
    it compares equal to the plain tuple of its fields and unpacks as one.
    """

    d: int
    a0: int
    half: tuple[int, ...]
    odd: bool

    @property
    def period(self) -> tuple[int, ...]:
        """The full period (a_1, ..., a_L): the half, its mirror, then 2*a0.

        For odd L = 2h + 1 the body is a_1 ... a_h followed by its reverse;
        for even L = 2h it is a_1 ... a_h followed by a_{h-1} ... a_1.
        """
        mirror = self.half[::-1] if self.odd else self.half[-2::-1]
        return self.half + mirror + (2 * self.a0,)

    @property
    def period_length(self) -> int:
        return 2 * len(self.half) + self.odd

    @property
    def solvable(self) -> bool:
        """Whether y^2 - d x^2 = -1 has a solution: Lagrange's rule, the
        period length is odd."""
        return self.odd


def cf_expansion(d: int) -> ContinuedFraction:
    """Continued fraction of sqrt(d) for non-square d >= 2.

    Integer recurrence on the states (P_k, Q_k) with partial quotients a_k:
        P_{k+1} = a_k Q_k - P_k,  Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}),
        a_{k+1} = floor((a0 + P_{k+1}) / Q_{k+1}),
    starting from (P_0, Q_0) = (0, 1) and Q_{-1} = d. The Q update is the
    division-free form of Q_{k+1} = (d - P_{k+1}^2) / Q_k (Jacobson and
    Williams, Solving the Pell Equation, 2009, ch. 3): it follows from
    d - P_{k+1}^2 = Q_k Q_{k+1} and d - P_k^2 = Q_{k-1} Q_k, whose
    difference is (P_k - P_{k+1})(P_k + P_{k+1}) = (P_k - P_{k+1}) a_k Q_k.
    ``verify.full_period_walk`` keeps the division form, as an independent
    reference. The period [a_1, ..., a_L] ends with
    2*a0 and its body a_1 ... a_{L-1} is a palindrome, so the walk stops at
    the middle of the period and keeps the half a_1 ... a_h it has seen:

    - odd L = 2h + 1: the first k >= 0 with Q_{k+1} = Q_k is h;
    - even L = 2h: the first k >= 1 with P_{k+1} = P_k is h.

    The returned ``ContinuedFraction`` holds that half and the parity of L;
    its ``period`` mirrors the half into the full period.
    """
    if d < 2:
        raise ValueError("D must be an integer >= 2")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValueError(f"D = {d} is a perfect square")
    p, q, q_prev, a = 0, 1, d, a0
    half = []
    while True:
        p_next = a * q - p
        if p_next == p:  # never at k = 0, where P_1 = a0 > 0 = P_0
            return ContinuedFraction(d, a0, tuple(half), False)
        q_next = q_prev + a * (p - p_next)
        if q_next == q:
            return ContinuedFraction(d, a0, tuple(half), True)
        p, q, q_prev = p_next, q_next, q
        a = (a0 + p) // q
        half.append(a)


# Leaves of the convergent product tree run the sequential recurrence on at
# most this many partial quotients; splitting down to single terms measured
# slower end to end.
_LEAF = 16


def _convergent_matrix(terms: tuple[int, ...], lo: int, hi: int) -> tuple:
    """Product of the matrices [[a, 1], [1, 0]] over terms[lo:hi], as (p, p', q, q').

    The product is [[p, p'], [q, q']]: for terms b0, b1, ..., b_k it holds
    the last two convergents of [b0; b1, ..., b_k], p/q and p'/q'; over
    the empty range it is the identity. Balanced binary splitting: short
    ranges run the sequential recurrence, longer ones multiply the products
    of their two halves, so the big multiplications pair operands of equal
    size.
    """
    if hi - lo <= _LEAF:
        p, pp, q, qq = 1, 0, 0, 1
        for i in range(lo, hi):
            a = terms[i]
            p, pp = a * p + pp, p
            q, qq = a * q + qq, q
        return p, pp, q, qq
    mid = (lo + hi) // 2
    a, b, c, e = _convergent_matrix(terms, lo, mid)
    f, g, h, k = _convergent_matrix(terms, mid, hi)
    return a * f + b * h, a * g + b * k, c * f + e * h, c * g + e * k


def negative_solutions(
    cf: ContinuedFraction, k: int
) -> list[PellSolution | DerivedSolution]:
    """The k smallest solutions of y^2 - d x^2 = -1 for the expansion cf of sqrt(d).

    Solutions exist iff the period length L = 2h + 1 is odd. The fundamental
    one is the convergent p/q of [a0; a1, ..., a_{2h}], (y, x) = (p, q) with
    p^2 - d q^2 = (-1)^L = -1: the first column of M(a0) M(a1) ... M(a_{2h})
    for M(a) = [[a, 1], [1, 0]]. The body a_1 ... a_{2h} is a palindrome and
    each M(a) is symmetric, so with N = M(a1) ... M(a_h) = [[P, P'], [Q, Q']]
    that product is M(a0) N N^T, and

        x = P^2 + P'^2,   y = a0 x + P Q + P' Q'.

    N is computed over ``cf.half`` by binary splitting down to
    sequential leaves of at most 16 terms. The fundamental solution is
    checked exactly, as the one ``PellSolution`` of the list.

    The other solutions are the odd powers s_m = e^(2m+1) of the unit
    e = y0 + x0 sqrt(d), as ``DerivedSolution`` records. Their norm is
    N(e)^(2m+1) = -1 by multiplicativity, so they are not re-checked. The
    +1 unit u = e^2 has trace T = 2 (y0^2 + d x0^2) = 4 y0^2 + 2 (by the
    checked d x0^2 = y0^2 + 1) and norm 1, so u^2 = T u - 1 and

        s_{m+1} = T s_m - s_{m-1},   s_0 = (y0, x0),   s_{-1} = 1/e = (-y0, x0),

    coordinatewise: one product by T per coordinate and step. As e > 1,
    the powers are positive and increase strictly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = cf.d
    if not cf.solvable:
        raise ValueError(f"y^2 - {d} x^2 = -1 has no integer solutions")
    p, pp, q, qq = _convergent_matrix(cf.half, 0, len(cf.half))
    x = p * p + pp * pp
    y = cf.a0 * x + p * q + pp * qq
    out: list[PellSolution | DerivedSolution] = [PellSolution(d, y, x)]
    if k > 1:
        t = 4 * (y * y) + 2  # y * y is a squaring, as in PellSolution's check
        y_prev, x_prev = -y, x
        for _ in range(k - 1):
            y, y_prev = t * y - y_prev, y
            x, x_prev = t * x - x_prev, x
            out.append(DerivedSolution(y, x))
    return out


def fundamental_negative(d: int) -> PellSolution | None:
    """Minimal positive solution of y^2 - d x^2 = -1, or None.

    Exists iff the continued-fraction period of sqrt(d) has odd length;
    then it is the last convergent before the end of the first period,
    computed by ``negative_solutions`` from the product of 2x2 matrices
    over half the period.
    """
    cf = cf_expansion(d)
    return negative_solutions(cf, 1)[0] if cf.solvable else None


def enumerate_negative(d: int, k: int) -> list[PellSolution | DerivedSolution]:
    """The k smallest solutions of y^2 - d x^2 = -1, in increasing order.

    Expands sqrt(d) once and hands it to ``negative_solutions``: the
    fundamental solution from the half-period convergent product, checked
    exactly, then the odd powers of the fundamental unit, derived from it
    by the two-term unit recurrence.
    """
    return negative_solutions(cf_expansion(d), k)


def is_solvable_negative(d: int) -> bool:
    """Whether y^2 - d x^2 = -1 has any integer solution.

    D = 1 is solvable by (y, x) = (0, 1); larger perfect squares are not
    (y^2 - (sx)^2 = -1 forces consecutive squares); otherwise decided by
    the continued-fraction period parity.
    """
    if d < 1:
        raise ValueError("D must be a positive integer")
    if d == 1:
        return True
    if isqrt(d) ** 2 == d:
        return False
    return cf_expansion(d).solvable


# psi_k is the least composite that is a strong pseudoprime to each of the
# first k prime bases (OEIS A014233; Jaeschke 1993; Sorenson and Webster
# 2017), so the first k primes are complete Miller-Rabin witnesses below
# psi_k.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < psi_13.

    Tests n < psi_k with the first k primes only. Raises ValueError for
    n >= psi_13, where the 13 witnesses are no longer proven complete.
    """
    if n >= _PSI[-1]:
        raise ValueError(f"primality is decided exactly only below {_PSI[-1]}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES[:bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_criterion(p: int) -> bool:
    """The residue criterion for primes: solvable iff p = 2 or p = 1 (mod 4)."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime; the criterion applies to primes only")
    return p == 2 or p % 4 == 1


# --- exact evaluation of the misprinted D = 5 closed form ------------------

def d5_closed_form_misprint(n: int) -> tuple[int, int]:
    """Evaluate the misprinted D = 5 closed form exactly (see module docs).

    Write (2 + √5)^{2n} = a + b√5, so (2 - √5)^{2n} = a - b√5. Each printed
    right-hand side is u + u' for a number u of Q(√5) and its conjugate
    u', that is twice the rational part of u:

        (1 + 2√5)(a + b√5)   = (a + 10b) + (2a + b)√5,
        (2 + 1/√5)(a + b√5)  = (2a + b) + (2b + a/5)√5,

    so 2 y_n = 2(a + 10b) and 2 x_n = 2(2a + b): y_n = a + 10b and
    x_n = 2a + b, integers. (a, b) starts at (1, 0) for n = 0 and each step
    multiplies by the unit (2 + √5)^2 = 9 + 4√5:
    (a, b) -> (9a + 20b, 4a + 9b).

    They are NOT a Pell solution: n = 1 gives (a, b) = (9, 4) and
    (y_1, x_1) = (49, 22) with residual -19. Kept so the verifier can
    assert the discrepancy instead of silently correcting it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = 1, 0
    for _ in range(n):
        a, b = 9 * a + 20 * b, 4 * a + 9 * b
    return a + 10 * b, 2 * a + b
