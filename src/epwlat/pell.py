"""Exact solver for the negative Pell equation y^2 - D x^2 = -1.

Solvability for non-square D >= 2 is decided by the parity of the period
of the continued fraction of sqrt(D): the equation has a solution iff the
period length is odd, in which case the convergent at the end of the
first period is the fundamental (minimal) solution. The body of the period
is a palindrome, so ``cf_expansion`` walks only to its middle (detected by
Q_{h+1} = Q_h for an odd period, P_{h+1} = P_h for an even one) and mirrors
the rest. The convergent is the product of the 2x2 matrices
M(a) = [[a, 1], [1, 0]] over a0, a1, ..., a_{2h}; by the palindrome it is
M(a0) N N^T with N = M(a1) ... M(a_h), so only the half product N is
formed, as a balanced product tree (binary splitting; Lagarias, Trans. AMS
260, 1980; Jacobson and Williams, Solving the Pell Equation, 2009, ch. 3)
whose leaves run the sequential recurrence on at most 16 terms, so the
large multiplications pair operands of equal size. All further
solutions are the odd powers of the fundamental unit y0 + x0*sqrt(D) in
Z[sqrt(D)], computed by exact integer multiplication. ``negative_solutions``
builds them from an already expanded ``ContinuedFraction``.

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
exactly over Q(sqrt(5)) so the verifier can document the discrepancy; the
enumeration here deliberately uses odd unit powers instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import ensure


@dataclass(frozen=True)
class PellSolution:
    """A positive solution of y^2 - d x^2 = -1, validated exactly."""

    d: int
    y: int
    x: int

    def __post_init__(self):
        if self.y <= 0 or self.x <= 0:
            raise ValueError("Pell solutions are stored with positive y, x")
        if self.y * self.y - self.d * self.x * self.x != -1:
            raise ValueError(
                f"({self.y}, {self.x}) does not solve y^2 - {self.d} x^2 = -1"
            )


@dataclass(frozen=True)
class ContinuedFraction:
    """The periodic continued fraction of sqrt(d): [a0; period repeated]."""

    d: int
    a0: int
    period: tuple[int, ...]

    def __post_init__(self):
        # classical shape: the period is a palindrome followed by 2*a0
        if not self.period or self.period[-1] != 2 * self.a0:
            raise ValueError("period must end with 2*a0")
        body = self.period[:-1]
        if tuple(body) != tuple(reversed(body)):
            raise ValueError("period body must be a palindrome")

    @property
    def period_length(self) -> int:
        return len(self.period)


def _require_nonsquare(d: int) -> int:
    if d < 2:
        raise ValueError("D must be an integer >= 2")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValueError(f"D = {d} is a perfect square")
    return a0


def cf_expansion(d: int) -> ContinuedFraction:
    """Continued fraction of sqrt(d) for non-square d >= 2.

    Integer recurrence on the states (P_k, Q_k) with partial quotients a_k:
        P_{k+1} = a_k Q_k - P_k,  Q_{k+1} = (d - P_{k+1}^2) / Q_k,
        a_{k+1} = floor((a0 + P_{k+1}) / Q_{k+1}),
    starting from (P_0, Q_0) = (0, 1). The period [a_1, ..., a_L] ends with
    2*a0 and its body a_1 ... a_{L-1} is a palindrome, so the walk stops at
    the middle of the period and mirrors the half it has seen:

    - odd L = 2h + 1: the first k >= 0 with Q_{k+1} = Q_k is h, and the body
      is a_1 ... a_h followed by its reverse;
    - even L = 2h: the first k >= 1 with P_{k+1} = P_k is h, and the body is
      a_1 ... a_h followed by a_{h-1} ... a_1.

    The returned period is the full one.
    """
    a0 = _require_nonsquare(d)
    p, q, a = 0, 1, a0
    half = []
    while True:
        p_next = a * q - p
        if p_next == p:  # never at k = 0, where P_1 = a0 > 0 = P_0
            body = half + half[-2::-1]
            break
        q_next = (d - p_next * p_next) // q
        if q_next == q:
            body = half + half[::-1]
            break
        p, q = p_next, q_next
        a = (a0 + p) // q
        half.append(a)
    return ContinuedFraction(d, a0, tuple(body) + (2 * a0,))


def _qmul(u: tuple, v: tuple, d: int) -> tuple:
    """(a + b sqrt(d)) (c + e sqrt(d)) as a pair, for int or Fraction entries."""
    a, b = u
    c, e = v
    return (a * c + d * b * e, a * e + b * c)


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


def negative_solutions(cf: ContinuedFraction, k: int) -> list[PellSolution]:
    """The k smallest solutions of y^2 - d x^2 = -1 for the expansion cf of sqrt(d).

    Solutions exist iff the period length L = 2h + 1 is odd. The fundamental
    one is the convergent p/q of [a0; a1, ..., a_{2h}], (y, x) = (p, q) with
    p^2 - d q^2 = (-1)^L = -1: the first column of M(a0) M(a1) ... M(a_{2h})
    for M(a) = [[a, 1], [1, 0]]. The body a_1 ... a_{2h} is a palindrome and
    each M(a) is symmetric, so with N = M(a1) ... M(a_h) = [[P, P'], [Q, Q']]
    that product is M(a0) N N^T, and

        x = P^2 + P'^2,   y = a0 x + P Q + P' Q'.

    N is computed over half the period by binary splitting down to
    sequential leaves of at most 16 terms. The other solutions are the odd
    powers (y0 + x0 sqrt(d))^(2m+1), obtained by repeatedly multiplying
    with the square of the fundamental solution (the fundamental +1 unit)
    in Z[sqrt(d)]. Each solution is checked exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = cf.d
    if cf.period_length % 2 == 0:
        raise ValueError(f"y^2 - {d} x^2 = -1 has no integer solutions")
    p, pp, q, qq = _convergent_matrix(cf.period, 0, cf.period_length // 2)
    x = p * p + pp * pp
    y = cf.a0 * x + p * q + pp * qq
    out = [PellSolution(d, y, x)]
    if k > 1:
        unit = _qmul((y, x), (y, x), d)
        for _ in range(k - 1):
            y, x = _qmul((y, x), unit, d)
            out.append(PellSolution(d, y, x))
    return out


def fundamental_negative(d: int) -> PellSolution | None:
    """Minimal positive solution of y^2 - d x^2 = -1, or None.

    Exists iff the continued-fraction period of sqrt(d) has odd length;
    then it is the last convergent before the end of the first period,
    computed by ``negative_solutions`` from the product of 2x2 matrices
    over half the period.
    """
    cf = cf_expansion(d)
    return negative_solutions(cf, 1)[0] if cf.period_length % 2 else None


def enumerate_negative(d: int, k: int) -> list[PellSolution]:
    """The k smallest solutions of y^2 - d x^2 = -1, in increasing order.

    Expands sqrt(d) once and hands it to ``negative_solutions``: the
    fundamental solution from the half-period convergent product, then the
    odd powers of the fundamental unit.
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
    return cf_expansion(d).period_length % 2 == 1


# The first 13 primes as Miller-Rabin witnesses are proven complete below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster, 2017). Without
# 41 they are complete only below psi_12 = 318665857834031151167461, a
# strong pseudoprime to every base 2..37.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < psi_13.

    Raises ValueError for n >= psi_13, where the fixed witnesses are no
    longer proven complete.
    """
    if n >= _PSI_13:
        raise ValueError(f"primality is decided exactly only below {_PSI_13}")
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
    for a in _WITNESSES:
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

_Quad = tuple[Fraction, Fraction]  # a + b*sqrt(5)


def _qpow(u: _Quad, k: int) -> _Quad:
    out: _Quad = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _qmul(out, u, 5)
    return out


def d5_closed_form_misprint(n: int) -> tuple[Fraction, Fraction]:
    """Evaluate the misprinted D = 5 closed form exactly (see module docs).

    Returns (y_n, x_n) as exact rationals. The result is NOT a Pell
    solution: at n = 1 it gives (49, 22) with residual -19. Kept so the
    verifier can assert the discrepancy instead of silently correcting it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    unit = _qpow((Fraction(2), Fraction(1)), 2 * n)        # (2+sqrt5)^(2n)
    conj = _qpow((Fraction(2), Fraction(-1)), 2 * n)       # (2-sqrt5)^(2n)
    two_y = _add(_qmul((Fraction(1), Fraction(2)), unit, 5),
                 _qmul((Fraction(1), Fraction(-2)), conj, 5))
    two_x = _add(_qmul((Fraction(2), Fraction(1, 5)), unit, 5),
                 _qmul((Fraction(2), Fraction(-1, 5)), conj, 5))
    ensure(two_y[1] == 0 and two_x[1] == 0,
           "conjugate sums in Q(sqrt5) must be rational")
    return two_y[0] / 2, two_x[0] / 2


def _add(u: _Quad, v: _Quad) -> _Quad:
    return (u[0] + v[0], u[1] + v[1])
