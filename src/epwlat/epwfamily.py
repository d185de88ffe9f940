"""The EPW/Hilbert-square pipeline: degrees, involutions, and the d(n) family.

A smooth double EPW sextic Y~ -> Y carries the polarization class gamma
pulled back from the hyperplane class of the sextic Y in P^5, so
gamma^4 = (covering degree) * (sextic degree) = 2 * 6 = 12. Hilbert
squares of K3 surfaces (and their deformations) have Fujiki constant 3,
and the Fujiki relation q^4 = c*(q,q)^2 then forces (gamma,gamma) = 2.

If the Hilbert square of a degree-d, Picard-rank-1 K3 surface is
birational to such a fourfold, gamma = x*h - y*delta in its Neron-Severi
lattice gives 2 = d*x^2 - 2*y^2, i.e. the negative Pell equation
y^2 - (g-1) x^2 = -1 with g = d/2 + 1 must be solvable: a necessary
condition on the degree.

Conversely, deforming the degree-10 case while keeping the half-diagonal
class delta2 = 4f - 9*delta algebraic produces, for each n >= 1, Hilbert
squares of degree

    d(n) = 8n^2 + 16n + 10 = 2(4(n+1)^2 + 1)

whose Picard lattice is spanned by gamma = h - 2*delta and delta2, with
(gamma, delta2) = 4n + 4, and whose primitive polarization is
h2 = gamma + (2n+2)*delta2. In the genus parameter g = r^2 + 2 this
realizes every even r >= 4 as r = 2n + 2. ``family`` computes each member
with exact lattice arithmetic; the closed formulas above are checked
against it rather than substituted for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple, Optional

from . import catalog, lattices, pell
from .errors import ensure
from .lattices import Isometry, Lattice

# Numeric consequences of the geometry (the only part modeled here):
# a double EPW sextic is a 2:1 cover of a sextic hypersurface, and
# Hilbert squares of K3 surfaces have Fujiki constant 3.
COVERING_DEGREE = 2
SEXTIC_DEGREE = 6
FUJIKI_HILBERT_SQUARE = 3


def epw_top_intersection() -> int:
    """gamma^4 on a double EPW sextic: covering degree times sextic degree."""
    return COVERING_DEGREE * SEXTIC_DEGREE


def fujiki_degree_to_bb(q4: int, c: int) -> int:
    """Invert the Fujiki relation q4 = c * s^2 for the Beauville square s.

    Returns the unique s >= 0 with c*s^2 = q4, or raises if the data is
    inconsistent (q4 not a non-negative multiple of c by a perfect square).
    """
    if q4 < 0 or c < 1:
        raise ValueError("need q4 >= 0 and c >= 1")
    if q4 % c:
        raise ValueError(f"inconsistent Fujiki data: {c} does not divide {q4}")
    t = q4 // c
    s = isqrt(t)
    if s * s != t:
        raise ValueError(f"inconsistent Fujiki data: {q4}/{c} is not a square")
    return s


class NecessaryCondition(NamedTuple):
    """Outcome of the Pell test for a polarization degree d.

    ``solvable`` means the necessary condition holds; unsolvable means the
    Hilbert square of a Picard-rank-1 degree-d K3 cannot be birational to
    a smooth double EPW sextic. ``witness`` is the minimal solution when
    one exists.
    """

    solvable: bool
    witness: Optional[pell.PellSolution]


def necessary_condition(d: int) -> NecessaryCondition:
    """Solvability of y^2 - (g-1) x^2 = -1 for g = d/2 + 1, with witness.

    Defined for even degrees d >= 10 (the regime where the birationality
    question is posed); note g - 1 = d/2.
    """
    if d % 2 or d < 10:
        raise ValueError("degree must be an even integer >= 10")
    big_d = d // 2
    if not pell.is_solvable_negative(big_d):
        return NecessaryCondition(False, None)
    return NecessaryCondition(True, pell.fundamental_negative(big_d))


@dataclass(frozen=True)
class InvolutionReport:
    """The antisymplectic involution determined by a square-2 class.

    On NS = Zh + Zdelta with (h,h) = d, the class gamma = h - m*delta of
    square d - 2m^2 = 2 defines z -> -z + (z,gamma)*gamma: an involutive
    isometry fixing gamma and negating its orthogonal complement.
    """

    d: int
    m: int
    matrix: Isometry
    image_of_h: tuple[int, ...]
    image_of_delta: tuple[int, ...]


def epw_involution(d: int, m: int) -> InvolutionReport:
    """Build the involution for gamma = h - m*delta on NS_HILB(d).

    ``lattices.negated_reflection`` rejects gamma unless d - 2m^2 = 2.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    j = lattices.negated_reflection(catalog.ns_hilbert_square(d), (1, -m))
    return InvolutionReport(
        d=d,
        m=m,
        matrix=j,
        image_of_h=j.apply((1, 0)),
        image_of_delta=j.apply((0, 1)),
    )


@dataclass(frozen=True)
class FamilyRecord:
    """All derived data of the degree family at index n.

    Invariants (all enforced): d = 8n^2 + 16n + 10 = 2(4(n+1)^2 + 1),
    g = d/2 + 1 = ogrady_r^2 + 2, ogrady_r = 2n + 2, disc_pi = -2d, and
    the Pell witness solves y^2 - (g-1) x^2 = -1.

    ``gamma`` and ``delta2`` are coordinates in the (f, h, delta) basis of
    NS3(n); ``h2`` is in the (gamma, delta2) basis of Pi, whose Gram matrix
    is ``gram_pi``.
    """

    n: int
    d: int
    g: int
    ogrady_r: int
    gram_pi: tuple[tuple[int, ...], ...]
    gamma: tuple[int, ...]
    delta2: tuple[int, ...]
    h2: tuple[int, ...]
    disc_pi: int
    pell: pell.PellSolution


def family(n: int) -> FamilyRecord:
    """Compute the n-th family member by exact lattice arithmetic.

    Everything is derived from the rank-3 ambient lattice: the Picard
    lattice of the deformation as an induced Gram matrix, its
    discriminant, and the primitive polarization h2 as the generator of
    the intersection with the orthogonal complement of delta2 (sign fixed
    by (h2, gamma) > 0). The closed formulas are asserted against the
    computed values.
    """
    ambient = catalog.rank3_neron_severi(n)
    gamma, delta2 = catalog.GAMMA_COORDS, catalog.DELTA2_COORDS
    pi = lattices.induced_gram(ambient, [gamma, delta2])
    disc_pi = lattices.discriminant(pi)

    (h2,) = lattices.orthogonal_complement(pi, (0, 1))
    if lattices.product(pi, h2, (1, 0)) < 0:
        h2 = tuple(-x for x in h2)

    d = lattices.product(pi, h2, h2)
    g = d // 2 + 1
    r = 2 * n + 2
    ensure(d == 8 * n * n + 16 * n + 10 == 2 * (4 * (n + 1) ** 2 + 1),
           f"family({n}): degree {d} differs from 8n^2 + 16n + 10")
    ensure(g == r * r + 2, f"family({n}): genus {g} differs from r^2 + 2")
    ensure(disc_pi == -2 * d, f"family({n}): disc(Pi) = {disc_pi}, not -2d")
    ensure(h2 == (1, 2 * n + 2),
           f"family({n}): h2 = {h2}, not gamma + (2n+2) delta2")

    witness = pell.fundamental_negative(g - 1)
    ensure(witness is not None, f"family({n}): no Pell solution for D = {g - 1}")

    return FamilyRecord(
        n=n,
        d=d,
        g=g,
        ogrady_r=r,
        gram_pi=pi.gram,
        gamma=gamma,
        delta2=delta2,
        h2=h2,
        disc_pi=disc_pi,
        pell=witness,
    )


class DiscObstruction(NamedTuple):
    """Discriminant of the two-polarization lattice vs. a disc -20 sublattice."""

    disc_r: int
    contradiction_r0: bool


def disc_obstruction(n: int) -> DiscObstruction:
    """Check that a disc -20 lattice cannot sit with finite index in R(n).

    R(n) has discriminant -n(n+20); a finite-index sublattice would need
    discriminant index^2 * (-n(n+20)), and -20 never qualifies for n >= 1.
    The returned flag asserts exactly that impossibility.
    """
    disc_r = lattices.discriminant(catalog.two_polarization_lattice(n))
    ensure(disc_r == -n * (n + 20), f"disc R({n}) = {disc_r}, not -n(n+20)")
    return DiscObstruction(disc_r, not lattices.sublattice_discriminant_test(-20, disc_r))


class ReflectionInequality(NamedTuple):
    """Discriminant comparison after reflecting h in a (-2)-class."""

    disc_r_prime: int
    strict: bool


def reflection_inequality(n: int, fh_bar: int) -> ReflectionInequality:
    """Strict discriminant growth when the pairing (f, h) drops.

    Reflecting h in a (-2)-class keeps (h,h) = 10 and lowers the pairing
    with f to fh_bar, so the new span has discriminant 100 - fh_bar^2,
    which must strictly exceed disc R(n) = -n(n+20). Only the regime
    0 < fh_bar < n + 10 is defined (the pairing stays positive but drops).
    """
    if n < 1:
        raise ValueError("parameter n must be >= 1")
    if not 0 < fh_bar < n + 10:
        raise ValueError("fh_bar must satisfy 0 < fh_bar < n + 10")
    disc_r_prime = 100 - fh_bar * fh_bar
    return ReflectionInequality(disc_r_prime, disc_r_prime > -n * (n + 20))


def k3_embedding_sufficient(lattice: Lattice) -> bool:
    """A sufficient criterion for embedding into the K3 lattice.

    True when the lattice is even, nondegenerate, hyperbolic of signature
    (1, rank-1), and of rank <= 10. False means "inconclusive", never
    "no embedding exists".
    """
    if not lattices.is_even(lattice) or lattice.rank > 10:
        return False
    # zero = 0 in the signature (1, rank-1, 0) already rules out a radical
    return lattices.signature(lattice) == (1, lattice.rank - 1, 0)


class OgradyCase(enum.Enum):
    """Where a given genus parameter r (genus = r^2 + 2) stands."""

    CLASSICAL_R0 = "r = 0: classical"
    OGRADY_R2 = "r = 2: O'Grady's degree-10 case"
    EVEN_FAMILY = "even r >= 4: realized by the degree family"
    ODD_OPEN = "odd r: open"


@dataclass(frozen=True)
class OgradyStatus:
    case: OgradyCase
    r: int
    n: Optional[int] = None
    record: Optional[FamilyRecord] = None
    note: str = ""


def ogrady_status(r: int) -> OgradyStatus:
    """Classify the genus parameter r; even r >= 4 maps to n = r/2 - 1."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return OgradyStatus(OgradyCase.CLASSICAL_R0, r)
    if r == 2:
        return OgradyStatus(OgradyCase.OGRADY_R2, r, note="degree 10")
    if r % 2 == 0:
        n = r // 2 - 1
        return OgradyStatus(OgradyCase.EVEN_FAMILY, r, n=n, record=family(n))
    note = "only partial results are known" if r == 1 else ""
    return OgradyStatus(OgradyCase.ODD_OPEN, r, note=note)
