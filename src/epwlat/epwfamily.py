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
condition on the degree. Its minimal solution is the degree's one Pell
witness, which ``epw_involution(d)`` and ``family(n)`` both use.

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


def necessary_condition(d: int) -> Optional[pell.PellSolution]:
    """The minimal solution of y^2 - (g-1) x^2 = -1 for g = d/2 + 1, or None.

    None means the necessary condition fails: the Hilbert square of a
    Picard-rank-1 degree-d K3 cannot be birational to a smooth double EPW
    sextic. Defined for even degrees d >= 10 (the regime where the
    birationality question is posed); note g - 1 = d/2. A square d/2 is
    unsolvable; otherwise sqrt(d/2) is expanded once, to decide and solve.
    """
    if d % 2 or d < 10:
        raise ValueError("degree must be an even integer >= 10")
    big_d = d // 2
    if isqrt(big_d) ** 2 == big_d:
        return None
    return pell.fundamental_negative(big_d)


def epw_involution(d: int) -> Isometry:
    """The involution z -> -z + (z,gamma)*gamma of NS_HILB(d), or ValueError.

    gamma = x*h - y*delta comes from the witness (y, x) of
    ``necessary_condition(d)``; with (h,h) = d its square is d*x^2 - 2*y^2
    = 2, so the map is an involutive isometry fixing gamma and negating its
    orthogonal complement, with the images of h and delta as matrix
    columns. For x = 1 (d = 2y^2 + 2, the family among them) it is the
    antisymplectic involution; for x > 1 only the lattice involution is
    claimed.
    """
    witness = necessary_condition(d)
    if witness is None:
        raise ValueError(f"degree {d} fails the necessary condition")
    return lattices.negated_reflection(catalog.ns_hilbert_square(d), (witness.x, -witness.y))


class FamilyRecord(NamedTuple):
    """All derived data of the degree family at index n.

    Invariants (all enforced): d = 8n^2 + 16n + 10 = 2(4(n+1)^2 + 1),
    disc_pi = -2d, and the Pell witness solves y^2 - (g-1) x^2 = -1. The
    genus g = d/2 + 1 = ogrady_r^2 + 2, with ogrady_r = 2n + 2, follows
    from d.

    ``h2`` is in the (gamma, delta2) basis of Pi, whose Gram matrix is
    ``gram_pi``; gamma and delta2 themselves are ``catalog.GAMMA_COORDS``
    and ``catalog.DELTA2_COORDS`` in the (f, h, delta) basis of NS3(n).
    A NamedTuple record: equal to the tuple of its fields, immutable.
    """

    n: int
    d: int
    g: int
    ogrady_r: int
    gram_pi: tuple[tuple[int, ...], ...]
    h2: tuple[int, ...]
    disc_pi: int
    pell: pell.PellSolution


def family(n: int) -> FamilyRecord:
    """Compute the n-th family member by exact lattice arithmetic.

    Everything is derived from the rank-3 ambient lattice: the Picard
    lattice of the deformation as the Gram matrix that gamma and delta2
    induce there (``catalog.epw_picard_lattice``), its discriminant, and
    the primitive polarization h2 as the generator of the intersection
    with the orthogonal complement of delta2 (sign fixed by
    (h2, gamma) > 0). The closed formulas are asserted against the
    computed values. The Pell witness is ``necessary_condition(d)``'s.
    """
    pi = catalog.epw_picard_lattice(n)
    disc_pi = lattices.discriminant(pi)

    (h2,) = lattices.orthogonal_complement(pi, (0, 1))
    if lattices.product(pi, h2, (1, 0)) < 0:
        h2 = tuple(-x for x in h2)

    d = lattices.product(pi, h2, h2)
    g = d // 2 + 1
    r = 2 * n + 2
    ensure(d == 8 * n * n + 16 * n + 10,
           f"family({n}): degree {d} differs from 8n^2 + 16n + 10")
    ensure(disc_pi == -2 * d, f"family({n}): disc(Pi) = {disc_pi}, not -2d")
    ensure(h2 == (1, r), f"family({n}): h2 = {h2}, not gamma + (2n+2) delta2")

    witness = necessary_condition(d)
    ensure(witness is not None, f"family({n}): no Pell solution for D = {g - 1}")

    return FamilyRecord(n=n, d=d, g=g, ogrady_r=r, gram_pi=pi.gram, h2=h2,
                        disc_pi=disc_pi, pell=witness)


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


class OgradyStatus(NamedTuple):
    """The case of r, with its family record (even r >= 4) or a note; a
    NamedTuple record, equal to the tuple of its fields and immutable."""

    case: OgradyCase
    record: Optional[FamilyRecord] = None
    note: str = ""


def ogrady_status(r: int) -> OgradyStatus:
    """Classify the genus parameter r; even r >= 4 maps to n = r/2 - 1."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return OgradyStatus(OgradyCase.CLASSICAL_R0)
    if r == 2:
        return OgradyStatus(OgradyCase.OGRADY_R2, note="degree 10")
    if r % 2 == 0:
        return OgradyStatus(OgradyCase.EVEN_FAMILY, record=family(r // 2 - 1))
    note = "only partial results are known" if r == 1 else ""
    return OgradyStatus(OgradyCase.ODD_OPEN, note=note)
