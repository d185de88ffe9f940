"""Named constructors for every lattice this package computes with.

Catalog identifiers (also the CLI's lattice names):

    U           hyperbolic plane [[0,1],[1,0]]
    E8          the even unimodular positive-definite rank-8 root lattice
    A1(a)       the rank-1 lattice <a>, a != 0
    I22_2       the odd unimodular lattice 22<1> + 2<-1>
    LAMBDA2     <2> + <2>, the rank-2 polarization lattice of a degree-10
                Fano fourfold (Schubert cycle restrictions)
    LAMBDA0     2E8 + 2U + 2<2>, its vanishing cohomology, signature (20,2)
    K3          3U + 2E8(-1), the K3 cohomology lattice, signature (3,19)
    NS_HILB(d)  [[d,0],[0,-2]] in the basis (h, delta): the Neron-Severi
                lattice of the Hilbert square of a degree-d K3 surface of
                Picard number 1, with the Beauville form (d even, >= 2)
    R(n)        [[10,n+10],[n+10,10]] in the basis (f, h): a K3 surface
                with two degree-10 polarizations meeting in n+10 (n >= 1)
    NS3(n)      rank-3: R(n) + <-2> in the basis (f, h, delta), the
                Neron-Severi lattice of the Hilbert square of such a K3
    PI(n)       the rank-2 sublattice of NS3(n) spanned by
                gamma = h - 2*delta and delta2 = 4f - 9*delta

Sign conventions: E8 is positive definite so that LAMBDA0 has signature
(20,2) as stated for the Fano fourfold; the K3 lattice uses E8(-1) (via
``rescale``) to land on (3,19). Both conventions occur in the literature
and the twist keeps them consistent here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from . import intmat, lattices
from .lattices import Lattice, Signature

# Cartan matrix of E8 (simply laced, so equal to the Gram matrix of the
# root basis): chain 1-3-4-5-6-7-8 with node 2 hanging off node 4.
_E8_GRAM = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def hyperbolic_plane() -> Lattice:
    """U = [[0,1],[1,0]]: even, unimodular, signature (1,1)."""
    return Lattice(((0, 1), (1, 0)))


def e8() -> Lattice:
    """The positive-definite E8 root lattice (Gram = Cartan matrix)."""
    return Lattice(_E8_GRAM)


def rank_one(a: int) -> Lattice:
    """The rank-1 lattice <a>."""
    if a == 0:
        raise ValueError("rank-1 lattice needs a nonzero form")
    return Lattice(((a,),))


def i22_2() -> Lattice:
    """The odd unimodular lattice 22<1> + 2<-1> of signature (22,2)."""
    return _sum([rank_one(1)] * 22 + [rank_one(-1)] * 2)


def fano_polarization_lattice() -> Lattice:
    """<2> + <2>: the span of the two restricted Schubert cycles."""
    return Lattice(((2, 0), (0, 2)))


def fano_vanishing_lattice() -> Lattice:
    """2E8 + 2U + 2<2>: even of signature (20,2)."""
    return _sum([e8(), e8(), hyperbolic_plane(), hyperbolic_plane(),
                 rank_one(2), rank_one(2)])


def k3_lattice() -> Lattice:
    """3U + 2E8(-1): even unimodular of signature (3,19)."""
    e8_neg = lattices.rescale(e8(), -1)
    return _sum([hyperbolic_plane()] * 3 + [e8_neg, e8_neg])


def ns_hilbert_square(d: int) -> Lattice:
    """Beauville form on the Hilbert square of a degree-d, rank-1 K3.

    Basis (h, delta): (h,h) = d, (h,delta) = 0, (delta,delta) = -2, where
    2*delta is the class of the diagonal.
    """
    if d < 2 or d % 2:
        raise ValueError("degree must be an even integer >= 2")
    return Lattice(((d, 0), (0, -2)))


def two_polarization_lattice(n: int) -> Lattice:
    """Rank-2 form [[10, n+10],[n+10, 10]] of two degree-10 classes f, h."""
    if n < 1:
        raise ValueError("parameter n must be >= 1")
    return Lattice(((10, n + 10), (n + 10, 10)))


def rank3_neron_severi(n: int) -> Lattice:
    """Hilbert-square Neron-Severi of a two-polarization K3: R(n) + <-2>.

    Basis (f, h, delta) with (f,delta) = (h,delta) = 0; the ambient in
    which the classes gamma = h - 2*delta and delta2 = 4f - 9*delta live.
    """
    if n < 1:
        raise ValueError("parameter n must be >= 1")
    return Lattice((
        (10, n + 10, 0),
        (n + 10, 10, 0),
        (0, 0, -2),
    ))


# Coordinates of gamma and delta2 in the (f, h, delta) basis of NS3(n).
GAMMA_COORDS = (0, 1, -2)
DELTA2_COORDS = (4, 0, -9)


def epw_picard_lattice(n: int) -> Lattice:
    """The rank-2 lattice spanned by gamma and delta2 inside NS3(n).

    Its Gram matrix works out to [[2, 4n+4],[4n+4, -2]].
    """
    ambient = rank3_neron_severi(n)
    return lattices.induced_gram(ambient, [GAMMA_COORDS, DELTA2_COORDS])


def _sum(parts: list[Lattice]) -> Lattice:
    return reduce(lattices.direct_sum, parts, Lattice(()))


_PLAIN = {
    "U": hyperbolic_plane,
    "E8": e8,
    "I22_2": i22_2,
    "LAMBDA2": fano_polarization_lattice,
    "LAMBDA0": fano_vanishing_lattice,
    "K3": k3_lattice,
}

_PARAMETRIZED = {
    "A1": rank_one,
    "NS_HILB": ns_hilbert_square,
    "R": two_polarization_lattice,
    "NS3": rank3_neron_severi,
    "PI": epw_picard_lattice,
}

_ID_RE = re.compile(r"^\s*([A-Za-z0-9_]+)\s*(?:\(\s*(-?\d+)\s*\))?\s*$")


def build(catalog_id: str) -> Lattice:
    """Build a catalog lattice from its identifier, e.g. "NS_HILB(10)"."""
    m = _ID_RE.match(catalog_id)
    if not m:
        raise ValueError(f"malformed catalog identifier: {catalog_id!r}")
    name, arg = m.group(1), m.group(2)
    if name in _PLAIN:
        if arg is not None:
            raise ValueError(f"catalog lattice {name} takes no parameter")
        return _PLAIN[name]()
    if name in _PARAMETRIZED:
        if arg is None:
            raise ValueError(f"catalog lattice {name} needs a parameter")
        return _PARAMETRIZED[name](int(arg))
    raise ValueError(f"unknown catalog lattice: {name!r}")


def names() -> list[str]:
    """All catalog identifiers (parametrized ones shown with a placeholder)."""
    return sorted(_PLAIN) + sorted(f"{k}(...)" for k in _PARAMETRIZED)


@dataclass(frozen=True)
class CatalogReport:
    rank: int
    discriminant: int
    signature: Signature
    even: bool


def report(catalog_id: str) -> CatalogReport:
    """Rank, discriminant, signature and parity of a catalog lattice."""
    return report_of(build(catalog_id))


def report_of(lattice: Lattice) -> CatalogReport:
    """The report of any lattice; one elimination gives det and signature."""
    pos, neg, zero, det = intmat.inertia(lattice.gram)
    return CatalogReport(
        rank=lattice.rank,
        discriminant=det,
        signature=Signature(pos, neg, zero),
        even=lattices.is_even(lattice),
    )
