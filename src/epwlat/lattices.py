"""Integral lattices presented by Gram matrices, with exact operations.

A lattice here is a free Z-module of finite rank together with an
integer-valued symmetric bilinear form, stored as its Gram matrix in a
distinguished basis. Vectors are integer coordinate tuples in that basis.
All arithmetic is exact; degenerate forms are allowed (the hyperbolic
plane has isotropic vectors, and nothing here needs nondegeneracy).

Sign conventions for the classical building blocks live in
:mod:`epwlat.catalog`; this module is agnostic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import Iterable, NamedTuple, Sequence

from . import intmat

Coords = Sequence[int]


@dataclass(frozen=True)
class Lattice:
    """A free Z-module with an integral symmetric bilinear form."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.gram)
        rows = tuple(tuple(operator.index(x) for x in row) for row in self.gram)
        if any(len(row) != n for row in rows):
            raise ValueError("Gram matrix must be square")
        if not intmat.is_symmetric(rows):
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", rows)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Lattice":
        return cls(tuple(tuple(row) for row in rows))

    def basis_vector(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.rank))


class Signature(NamedTuple):
    """Inertia counts of the form: positive, negative and zero directions."""

    positive: int
    negative: int
    zero: int


def _coords(lattice: Lattice, v: Coords) -> tuple[int, ...]:
    """The one coordinate check: integer entries, one per basis vector."""
    coords = tuple(operator.index(x) for x in v)
    if len(coords) != lattice.rank:
        raise ValueError(
            f"vector of length {len(coords)} in a rank-{lattice.rank} lattice"
        )
    return coords


@dataclass(frozen=True)
class Isometry:
    """The reflection in a (+-2)-root e of a lattice, or its negative.

    ``Isometry(lattice, e)`` is x -> x - (2(x,e)/(e,e)) e for (e,e) in
    {2, -2}. ``Isometry(lattice, r, -1)`` is z -> -z + (z,r) r for
    (r,r) = 2: it fixes r and negates the orthogonal complement of r.
    ``matrix[i][j]`` is the i-th coordinate of the image of the j-th basis
    vector, so vectors transform by ``apply`` (matrix times column).

    Checking the root checks the matrix: for the Gram matrix G and
    c = 2/(e,e), M = I - c e (Ge)^T is integral, as (e,e) divides 2(x,e),
    and M^T G M = G + (c^2 (e,e) - 2c)(Ge)(Ge)^T = G, M^2 = I and
    det M = 1 - c (Ge)^T e = -1; -M has determinant (-1)^(n+1) in rank n.
    """

    lattice: Lattice
    root: tuple[int, ...]
    sign: int = 1
    matrix: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        ce = _coords(self.lattice, self.root)
        sign = operator.index(self.sign)
        if sign not in (1, -1):
            raise ValueError(f"isometry sign must be 1 or -1, got {sign}")
        ge = intmat.mat_vec(self.lattice.gram, ce)
        ee = intmat.dot(ce, ge)
        if sign == 1 and ee not in (2, -2):
            raise ValueError(f"reflection requires (e,e) in {{2, -2}}, got {ee}")
        if sign == -1 and ee != 2:
            raise ValueError(f"negated reflection requires (r,r) = 2, got {ee}")
        # column j is sign * (b_j - c (b_j, e) e), and (b_j, e) = ge[j]
        f = [2 * x // ee for x in ge]
        object.__setattr__(self, "root", ce)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "matrix", tuple(
            tuple(sign * (int(i == j) - c * fj) for j, fj in enumerate(f))
            for i, c in enumerate(ce)
        ))

    def apply(self, v: Coords) -> tuple[int, ...]:
        return tuple(intmat.mat_vec(self.matrix, _coords(self.lattice, v)))

    def is_involution(self) -> bool:
        n = self.lattice.rank
        return intmat.mat_mul(self.matrix, self.matrix) == intmat.identity(n)


def product(lattice: Lattice, x: Coords, y: Coords) -> int:
    """The bilinear form x^T * gram * y, exactly."""
    cx = _coords(lattice, x)
    cy = _coords(lattice, y)
    return intmat.dot(cx, intmat.mat_vec(lattice.gram, cy))


def discriminant(lattice: Lattice) -> int:
    """det(gram); the empty lattice has discriminant 1."""
    return intmat.det(lattice.gram)


def signature(lattice: Lattice) -> Signature:
    """Sylvester inertia, by fraction-free symmetric elimination (exact)."""
    return Signature(*intmat.inertia(lattice.gram)[:3])


def is_even(lattice: Lattice) -> bool:
    """True iff every vector has even self-pairing, i.e. the diagonal is even."""
    return all(lattice.gram[i][i] % 2 == 0 for i in range(lattice.rank))


def reflection(lattice: Lattice, e: Coords) -> Isometry:
    """The reflection x -> x - (2(x,e)/(e,e)) e in a vector e with (e,e) = +-2."""
    return Isometry(lattice, e)


def negated_reflection(lattice: Lattice, r: Coords) -> Isometry:
    """The involution z -> -z + (z,r) r for a vector r with (r,r) = 2.

    Equal to the negative of ``reflection(lattice, r)``: it fixes r and
    acts as -1 on the orthogonal complement of r.
    """
    return Isometry(lattice, r, -1)


def orthogonal_complement(lattice: Lattice, v: Coords) -> list[tuple[int, ...]]:
    """Basis of the saturated sublattice {x : (x,v) = 0}.

    The pairing against v is the integer linear functional x -> x . (gram v),
    and the integer kernel of a linear functional is always saturated.
    """
    cv = _coords(lattice, v)
    if not any(cv):
        raise ValueError("orthogonal complement of the zero vector")
    w = intmat.mat_vec(lattice.gram, cv)
    if not any(w):
        # v pairs to zero with everything (radical direction)
        return [lattice.basis_vector(i) for i in range(lattice.rank)]
    return intmat.kernel([w], lattice.rank)


def induced_gram(lattice: Lattice, basis: Sequence[Coords]) -> Lattice:
    """The sublattice spanned by ``basis`` as an abstract lattice, B^T G B.

    Built from each basis vector's support, as complement bases are mostly
    zeros: G b is the combination of the Gram rows at the nonzero
    coordinates of b (G is symmetric, so row j is column j), and (a, G b)
    sums over the support of a only. Only the upper triangle is computed;
    the lower one is its mirror image.
    """
    vecs = [_coords(lattice, b) for b in basis]
    if intmat.rank(vecs) != len(vecs):
        raise ValueError("basis vectors are linearly dependent")
    gram = lattice.gram
    supports = [[(j, x) for j, x in enumerate(b) if x] for b in vecs]
    images = []
    for support in supports:
        j, x = support[0]
        gb = [x * g for g in gram[j]]
        for j, x in support[1:]:
            gb = [u + x * g for u, g in zip(gb, gram[j])]
        images.append(gb)
    m = len(vecs)
    rows = [[0] * m for _ in vecs]
    for i, support in enumerate(supports):
        for k in range(i, m):
            gb = images[k]
            rows[i][k] = rows[k][i] = sum([x * gb[j] for j, x in support])
    return Lattice(tuple(map(tuple, rows)))


def saturation(lattice: Lattice, basis: Sequence[Coords]) -> list[tuple[int, ...]]:
    """Basis of (Q-span of basis) intersected with the lattice.

    Computed by two integer kernel extractions: first the functionals
    vanishing on the span, then the joint kernel of those functionals.
    The input spans a finite-index sublattice of the output. The first
    kernel also checks the input: it has rank - len(basis) rows iff the
    basis vectors are linearly independent.
    """
    vecs = [list(_coords(lattice, b)) for b in basis]
    functionals = intmat.kernel(vecs, lattice.rank)
    if len(functionals) != lattice.rank - len(vecs):
        raise ValueError("basis vectors are linearly dependent")
    if not functionals:
        return [lattice.basis_vector(i) for i in range(lattice.rank)]
    return intmat.kernel([list(f) for f in functionals], lattice.rank)


def is_primitive(lattice: Lattice, v: Coords) -> bool:
    """True iff v is not an integer multiple > 1 of a lattice vector."""
    cv = _coords(lattice, v)
    if not any(cv):
        raise ValueError("primitivity of the zero vector is undefined")
    return gcd(*cv) == 1


def sublattice_discriminant_test(d_sub: int, d_sup: int) -> bool:
    """Necessary condition for a finite-index inclusion with given discriminants.

    A finite-index sublattice satisfies d_sub = index^2 * d_sup, so this
    returns True iff d_sup divides d_sub and the quotient is the square of
    a positive integer.
    """
    if d_sup == 0:
        raise ValueError("discriminant of the superlattice must be nonzero")
    if d_sub % d_sup:
        return False
    q = d_sub // d_sup
    return q >= 1 and isqrt(q) ** 2 == q


def direct_sum(a: Lattice, b: Lattice) -> Lattice:
    """Orthogonal direct sum: block-diagonal Gram matrix."""
    na, nb = a.rank, b.rank
    rows = []
    for i in range(na):
        rows.append(tuple(a.gram[i]) + (0,) * nb)
    for i in range(nb):
        rows.append((0,) * na + tuple(b.gram[i]))
    return Lattice(tuple(rows))


def rescale(lattice: Lattice, a: int) -> Lattice:
    """The twisted lattice L(a): same module, form multiplied by a."""
    if a == 0:
        raise ValueError("rescaling factor must be nonzero")
    return Lattice(tuple(tuple(a * x for x in row) for row in lattice.gram))


def is_isometry(lattice: Lattice, matrix: Sequence[Sequence[int]]) -> bool:
    """True iff M^T G M = G exactly."""
    n = lattice.rank
    rows = [list(row) for row in matrix]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("matrix dimensions do not match the lattice rank")
    g = [list(row) for row in lattice.gram]
    mt = intmat.transpose(rows)
    return intmat.mat_mul(intmat.mat_mul(mt, g), rows) == g
