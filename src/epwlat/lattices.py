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
from math import gcd, isqrt
from typing import NamedTuple, Sequence

from . import intmat

Coords = Sequence[int]


class _LatticeFields(NamedTuple):
    gram: tuple[tuple[int, ...], ...]


class Lattice(_LatticeFields):
    """A free Z-module with an integral symmetric bilinear form.

    A NamedTuple record (gram,): immutable, equal to the 1-tuple (gram,)
    and hashed as it. ``__new__`` is its one check (``len()`` first, so a
    generator is a ``TypeError``, then integer entries, stored as ``int``,
    then square, then symmetric), and the constructor, ``_make``,
    ``_replace``, ``copy`` and ``pickle`` all go through it.
    """

    __slots__ = ()

    def __new__(cls, gram):
        n = len(gram)
        rows = tuple([tuple(map(operator.index, row)) for row in gram])
        if set(map(len, rows)) - {n}:
            raise ValueError("Gram matrix must be square")
        if rows != tuple(zip(*rows)):
            raise ValueError("Gram matrix must be symmetric")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def basis_vector(self, i: int) -> tuple[int, ...]:
        n = self.rank
        if not 0 <= i < n:
            raise IndexError(f"basis index {i} out of range for rank {n}")
        return tuple(1 if j == i else 0 for j in range(n))


class Signature(NamedTuple):
    """Inertia counts of the form: positive, negative and zero directions."""

    positive: int
    negative: int
    zero: int


def _coords(lattice: Lattice, v: Coords) -> tuple[int, ...]:
    """The one coordinate check: integer entries, one per basis vector."""
    coords = tuple(map(operator.index, v))
    if len(coords) != lattice.rank:
        raise ValueError(
            f"vector of length {len(coords)} in a rank-{lattice.rank} lattice"
        )
    return coords


class _IsometryFields(NamedTuple):
    lattice: Lattice
    root: tuple[int, ...]
    sign: int
    matrix: tuple[tuple[int, ...], ...]


class Isometry(_IsometryFields):
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

    A NamedTuple record (lattice, root, sign, matrix): immutable, equal to
    the tuple of its fields and hashed as it. The matrix is derived:
    ``__new__`` hands (lattice, root, sign) to ``__post_init__``, the one
    check, looked up on the class at call time, which returns all four
    fields. ``_make`` (so ``_replace``, which ignores a given ``matrix``)
    and ``__getnewargs__`` (so ``copy`` and ``pickle``) rebuild from the
    first three.
    """

    __slots__ = ()

    def __new__(cls, lattice: Lattice, root: Coords, sign: int = 1):
        return tuple.__new__(cls, cls.__post_init__(lattice, root, sign))

    @classmethod
    def _make(cls, iterable):
        lattice, root, sign, *_ = iterable
        return cls(lattice, root, sign)

    def __getnewargs__(self):
        return self[:3]

    @staticmethod
    def __post_init__(lattice: Lattice, root: Coords, sign: int):
        ce = _coords(lattice, root)
        sign = operator.index(sign)
        if sign not in (1, -1):
            raise ValueError(f"isometry sign must be 1 or -1, got {sign}")
        ge = intmat.mat_vec(lattice.gram, ce)
        ee = intmat.dot(ce, ge)
        if sign == 1 and ee not in (2, -2):
            raise ValueError(f"reflection requires (e,e) in {{2, -2}}, got {ee}")
        if sign == -1 and ee != 2:
            raise ValueError(f"negated reflection requires (r,r) = 2, got {ee}")
        # column j is sign * (b_j - c (b_j, e) e), and (b_j, e) = ge[j]: row i
        # is e_i * f with f_j = -sign * c (b_j, e), plus sign on the diagonal;
        # roots are mostly zeros, and a zero e_i gives a zero row
        f = [-sign * (2 * x // ee) for x in ge]
        rows = [[c * fj for fj in f] if c else [0] * len(f) for c in ce]
        for i, row in enumerate(rows):
            row[i] += sign
        return lattice, ce, sign, tuple(map(tuple, rows))

    def apply(self, v: Coords) -> tuple[int, ...]:
        return tuple(intmat.mat_vec(self.matrix, _coords(self.lattice, v)))

    def is_involution(self) -> bool:
        return intmat.mat_mul(self.matrix, self.matrix) == intmat.identity(self.lattice.rank)


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
    return intmat.kernel([intmat.mat_vec(lattice.gram, cv)], lattice.rank)


def induced_gram(lattice: Lattice, basis: Sequence[Coords]) -> Lattice:
    """The sublattice spanned by ``basis`` as an abstract lattice, B^T G B.

    ``intmat.congruence`` of the basis vectors, after the check that they
    are independent: built from each vector's support, as complement bases
    are mostly zeros, and with no mirror pass. B^T G B is symmetric
    because G is, and ``Lattice`` checks that it is.
    """
    vecs = [_coords(lattice, b) for b in basis]
    if intmat.rank(vecs) != len(vecs):
        raise ValueError("basis vectors are linearly dependent")
    return Lattice(intmat.congruence(vecs, lattice.gram))


def saturation(lattice: Lattice, basis: Sequence[Coords]) -> list[tuple[int, ...]]:
    """Basis of (Q-span of basis) intersected with the lattice.

    ``intmat.saturation`` on the coordinates: one Hermite echelon of V^T,
    its pivot block R brought to Hermite form R_H, gives V^T = W R_H with
    W part of a unimodular matrix, and the rows of R_H^-T V = W^T are
    integral, extend to a basis of the lattice, and span the input's
    Q-span. The input spans a finite-index sublattice of the output, and
    a basis that is already saturated (all pivots 1) is returned as it is.
    Raises ``ValueError`` when the basis vectors are linearly dependent.
    """
    return intmat.saturation([_coords(lattice, b) for b in basis])


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


def direct_sum(*parts: Lattice) -> Lattice:
    """Orthogonal direct sum: the block-diagonal Gram matrix, built in one
    pass and checked once; ``direct_sum()`` is the rank-0 lattice."""
    rows, before, after = [], 0, sum(part.rank for part in parts)
    for part in parts:
        after -= part.rank
        rows += [(0,) * before + row + (0,) * after for row in part.gram]
        before += part.rank
    return Lattice(tuple(rows))


def rescale(lattice: Lattice, a: int) -> Lattice:
    """The twisted lattice L(a): same module, form multiplied by a."""
    if a == 0:
        raise ValueError("rescaling factor must be nonzero")
    return Lattice(tuple(tuple(a * x for x in row) for row in lattice.gram))


def is_isometry(lattice: Lattice, matrix: Sequence[Sequence[int]]) -> bool:
    """True iff M^T G M = G exactly; M must have integer entries.

    Entry (i, k) of M^T G M pairs the images of b_i and b_k, the columns
    of M, so this is ``intmat.congruence`` of the columns, the product
    that ``induced_gram`` takes. A singular M gives False, not an error.
    """
    rows = [list(map(operator.index, row)) for row in matrix]
    if list(map(len, rows)) != [lattice.rank] * lattice.rank:
        raise ValueError("matrix dimensions do not match the lattice rank")
    return intmat.congruence(intmat.transpose(rows), lattice.gram) == lattice.gram
