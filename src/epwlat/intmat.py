"""Exact linear algebra over the integers.

Everything in here works on plain lists/tuples of Python ints (arbitrary
precision); no floating point and no rationals are used anywhere. The
matrices in this package are small (rank <= 24): determinants use
fraction-free Bareiss elimination; rank, integer kernels, saturations and
Hermite normal forms all come from one Euclidean row echelon (``echelon``)
under unimodular row operations (``kernel`` reads the transform rows of
the echelon of [m^T | I] below the pivots, ``saturation`` the pivot block
above them); and inertia counts come from fraction-free symmetric
(Bareiss) elimination applied as a congruence, which stores and updates
only the upper triangle. Both eliminations repair a zero pivot one way, by
adding a later basis vector (in ``det``, a later row) to its own, a
unimodular step that keeps the Bareiss divisions exact. The Grams of this
package are sparse block sums, so a row whose entry in the pivot column is
zero is only rescaled, or kept as it is (``det`` keeps the dense update).
That one symmetric pass also gives the determinant of a symmetric matrix:
each block is |previous pivot| times the rational Schur complement, so the
rational pivots p_k/|p_(k-1)| multiply to (-1)^negative * |last pivot|.
A lone determinant, of any square matrix, still comes from ``det``.

A basis that is already saturated, as a kernel or orthogonal complement
basis is, has only unit pivots, and ``saturation`` returns it as it is.
Otherwise one reduction, ``_hermite_reduce``, brings the pivot block to
its Hermite form before the substitution; ``row_hnf`` is ``echelon`` and
the same reduction. ``echelon`` itself leaves the entries above its pivots
unreduced: ``rank`` reads only the pivot count, and ``kernel`` the rows
below the pivots.

Matrix products have one algorithm: each row of the left factor is taken
by its support, its nonzero entries, and the product row is the
combination of the right factor's rows there (``_combination``). The
Grams and bases here are mostly zeros, so a unit row costs no multiply.
``mat_mul`` is A B; ``congruence`` is B G B^T, and finds each row's
support once for both of its products. Vector products, ``dot`` and
``mat_vec``, stay dot products.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, Sequence

Matrix = Sequence[Sequence[int]]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Matrix) -> list[list[int]]:
    return [list(col) for col in zip(*m)] if m else []


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _supports(m: Matrix) -> list[list[tuple[int, int]]]:
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _combination(support, rows: Matrix, width: int) -> Sequence[int]:
    """The sum of x * rows[j] over the pairs (j, x) of ``support``.

    An empty support gives ``width`` zeros. A unit support [(j, 1)] gives
    rows[j] itself, not a copy: no caller mutates what this returns, and
    no row is edited in place, so a shared row is never changed.
    """
    if not support:
        return [0] * width
    j, x = support[0]
    if x == 1 and len(support) == 1:
        return rows[j]
    out = [x * g for g in rows[j]]
    for j, x in support[1:]:
        out = [u + x * g for u, g in zip(out, rows[j])]
    return out


def mat_mul(a: Matrix, b: Matrix) -> list[list[int]]:
    """The product A B, as a list of lists like ``identity``.

    Row i of A B is the combination of the rows of B over the support of
    row i of A: a row of A that is the unit vector e_j gives row j of B
    (copied into the result's own list), and an all-zero row gives zeros.
    """
    return [list(_combination(s, b, len(b[0]) if b else 0)) for s in _supports(a)]


def congruence(b: Matrix, g: Matrix) -> tuple[tuple[int, ...], ...]:
    """B G B^T for the rows b_0, ..., b_(m-1) of B, as a tuple of row tuples
    like ``Lattice.gram``: entry (i, k) is the pairing b_i^T G b_k.

    Each row's support is found once and serves both products, as bases
    of complements are mostly zeros. G b_k is the combination of the rows
    of G over the support of b_k (G is symmetric, so row j is column j);
    row i is then the same combination, over the support of b_i, of the
    columns of the images G b_0, ..., G b_(m-1). Every row is built in
    full, with no mirror pass. A unit vector e_j costs no multiply: its
    image is row j of G itself, and its row of the result column j of the
    images, both shared, not copied.
    """
    supports = _supports(b)
    columns = list(zip(*[_combination(s, g, len(g)) for s in supports]))  # of the G b_k
    return tuple([tuple(_combination(s, columns, len(b))) for s in supports])


def mat_vec(m: Matrix, v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in m]


def det(m: Matrix) -> int:
    """Determinant by fraction-free Bareiss elimination (exact).

    A zero pivot is repaired by adding to its row the first later row with
    a nonzero entry in the pivot column (or the determinant is 0 when there
    is none). A row addition keeps the determinant, so no sign is tracked.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), 0)
            if not i:
                return 0
            a[k] = [x + y for x, y in zip(a[k], a[i])]
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: the division by the previous pivot is exact
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return a[n - 1][n - 1]


def echelon(a: list[list[int]], cols: int) -> int:
    """Bring the first ``cols`` columns of the rows ``a`` to Hermite echelon.

    Works in place with unimodular row operations only. In each column the
    row with the smallest nonzero entry reduces the others (Euclid) until
    one nonzero entry is left; that row is moved into place and made
    positive. The sort is stable, so ties keep the earlier row as the
    reducer. Returns the pivot count r: rows r and below vanish on the
    first ``cols`` columns. Entries above the pivots are left unreduced.
    """
    r = 0
    for c in range(cols):
        if r == len(a):
            break
        live: list[list[int]] = []
        done: list[list[int]] = []
        for row in a[r:]:
            (live if row[c] else done).append(row)
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[c]))
            top, *others = live
            p = top[c]
            live = [top]
            for row in others:
                q = row[c] // p  # nonzero, as |row[c]| >= |p|
                row = [x - q * y for x, y in zip(row, top)]
                (live if row[c] else done).append(row)
        top = live[0]
        a[r:] = [top if top[c] > 0 else [-x for x in top], *done]
        r += 1
    return r


def rank(m: Matrix) -> int:
    """Rank over the rationals: the pivot count of ``echelon``."""
    a = [list(row) for row in m]
    return echelon(a, len(a[0])) if a else 0


def kernel(m: Matrix, width: int) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x in Z^width : m @ x = 0}.

    ``echelon`` on the rows of [m^T | I] over the first len(m) columns: the
    identity part records the unimodular transform U, and its rows that
    vanish on m^T form a basis of the kernel. The basis extends to the
    basis U of Z^width, so the kernel it spans is saturated.
    """
    rows = len(m)
    a = [[row[j] for row in m] + [0] * j + [1] + [0] * (width - 1 - j)
         for j in range(width)]
    r = echelon(a, rows)
    return [tuple(row[rows:]) for row in a[r:]]


def _hermite_reduce(a: list[list[int]], r: int) -> None:
    """Reduce, in place, the entries above each of the first r pivots of
    the echelon rows ``a`` into [0, pivot), the pass of the Hermite normal
    form (Cohen, 2.4). Each row i above pivot row k loses q times row k,
    with q = a[i][c] // pivot read in the pivot's column c. Every step is a
    unit upper-triangular row operation, so the span and the pivots stay;
    rows r and below are not touched."""
    c = 0
    for k in range(r):
        while not a[k][c]:
            c += 1
        p = a[k][c]
        for i in range(k):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]


def saturation(vectors: Matrix) -> list[tuple[int, ...]]:
    """Basis of (Q-span of ``vectors``) intersected with Z^n.

    With V the k x n matrix of the vectors, ``echelon`` on the rows of V^T
    gives U V^T = [R; 0] for a unimodular U (the transform that ``kernel``
    records in its identity columns; it is not needed here), with R upper
    triangular with a positive diagonal when the vectors are independent.
    The pivots multiply to the index of span(V) in its saturation (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4), so they are
    all 1 exactly when V is already saturated, as a kernel or orthogonal
    complement basis is; V is then returned as it is, as a list of tuples.
    Otherwise ``_hermite_reduce`` brings R to its Hermite form R_H, each
    entry above a pivot in [0, pivot), by unimodular row operations that
    keep U V^T = [R_H; 0] for another U. Then V^T = W R_H with W the first
    k columns of U^-1. So the rows of S = W^T = R_H^-T V are integral, and
    they extend, by the other columns of U^-1, to a basis of Z^n: they span
    a saturated sublattice, and as V = R_H^T S, it has the Q-span of V. S
    comes from R_H^T S = V by forward substitution; as S is integral,
    every division is exact. With unit pivots R_H is I and S = V, which is
    what the early return gives.

    The result is unchanged, as a list, when a vector is scaled by a
    positive constant, and when the result is saturated again. In column
    c, ``echelon``'s sort order, its zero tests, its quotients
    row[c] // p and its sign rule read only that column, and none of them
    changes when the column is multiplied by a positive constant; nor does
    the reduction's quotient a[i][c] // p, read in the pivot's column c.
    Scaling vector i by l_i > 0 scales column i of V^T, so U is the same,
    R_H becomes R_H diag(l), and the substitution gives the same S. S is
    saturated, so its pivots are all 1 and saturating it returns it.

    Raises ``ValueError`` when the vectors are linearly dependent (fewer
    than k pivots).
    """
    k = len(vectors)
    a = transpose(vectors)
    if echelon(a, k) < k:
        raise ValueError("basis vectors are linearly dependent")
    if all(a[i][i] == 1 for i in range(k)):
        return [tuple(v) for v in vectors]
    _hermite_reduce(a, k)
    s: list[tuple[int, ...]] = []
    for i, v in enumerate(vectors):
        acc = v
        for j in range(i):
            c = a[j][i]  # (R^T)[i][j]
            if c:
                acc = [x - c * y for x, y in zip(acc, s[j])]
        s.append(tuple([x // a[i][i] for x in acc]))
    return s


def row_hnf(vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the Z-span of ``vectors``.

    ``echelon``, then ``_hermite_reduce``: each pivot reduces the entries
    above it into [0, pivot), the reduction that ``saturation`` runs on a
    basis that is not saturated. This is the canonical form for comparing
    spans: two sets of vectors span the same sublattice of Z^n iff their
    forms are equal. ``epwlat verify`` does not compare spans; it decides
    saturation from ``echelon``'s pivots instead (``verify._saturated``).
    """
    a = [list(v) for v in vectors]
    if not a:
        return ()
    r = echelon(a, len(a[0]))
    _hermite_reduce(a, r)
    return tuple(tuple(row) for row in a[:r])


def congruence_pivots(gram: Matrix) -> Iterator[tuple[int, list[list[int]]]]:
    """Fraction-free symmetric elimination of ``gram``, one step at a time.

    Only the upper triangle is stored: in a block of size m, row i holds
    the entries of columns i..m-1. Yields ``(p, block)`` per basis
    direction: ``block`` is the upper triangle of the trailing block on
    which the step works (so the block yielded at step k has m - k rows,
    and its row i has m - k - i entries) and ``p = block[0][0]`` its
    pivot, or ``p = 0`` for a direction in the radical. Every block is a
    positive multiple of the rational Schur complement, so the signs of
    the pivots are the signs of a diagonal form congruent to ``gram``.

    With s the sign of p and h = block[0], the step maps the triangle to
    ``(|p|*a_ij - (s*h_i)*h_j) // prev`` with ``prev`` the previous nonzero
    pivot. As in Bareiss's determinant the division is exact: entries
    stay (up to sign) minors of the matrix after the basis changes below,
    so they obey Hadamard's bound instead of doubling in length every step.
    A row i with h_i = 0 is the exact rescale ``|p|*a_ij // prev``, and the
    same row object when |p| = prev; no row is edited after it is built
    (the repair below builds a new row 0), so a row that two yielded
    blocks share is never changed. On sparse Grams most rows take this
    path; every block equals the dense update's, entry by entry.
    A zero pivot a_00 is repaired by b_0 += c*b_j, with j the first later
    direction with a_0j != 0 or a_jj != 0. The new diagonal entry is
    2c*a_0j + a_jj: c = 1 keeps it nonzero unless 2*a_0j + a_jj = 0, and
    then c = -1 makes it -4*a_0j != 0. With no such j, b_0 lies in the
    radical and yields 0. The add is a unimodular congruence of the
    trailing block, so the block stays a positive multiple of the Schur
    complement in the new basis.
    """
    a = [list(row[i:]) for i, row in enumerate(gram)]
    prev = 1
    while a:
        if not a[0][0]:
            j = next((j for j in range(1, len(a)) if a[0][j] or a[j][0]), 0)
            if not j:
                yield 0, a
                a = a[1:]
                continue
            # b_0 += c * b_j: row 0 gains c times row j in full, then its
            # diagonal gains c times the new (0, j) entry
            c = -1 if 2 * a[0][j] + a[j][0] == 0 else 1
            row = [r[j - i] for i, r in enumerate(a[:j])] + a[j]
            a[0] = [x + c * y for x, y in zip(a[0], row)]
            a[0][0] += c * a[0][j]
        head = a[0]
        p = head[0]
        yield p, a
        s = 1 if p > 0 else -1
        p *= s
        rows = []
        for i in range(1, len(a)):
            if head[i]:
                sh = s * head[i]
                rows.append([(p * x - sh * g) // prev for x, g in zip(a[i], head[i:])])
            elif p == prev:
                rows.append(a[i])
            else:
                rows.append([p * x // prev for x in a[i]])
        a = rows
        prev = p


def inertia(gram: Matrix) -> tuple[int, int, int, int]:
    """(positive, negative, zero, det) of a symmetric matrix, in one pass.

    Sylvester's law read off the pivot signs of ``congruence_pivots``. The
    determinant is 0 when a direction lies in the radical, and otherwise
    (-1)^negative * |last pivot|: block k is |p_(k-1)| times the rational
    Schur complement, whose pivot p_k/|p_(k-1)| is the k-th rational pivot,
    so their product telescopes to p_last * prod_(k<last) sign(p_k); the
    add repair is a unimodular congruence and keeps the determinant. The
    empty matrix has determinant 1.
    """
    pos = neg = zero = 0
    last = 1
    for last, _ in congruence_pivots(gram):
        if last > 0:
            pos += 1
        elif last < 0:
            neg += 1
        else:
            zero += 1
    return pos, neg, zero, 0 if zero else (-1) ** neg * abs(last)
