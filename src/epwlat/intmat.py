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


def mat_mul(a: Matrix, b: Matrix) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


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


def saturation(vectors: Matrix) -> list[tuple[int, ...]]:
    """Basis of (Q-span of ``vectors``) intersected with Z^n.

    With V the k x n matrix of the vectors, ``echelon`` on the rows of V^T
    gives U V^T = [R; 0] for a unimodular U (the transform that ``kernel``
    records in its identity columns; it is not needed here), with R upper
    triangular with a positive diagonal when the vectors are independent.
    Then V^T = W R with W the first k columns of U^-1. So the rows of
    S = W^T = R^-T V are integral, and they extend, by the other columns of
    U^-1, to a basis of Z^n: they span a saturated sublattice, and as
    V = R^T S, it has the Q-span of V. S comes from R^T S = V by forward
    substitution; as S is integral, every division is exact.

    The result is unchanged, as a list, when a vector is scaled by a
    positive constant, and when the result is saturated again. In column
    c, ``echelon``'s sort order, its zero tests, its quotients
    row[c] // p and its sign rule read only that column, and none of them
    changes when the column is multiplied by a positive constant. Scaling
    vector i by l_i > 0 scales column i of V^T, so U is the same, R
    becomes R diag(l), and the substitution gives the same S. V^T = S^T R
    with R upper triangular and positive on its diagonal, so on the rows
    still live at column c, column c of V^T is R[c][c] times that of S^T:
    S^T takes the same U too, its R is I, and S comes back unchanged.

    Raises ``ValueError`` when the vectors are linearly dependent (fewer
    than k pivots).
    """
    k = len(vectors)
    a = transpose(vectors)
    if echelon(a, k) < k:
        raise ValueError("basis vectors are linearly dependent")
    s: list[tuple[int, ...]] = []
    for i, v in enumerate(vectors):
        acc = v
        for j in range(i):
            c = a[j][i]  # (R^T)[i][j]
            if c:
                acc = [x - c * y for x, y in zip(acc, s[j])]
        p = a[i][i]
        s.append(tuple([x // p for x in acc]))
    return s


def row_hnf(vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the Z-span of ``vectors``.

    ``echelon``, then each pivot reduces the entries above it into
    [0, pivot). Two sets of vectors span the same sublattice of Z^n iff
    their forms are equal.
    """
    a = [list(v) for v in vectors]
    if not a:
        return ()
    r = echelon(a, len(a[0]))
    c = 0
    for k in range(r):
        while not a[k][c]:
            c += 1
        p = a[k][c]
        for i in range(k):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
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
