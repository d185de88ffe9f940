"""Exact linear algebra over the integers.

Everything in here works on plain lists/tuples of Python ints (arbitrary
precision); no floating point and no rationals are used anywhere. The
matrices in this package are small (rank <= 24): determinants use
fraction-free Bareiss elimination; rank, integer kernels and Hermite
normal forms all come from one Euclidean row echelon (``echelon``) under
unimodular row operations; and inertia counts come from fraction-free
symmetric (Bareiss) elimination applied as a congruence. That one
symmetric pass also gives the determinant of a symmetric matrix: each
block is |previous pivot| times the rational Schur complement, so the
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


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def det(m: Matrix) -> int:
    """Determinant by fraction-free Bareiss elimination (exact)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: the division by the previous pivot is exact
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def echelon(a: list[list[int]], cols: int) -> int:
    """Bring the first ``cols`` columns of the rows ``a`` to Hermite echelon.

    Works in place with unimodular row operations only. In each column the
    row with the smallest nonzero entry reduces the others (Euclid) until
    one nonzero entry is left; that row is moved into place and made
    positive. Returns the pivot count r: rows r and below vanish on the
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
    a = [list(row) for row in m if any(row)]
    return echelon(a, len(a[0])) if a else 0


def kernel(m: Matrix, width: int) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x in Z^width : m @ x = 0}.

    ``echelon`` on the rows of [m^T | I] over the first len(m) columns: the
    identity part records the unimodular transform U, and its rows that
    vanish on m^T form a basis of the kernel. The basis extends to the
    basis U of Z^width, so the kernel it spans is saturated.
    """
    rows = len(m)
    a = [[row[j] for row in m] + e for j, e in enumerate(identity(width))]
    r = echelon(a, rows)
    return [tuple(row[rows:]) for row in a[r:]]


def row_hnf(vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the Z-span of ``vectors``.

    ``echelon``, then each pivot reduces the entries above it into
    [0, pivot). Two sets of vectors span the same sublattice of Z^n iff
    their forms are equal.
    """
    a = [list(v) for v in vectors if any(v)]
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

    Yields ``(p, block)`` per basis direction: ``block`` is the trailing
    block on which the step works and ``p = block[0][0]`` its pivot, or
    ``p = 0`` for a direction in the radical. Every block is a positive
    multiple of the rational Schur complement, so the signs of the pivots
    are the signs of a diagonal form congruent to ``gram``.

    The step maps the block to ``sign(p)*(p*a_ij - a_i0*a_0j) / |prev|``
    with ``prev`` the previous nonzero pivot. As in Bareiss's determinant
    the division is exact: entries stay (up to sign) minors of the matrix
    after the basis changes below, so they obey Hadamard's bound instead
    of doubling in length every step. A zero pivot is first repaired by
    swapping in a later basis vector with nonzero diagonal; failing that,
    by adding a basis vector that pairs nontrivially with it (which makes
    the diagonal entry 2*(off-diagonal) != 0). Both are unimodular
    congruences of the trailing block, so the block stays a positive
    multiple of the Schur complement in the new basis.
    """
    a = [list(row) for row in gram]
    prev = 1
    while a:
        if a[0][0] == 0:
            swap = next((i for i in range(1, len(a)) if a[i][i] != 0), None)
            if swap is not None:
                a[0], a[swap] = a[swap], a[0]
                for row in a:
                    row[0], row[swap] = row[swap], row[0]
            else:
                off = next((i for i in range(1, len(a)) if a[0][i] != 0), None)
                if off is None:
                    yield 0, a
                    a = [row[1:] for row in a[1:]]
                    continue
                a[0] = [x + y for x, y in zip(a[0], a[off])]
                for row in a:
                    row[0] += row[off]
        yield a[0][0], a
        p = a[0][0]
        s = 1 if p > 0 else -1
        head = a[0][1:]
        a = [[s * (p * x - row[0] * h) // prev for x, h in zip(row[1:], head)]
             for row in a[1:]]
        prev = abs(p)


def inertia(gram: Matrix) -> tuple[int, int, int, int]:
    """(positive, negative, zero, det) of a symmetric matrix, in one pass.

    Sylvester's law read off the pivot signs of ``congruence_pivots``. The
    determinant is 0 when a direction lies in the radical, and otherwise
    (-1)^negative * |last pivot|: block k is |p_(k-1)| times the rational
    Schur complement, whose pivot p_k/|p_(k-1)| is the k-th rational pivot,
    so their product telescopes to p_last * prod_(k<last) sign(p_k); the
    swap and add repairs are unimodular congruences and keep the
    determinant. The empty matrix has determinant 1.
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
