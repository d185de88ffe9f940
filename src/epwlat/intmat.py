"""Exact linear algebra over the integers.

Everything in here works on plain lists/tuples of Python ints (arbitrary
precision); no floating point and no rationals are used anywhere. The
matrices in this package are small (rank <= 24): determinants use
fraction-free Bareiss elimination, integer kernels use unimodular column
reduction, and inertia counts come from fraction-free symmetric (Bareiss)
elimination applied as a congruence.
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


def rank(m: Matrix) -> int:
    """Rank over the rationals, by fraction-free row echelon."""
    a = [list(row) for row in m if any(row)]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                f = a[i][c]
                a[i] = [p * x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def kernel(m: Matrix, width: int) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x in Z^width : m @ x = 0}.

    Unimodular column reduction: columns of ``m`` are reduced to echelon
    form while the same operations are applied to an identity matrix; the
    columns matching the zeroed-out part form a basis. The kernel of an
    integer matrix is automatically saturated.
    """
    rows = len(m)
    work = [list(row) for row in m]
    u = identity(width)

    def col_sub(j: int, j0: int, q: int) -> None:
        for i in range(rows):
            work[i][j] -= q * work[i][j0]
        for i in range(width):
            u[i][j] -= q * u[i][j0]

    def col_swap(j: int, j0: int) -> None:
        for i in range(rows):
            work[i][j], work[i][j0] = work[i][j0], work[i][j]
        for i in range(width):
            u[i][j], u[i][j0] = u[i][j0], u[i][j]

    def col_neg(j: int) -> None:
        for i in range(rows):
            work[i][j] = -work[i][j]
        for i in range(width):
            u[i][j] = -u[i][j]

    pivots = 0
    for r in range(rows):
        nz = [j for j in range(pivots, width) if work[r][j] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            j0 = min(nz, key=lambda j: abs(work[r][j]))
            if work[r][j0] < 0:
                col_neg(j0)
            p = work[r][j0]
            remaining = [j0]
            for j in nz:
                if j == j0:
                    continue
                q = work[r][j] // p
                if q:
                    col_sub(j, j0, q)
                if work[r][j] != 0:
                    remaining.append(j)
            nz = sorted(remaining)
        if nz[0] != pivots:
            col_swap(nz[0], pivots)
        pivots += 1
        if pivots == width:
            break
    return [tuple(u[i][j] for i in range(width)) for j in range(pivots, width)]


def row_hnf(vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the Z-span of ``vectors``.

    Pivots are positive, entries above a pivot lie in [0, pivot). Two sets
    of vectors span the same sublattice of Z^n iff their forms are equal.
    """
    a = [list(v) for v in vectors if any(v)]
    if not a:
        return ()
    cols = len(a[0])
    r = 0
    for c in range(cols):
        live = [i for i in range(r, len(a)) if a[i][c] != 0]
        if not live:
            continue
        while len(live) > 1:
            i0 = min(live, key=lambda i: abs(a[i][c]))
            p = a[i0][c]
            remaining = [i0]
            for i in live:
                if i == i0:
                    continue
                q = a[i][c] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[i0])]
                if a[i][c] != 0:
                    remaining.append(i)
            live = sorted(remaining)
        i0 = live[0]
        a[r], a[i0] = a[i0], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
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


def inertia(gram: Matrix) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia counts of a symmetric matrix.

    Sylvester's law read off the pivot signs of ``congruence_pivots``.
    """
    pos = neg = zero = 0
    for p, _ in congruence_pivots(gram):
        if p > 0:
            pos += 1
        elif p < 0:
            neg += 1
        else:
            zero += 1
    return pos, neg, zero
