"""The reference kernel: how fast the machine runs right now.

The machine is shared, and its speed drifts within seconds: the same
verify call took from 1.0 s to 1.6 s in one process, while its ratio to
this kernel run right before and after it stayed within 0.89-1.04 of its
median in 22 of 23 calls. ``run.py`` runs the kernel between items and
divides item times by the slowdown it measures.

The kernel does the kinds of work the workloads do: fraction-free
determinants and a matrix product on Python integer lists (as lattice-ops
and verify do), and a recurrence that multiplies a growing integer by a
small one and adds, as continued-fraction convergents do in pell-cli. A
Karatsuba-size multiply and divide in its place tracked pell-cli items
worse: with the kernel right before and after, the same item still spread
by up to 0.23 against 0.15 with the recurrence. No code of the package
runs in the kernel, so a change to the package cannot move it. This
module imports nothing but ``time``, so that the set-up measurement can
run the kernel in a fresh interpreter before it imports the package.
"""

import time

# Seconds the kernel takes at the reference speed: a quiet moment of the
# shared 2-core x86_64 machine the bounds were set on.
REFERENCE_S = 0.010


def det(m) -> int:
    """Fraction-free Gaussian elimination with row swaps."""
    a = [list(r) for r in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _matrix(n: int = 24) -> list[list[int]]:
    """A fixed n x n matrix with entries in -9..9, from a linear congruence."""
    x, rows = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2**31
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


_M = _matrix()


def kernel() -> float:
    """Seconds of the fixed work, about REFERENCE_S at the reference speed."""
    t0 = time.perf_counter()
    for _ in range(4):
        det(_M)
    cols = list(zip(*_M))
    [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in _M]
    for _ in range(2):
        p, q = 1, 0
        for k in range(2500):  # p grows to about 14 000 bits
            p, q = (k % 97 + 1) * p + q, p
    return time.perf_counter() - t0
