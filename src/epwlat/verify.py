"""One-shot verifier: every identity this package exists to check.

The check groups are the module's ``check_<name>`` functions, which
``CHECKS`` lists and ``run_all`` runs in file order, as ``<name>`` with
``-`` for ``_``. Each recomputes a set of claims two independent ways
(closed formula vs. lattice arithmetic, continued fractions vs. brute
force, the half-period solver vs. a full-period walk, Miller-Rabin vs. a
sieve, symmetric elimination vs. Bareiss, residue criterion vs. solver)
and reports PASS/FAIL with the first counterexample. ``run_all(n_max)``
scales the n-indexed ranges; the default n_max = 100 reproduces the full
acceptance scale:

    family identities        n <= 5 * n_max       (500)
    involution soundness     n <= n_max           (100)
    change of basis to h2    n <= n_max           (100)
    necessary condition      n <= n_max / 2       (50)
    disc obstruction         n <= 10 * n_max      (1000), and fixed:
                             -80 passes and -60 fails in disc -20
    reflection inequality    n <= n_max / 5       (20)
    Pell vs. brute force     D <= 20 * n_max      (2000), x <= 10^4
    Pell minimality          D <= 5 * n_max       (500), no bound on x
    prime criterion          p < 100 * n_max      (10000)
    randomized properties    10 * n_max draws     (1000)
    signature, direct sums   max(1, n_max // 2) cases (50), and fixed:
                             U + <0> has signature (1, 1, 1)
    saturation example       fixed: sat{2 delta} = {delta} in NS_HILB(10)

In reflection-properties and index-law, a draw that repeats an earlier
one is checked once and counts as its first occurrence did: at
n_max = 100, 539 of the 1000 reflections and 891 of the 1000 accepted
index-law pairs are distinct. The record of checked draws is local to
one call, so every run checks all of them again.

Randomized suites draw from a fixed-seed generator, so output is
deterministic across runs and platforms. Their sampler ``_Draws`` reads
``random.Random(seed).getrandbits`` directly and draws the entries of a
Gram matrix or vector in one loop; its ``randint``, ``randrange``,
``choice`` and ``sample(range(n), 2)`` equal the stdlib's bit for bit
(pinned in tests/test_properties.py), so the cases are those of
``random.Random``. A seeded basis change moves the Gram matrix and any
vectors in one pass (``_apply_ops``), so each elementary move is written
once for both. The laws they and the Pell groups check are ``*_law``
functions over explicit inputs, which the property tests call too, with
hypothesis draws. One of them, ``involution_law``, states what an
``Isometry`` of root r and sign s does (r -> -s*r, r-perp -> s*w); the
randomized reflections and the EPW involutions are both checked by it.
Saturation has one criterion, ``_saturated``: k vectors span a saturated
sublattice exactly when V^T has k Hermite pivots, all 1, and one echelon
of [V^T | span^T] also shows whether given vectors lie in their Q-span.
``saturation_law`` applies it, with the input vectors as ``span``, to
the one output of ``saturation`` that each draw computes, and
``complement_law`` to that of ``orthogonal_complement``.

A fixed claim, such as one of the paper's numbers or a catalog lattice,
is a row (what, computed, expected) checked by ``_expect``, which fails
on the first mismatch with both values; a record is compared with the
plain tuple of its fields. The laws and the range loops keep their own
tests, as their messages carry the counterexample input.

A failed law and a failed ``errors.ensure`` inside the package both raise
``InvariantError``; ``run_all`` reports its message as the group's
detail, and any other exception as ``TypeName: message``.
"""

from __future__ import annotations

import random
from functools import cache
from math import isqrt
from typing import Callable, NamedTuple

from . import catalog, epwfamily, intmat, lattices, pell
from .errors import InvariantError
from .lattices import Lattice

BRUTE_X_MAX = 10**4
_SEED = 0x5EED


class CheckResult(NamedTuple):
    """A check group's name, PASS or FAIL, and detail line; a NamedTuple
    record, equal to the tuple of its fields, unpacked as one, immutable."""

    name: str
    passed: bool
    detail: str


def _fail(msg: str):
    raise InvariantError(msg)


def _expect(*claims) -> None:
    """Check fixed claims, each a tuple (what, computed, expected); the first
    mismatch fails with both values."""
    for what, got, want in claims:
        if got != want:
            _fail(f"{what} = {got}, expected {want}")


# --- independent brute-force oracle for the negative Pell equation ---------

SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37)
_BITS = bytes.maketrans(b"\0\1", b"01")


@cache  # at most sum(SIEVE_MODULI) = 359 small ints
def _residue_pattern(m: int, dm: int) -> int:
    """Bit r set for the r in 0..m-1 with dm*r^2 - 1 a square mod m."""
    squares = {r * r % m for r in range(m)}
    return sum(1 << r for r in range(m) if (dm * r * r - 1) % m in squares)


def min_solution_x_brute(top: int, x_max: int = BRUTE_X_MAX) -> dict[int, int]:
    """Every D in 2..top with a solution, mapped to its least x <= x_max with
    D*x^2 - 1 a perfect square: brute force by ``isqrt``, no continued fractions.

    A solution makes -1 a square mod D and mod x^2, so 4 does not divide D,
    x is odd, and no p = 3 (mod 4) divides D or x; one flag table skips the
    rest. It clears the multiples of each p = 3 (mod 4) in increasing order
    but skips a p whose flag is already clear: that p is a multiple of an
    earlier one, so its multiples are clear too. A composite p = 3 (mod 4)
    has a smaller prime factor = 3 (mod 4), so only the primes clear.

    For each flagged D the candidate x are the bits of one int, the odd
    flagged x <= x_max. A quadratic-residue sieve (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.7.3, applied to a whole
    range of x at once) ANDs it, for each m in ``SIEVE_MODULI``, with the
    pattern of the x mod m for which D*x^2 - 1 is a square mod m, tiled
    by one multiplication with the repunit sum of 2^(k*m). The survivors
    are tested in increasing x with ``isqrt``, the only test that accepts
    an x. The sieve is sound: D*x^2 - 1 = s^2 makes D*x^2 - 1 a square mod
    every m, so the least x survives and the table is that of the plain
    scan.
    """
    x_max = max(x_max, 0)
    n = max(top, x_max) + 1
    flag = bytearray(b"\1") * n
    flag[0::4] = bytes(len(range(0, n, 4)))
    for p in range(3, n, 4):
        if flag[p]:
            flag[0::p] = bytes(len(range(0, n, p)))
    width = x_max + 1
    odd = flag[:width]
    odd[0::2] = bytes(len(range(0, width, 2)))
    base = int(odd.translate(_BITS)[::-1], 2)  # bit x set for each candidate x
    repunits = [(m, ((1 << m * -(-width // m)) - 1) // ((1 << m) - 1)) for m in SIEVE_MODULI]
    table = {}
    for d in range(2, top + 1):
        if flag[d]:
            mask = base
            for m, repunit in repunits:
                mask &= _residue_pattern(m, d % m) * repunit
                if not mask:
                    break
            bits = bin(mask)[:1:-1]  # bits[x] is bit x
            x = bits.find("1")
            while x >= 0:
                v = d * x * x - 1
                s = isqrt(v)
                if s * s == v:
                    table[d] = x
                    break
                x = bits.find("1", x + 1)
    return table


# --- independent full-period reference for the fundamental solution --------

def full_period_walk(d):
    """Reference: (a0, period) of sqrt(d), walking the whole period until the
    first post-initial state (m, q) recurs; by Lagrange the expansion is
    purely periodic from a1 on, so it does. No palindrome is used."""
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    period = []
    first_state = None
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        if first_state is None:
            first_state = (m, q)
        elif (m, q) == first_state:
            break
        period.append(a)
    return a0, tuple(period)


def sequential_fundamental(d):
    """Reference: the one-term-at-a-time convergent recurrence over the whole
    period of the full walk. By Lagrange, y^2 - d x^2 = -1 is solvable iff
    the period length L is odd, and its least positive solution is then the
    convergent p/q of [a0; a1, ..., a_{L-1}]; returns (p, q), or None."""
    a0, period = full_period_walk(d)
    if len(period) % 2 == 0:
        return None
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    for a in period[:-1]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


# --- randomized input generation (deterministic) ----------------------------

class _Draws:
    """Seeded draws equal, bit for bit, to those of ``random.Random(seed)``.

    Every draw takes k-bit words from the generator's ``getrandbits`` as
    the stdlib's own methods do (``Random._randbelow_with_getrandbits``),
    without their three Python frames per integer:

    - ``below(n)`` takes k = n.bit_length() bits and redraws while the
      result is >= n; it is ``randrange(n)``;
    - ``randint(a, b)`` is a + below(b - a + 1), and ``ints`` is ``count``
      successive ``randint(lo, hi)`` drawn in one loop;
    - ``choice(seq)`` is seq[below(len(seq))];
    - ``pair(n)`` is ``sample(range(n), 2)``, which for n <= 21 takes the
      stdlib's pool path: i = below(n), j = below(n - 1), and j is the last
      element n - 1 when it hits i, moved into i's slot.

    The tests pin each draw against ``random.Random`` over several seeds.
    """

    __slots__ = ("_bits",)

    def __init__(self, seed: int):
        self._bits = random.Random(seed).getrandbits

    def below(self, n: int) -> int:
        bits, k = self._bits, n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def randint(self, a: int, b: int) -> int:
        return a + self.below(b - a + 1)

    def ints(self, lo: int, hi: int, count: int) -> list[int]:
        bits, width = self._bits, hi - lo + 1
        k = width.bit_length()
        out = []
        for _ in range(count):  # below's loop inlined: a call per entry costs more than the draw
            r = bits(k)
            while r >= width:
                r = bits(k)
            out.append(lo + r)
        return out

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def pair(self, n: int) -> tuple[int, int]:
        i, j = self.below(n), self.below(n - 1)
        return i, (n - 1 if j == i else j)


def _random_unimodular_ops(rng: _Draws, n: int, steps: int):
    ops = []
    for _ in range(steps):
        kind = rng.choice(("add", "swap", "neg"))
        if kind == "add" and n >= 2:
            i, j = rng.pair(n)
            ops.append(("add", i, j, rng.choice((-2, -1, 1, 2))))
        elif kind == "swap" and n >= 2:
            i, j = rng.pair(n)
            ops.append(("swap", i, j, 0))
        else:
            ops.append(("neg", rng.below(n), 0, 0))
    return ops


def _apply_ops(gram, ops, *vectors):
    """Move ``gram`` and the coordinates of ``vectors`` by the basis changes ``ops``.

    ("add", i, j, c) replaces b_j by b_j + c*b_i: G becomes E^T G E and
    every vector's coordinates v_i become v_i - c*v_j; a swap or a sign
    change acts alike on both. Returns the new Gram matrix followed by the
    new vectors, so every pairing of the vectors is kept.
    """
    g = list(map(list, gram))
    vs = list(map(list, vectors))
    for kind, i, j, c in ops:
        if kind == "add":
            for row in g:
                row[j] += c * row[i]
            for r, x in enumerate(g[i]):
                g[j][r] += c * x
            for v in vs:
                v[i] -= c * v[j]
        elif kind == "swap":
            for row in g:
                row[i], row[j] = row[j], row[i]
            g[i], g[j] = g[j], g[i]
            for v in vs:
                v[i], v[j] = v[j], v[i]
        else:
            for row in g:
                row[i] = -row[i]
            g[i] = [-x for x in g[i]]
            for v in vs:
                v[i] = -v[i]
    return (tuple(map(tuple, g)), *map(tuple, vs))


# base lattices with a known vector of self-pairing +2 or -2
def _reflection_seeds() -> list[tuple[Lattice, tuple[int, ...]]]:
    e8 = catalog.e8()
    return [(e8, e8.basis_vector(0)), (lattices.rescale(e8, -1), e8.basis_vector(3)),
            # delta, of square -2, then h - m*delta, of square +2
            *((catalog.ns_hilbert_square(d), (0, 1)) for d in (2, 4, 10, 18, 34, 52)),
            *((catalog.ns_hilbert_square(2 * m * m + 2), (1, -m)) for m in (1, 2, 3, 4)),
            (lattices.direct_sum(catalog.hyperbolic_plane(), catalog.rank_one(-2)), (0, 0, 1))]


def _random_symmetric(rng: _Draws, n: int) -> Lattice:
    """Entries in [-9, 9], drawn row by row over the upper triangle."""
    entries = iter(rng.ints(-9, 9, n * (n + 1) // 2))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = next(entries)
    return Lattice(g)


def _random_vec(rng: _Draws, n: int, bound: int = 6) -> tuple[int, ...]:
    return tuple(rng.ints(-bound, bound, n))


# --- laws: each draws nothing and raises InvariantError with the counterexample

def involution_law(iso: lattices.Isometry) -> None:
    """An isometry of root r and sign s is an involution of the form that maps
    r to -s*r and every w orthogonal to r to s*w."""
    lat, r, s = iso.lattice, iso.root, iso.sign
    if not iso.is_involution():
        _fail(f"isometry of root {r}, sign {s} squared is not the identity on {lat.gram}")
    if not lattices.is_isometry(lat, iso.matrix):
        _fail(f"isometry of root {r}, sign {s} does not preserve {lat.gram}")
    if iso.apply(r) != tuple(-s * x for x in r):
        _fail(f"isometry of sign {s} maps its root {r} to {iso.apply(r)} in {lat.gram}")
    for w in lattices.orthogonal_complement(lat, r):
        if iso.apply(w) != tuple(s * x for x in w):
            _fail(f"isometry of root {r}, sign {s} moves the orthogonal {w} in {lat.gram}")


def index_law(lat: Lattice, b) -> bool:
    """disc(B^T G B) = det(B)^2 disc(G) for the columns of a square matrix B.

    The left side comes from the symmetric elimination (``intmat.inertia``),
    the right side from Bareiss (``intmat.det``). Returns False, having
    checked nothing, when det(B) = 0: the columns then span no sublattice
    of full rank.
    """
    det_b = intmat.det(b)
    if det_b == 0:
        return False
    cols = [tuple(row[j] for row in b) for j in range(len(b))]
    sub = lattices.induced_gram(lat, cols)
    if intmat.inertia(sub.gram)[3] != det_b**2 * lattices.discriminant(lat):
        _fail(f"index law fails: gram={lat.gram}, B={b}")
    return True


def _saturated(vecs, *span) -> bool:
    """Whether k vectors are independent, span a saturated sublattice of
    Z^n and have the vectors ``span`` in their Q-span: the echelon of
    [V^T | span^T] has exactly k pivots, all 1 and on the diagonal. The
    first k pivots are those of V^T, and they multiply to the index of
    span(V) in its saturation (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4); a further pivot is a vector of ``span`` outside
    the Q-span of V. Entries above the pivots, which the Hermite form
    reduces, never change a pivot, so ``echelon`` alone decides."""
    k = len(vecs)
    a = intmat.transpose([*vecs, *span])
    return intmat.echelon(a, k + len(span)) == k and all(a[i][i] == 1 for i in range(k))


def saturation_law(lat: Lattice, vecs) -> list[tuple[int, ...]]:
    """The saturation of k independent vectors is k vectors with unit
    Hermite pivots and the vectors' Q-span (``_saturated``); returns it."""
    sat = lattices.saturation(lat, vecs)
    if len(sat) != len(vecs) or not _saturated(sat, *vecs):
        _fail(f"saturation {sat} of {vecs} is not a saturated basis of their Q-span")
    return sat


def complement_law(lat: Lattice, v) -> list[tuple[int, ...]]:
    """The orthogonal complement of v has unit Hermite pivots
    (``_saturated``); returns its basis.

    The zero vector has no complement and checks nothing.
    """
    if not any(v):
        return []
    oc = lattices.orthogonal_complement(lat, v)
    if not _saturated(oc):
        _fail(f"orthogonal complement of {v} not saturated in {lat.gram}")
    return oc


def bilinear_law(lat: Lattice, x, y, z, a: int, b: int) -> None:
    """(x, y) = (y, x) and (a x + b y, z) = a (x, z) + b (y, z)."""
    if lattices.product(lat, x, y) != lattices.product(lat, y, x):
        _fail(f"symmetry fails: {lat.gram}, {x}, {y}")
    combo = tuple(a * xi + b * yi for xi, yi in zip(x, y))
    lhs = lattices.product(lat, combo, z)
    rhs = a * lattices.product(lat, x, z) + b * lattices.product(lat, y, z)
    if lhs != rhs:
        _fail(f"bilinearity fails: {lat.gram}, {x}, {y}, {z}")


def congruence_law(lat: Lattice, ops) -> None:
    """The signature is invariant under the unimodular basis change ``ops``.

    Its zero count is also the corank n - rank(G), by ``intmat.rank`` (an
    echelon), and for a nondegenerate form sign det(G) = (-1)^negative,
    by ``intmat.det`` (Bareiss): neither comes from the symmetric
    elimination that gives the signature.
    """
    moved = Lattice(*_apply_ops(lat.gram, ops))
    sig = lattices.signature(lat)
    if sig != lattices.signature(moved):
        _fail(f"signature changed under basis change: {lat.gram}")
    if sig.zero != lat.rank - intmat.rank(lat.gram):
        _fail(f"zero count of {tuple(sig)} is not the corank of {lat.gram}")
    if not sig.zero and (-1) ** sig.negative * intmat.det(lat.gram) <= 0:
        _fail(f"sign of det disagrees with the signature {tuple(sig)} of {lat.gram}")


def direct_sum_law(a: Lattice, b: Lattice) -> Lattice:
    """Signatures add and discriminants multiply under the orthogonal direct
    sum; returns the sum."""
    summed = lattices.direct_sum(a, b)
    expect = tuple(p + q for p, q in zip(lattices.signature(a), lattices.signature(b)))
    if tuple(lattices.signature(summed)) != expect:
        _fail(f"signature not additive: {a.gram} + {b.gram}")
    if lattices.discriminant(summed) != lattices.discriminant(a) * lattices.discriminant(b):
        _fail(f"discriminant not multiplicative under direct sum: {a.gram} + {b.gram}")
    return summed


def enumeration_law(
    d: int, k: int
) -> list[pell.PellSolution | pell.DerivedSolution]:
    """The first k solutions for a solvable D increase strictly and each
    solves y^2 - D x^2 = -1; returns them. Only the first was checked when
    it was built; the others come from the unit recurrence, so this is
    their exact check."""
    sols = pell.enumerate_negative(d, k)
    for a, b in zip(sols, sols[1:]):
        if not (a.x < b.x and a.y < b.y):
            _fail(f"D={d}: enumeration not strictly increasing")
    for s in sols:
        if s.y * s.y - d * s.x * s.x != -1:
            _fail(f"D={d}: (y, x) = ({s.y}, {s.x}) does not solve y^2 - D x^2 = -1")
    return sols


def oracle_law(d: int, brute_x: int | None) -> bool:
    """The solver agrees with the brute-force least x <= BRUTE_X_MAX for a
    non-square D (``brute_x`` is None when the search found none); returns
    whether D is solvable.

    sqrt(D) is expanded once: the parity of its period decides solvability,
    and for an odd period ``pell.negative_solutions`` builds the fundamental
    solution from the same expansion and checks it exactly."""
    cf = pell.cf_expansion(d)
    solver = cf.solvable
    if brute_x is not None and not solver:
        _fail(f"D={d}: brute force found x={brute_x}, solver says unsolvable")
    if solver:
        fund = pell.negative_solutions(cf, 1)[0]
        if fund.x <= BRUTE_X_MAX and brute_x != fund.x:
            _fail(f"D={d}: solver minimal x={fund.x}, brute force x={brute_x}")
    return solver


def minimality_law(d: int) -> bool:
    """The solver's fundamental solution for a non-square D is the least one:
    the full-period reference ``sequential_fundamental`` gives the same
    (y, x), with no bound on x, or both give none; returns whether D is
    solvable."""
    fund = pell.fundamental_negative(d)
    got = None if fund is None else (fund.y, fund.x)
    ref = sequential_fundamental(d)
    if got != ref:
        _fail(f"D={d}: solver fundamental (y, x) = {got}, full-period reference {ref}")
    return ref is not None


# --- check groups -----------------------------------------------------------

def _degree(n: int) -> int:
    """The closed form d(n) = 8n^2 + 16n + 10 of the family's degree."""
    return 8 * n * n + 16 * n + 10


def check_involution_images(n_max: int) -> str:
    j = epwfamily.epw_involution(10)
    reflected = lattices.reflection(j.lattice, j.root).matrix
    _expect(("j(h)", j.apply((1, 0)), (9, -20)),
            ("j(delta)", j.apply((0, 1)), (4, -9)),
            ("matrix of j", j.matrix, tuple(tuple(-x for x in row) for row in reflected)))
    return "j(h) = 9h - 20delta and j(delta) = 4h - 9delta on NS_HILB(10)"


def check_fujiki_pipeline(n_max: int) -> str:
    top = epwfamily.epw_top_intersection()
    bb = epwfamily.fujiki_degree_to_bb
    _expect(("top intersection", top, 12),
            ("Beauville square", bb(top, epwfamily.FUJIKI_HILBERT_SQUARE), 2),
            ("Fujiki inversions of 0 and 48 with c = 3", (bb(0, 3), bb(48, 3)), (0, 4)))
    return "gamma^4 = 2*6 = 12 and 12 = 3*(gamma,gamma)^2 gives (gamma,gamma) = 2"


def check_family_identities(n_max: int) -> str:
    top = 5 * n_max
    for n in range(1, top + 1):
        rec = epwfamily.family(n)
        pairing = rec.gram_pi[0][1]  # computed from NS3(n) by family(n)
        if pairing != 4 * n + 4:
            _fail(f"n={n}: (gamma, delta2) = {pairing} != {4 * n + 4}")
        if rec.pell != (rec.g - 1, 2 * n + 2, 1):
            _fail(f"n={n}: Pell witness {rec.pell} != ({2 * n + 2}, 1)")
    return f"(gamma,delta2), disc Pi, (h2,h2), g(n) agree both ways for n <= {top}"


def check_h2_basis(n_max: int) -> str:
    for n in range(1, n_max + 1):
        pi = catalog.epw_picard_lattice(n)
        h2 = (1, 2 * n + 2)
        in_h2_basis = lattices.induced_gram(pi, [h2, (0, 1)])
        if in_h2_basis.gram != ((_degree(n), 0), (0, -2)):
            _fail(f"n={n}: Gram in (h2, delta2) basis is {in_h2_basis.gram}")
        if not lattices.is_primitive(pi, h2):
            _fail(f"n={n}: h2 not primitive")
    return f"Gram of Pi in the (h2, delta2) basis is diag(d(n), -2) for n <= {n_max}"


def check_involution_soundness(n_max: int) -> str:
    for n in range(1, n_max + 1):
        j = epwfamily.epw_involution(_degree(n))
        if j.root != (1, -(2 * n + 2)):
            _fail(f"n={n}: gamma = {j.root}, not h - (2n+2) delta")
        involution_law(j)
    return f"J^2 = I, J gamma = gamma, J = -1 on gamma-perp for n <= {n_max}"


def check_necessary_condition(n_max: int) -> str:
    top = max(1, n_max // 2)
    for n in range(1, top + 1):
        d = _degree(n)
        witness = epwfamily.necessary_condition(d)
        if witness is None:
            _fail(f"n={n}: necessary condition unexpectedly fails at d={d}")
        if (witness.y, witness.x) != (2 * n + 2, 1):
            _fail(f"n={n}: minimal witness {witness} != ({2 * n + 2}, 1)")
    _expect(("d=12 witness", epwfamily.necessary_condition(12), None),
            ("d=10 witness", epwfamily.necessary_condition(10), (5, 2, 1)))
    return f"witness (2n+2, 1) for n <= {top}; d=12 rejected; d=10 gives (2,1)"


def check_pell_d5(n_max: int) -> str:
    cf5 = pell.cf_expansion(5)
    _expect(("fundamental for D=5", pell.fundamental_negative(5), (5, 2, 1)),
            ("first 3 for D=5", pell.enumerate_negative(5, 3), [(5, 2, 1), (38, 17), (682, 305)]),
            ("D=34 solvable", pell.is_solvable_negative(34), False),
            ("(a0, period) of sqrt 5", (cf5.a0, cf5.period), (2, (4,))))
    return "D=5: minimal (2,1), then (38,17), (682,305); D=34 unsolvable"


def check_pell_oracle(n_max: int) -> str:
    top = 20 * n_max
    brute = min_solution_x_brute(top)
    solvable = 0
    for d in range(2, top + 1):
        if isqrt(d) ** 2 != d:
            solvable += oracle_law(d, brute.get(d))
    return (f"continued-fraction decision matches brute force (x <= {BRUTE_X_MAX}) for D <= {top}"
            f"; minimal x compared for {len(brute)} of {solvable} solvable D")


def check_pell_minimality(n_max: int) -> str:
    top = 5 * n_max
    solvable = 0
    for d in range(2, top + 1):
        if isqrt(d) ** 2 != d and minimality_law(d):
            enumeration_law(d, 4)
            solvable += 1
    return (f"fundamental = full-period reference minimum (no x bound) for {solvable} solvable D"
            f", monotone enumeration, D <= {top}")


def check_prime_criterion(n_max: int) -> str:
    top = 100 * n_max
    sieve = bytearray(2) + b"\1" * (top - 2)  # Eratosthenes, independent of is_prime
    for q in range(2, isqrt(top - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, top, q)))
    for p in range(2, top):
        if pell.is_prime(p) != sieve[p]:
            _fail(f"p={p}: is_prime says {not sieve[p]}, the sieve {bool(sieve[p])}")
        if sieve[p] and pell.prime_criterion(p) != pell.is_solvable_negative(p):
            _fail(f"p={p}: residue criterion disagrees with solver")
    return f"p = 2 or p = 1 (mod 4) matches the solver for the {sum(sieve)} primes p < {top}"


def check_catalog_reports(n_max: int) -> str:
    lam0, k3, i22 = map(catalog.report, ("LAMBDA0", "K3", "I22_2"))
    _expect(("LAMBDA0 (rank, signature, even)", (lam0.rank, lam0.signature, lam0.even),
             (22, (20, 2, 0), True)),
            ("K3 report", k3, (22, -1, (3, 19, 0), True)),
            ("I22_2 (signature, even)", (i22.signature, i22.even), ((22, 2, 0), False)),
            ("LAMBDA2 gram", catalog.build("LAMBDA2").gram, ((2, 0), (0, 2))),
            ("R(1) gram", catalog.build("R(1)").gram, ((10, 11), (11, 10))),
            ("PI(1) gram", catalog.build("PI(1)").gram, ((2, 8), (8, -2))))
    return "LAMBDA0 (20,2) even; K3 (3,19) disc -1; I22_2 odd (22,2)"


def check_disc_obstruction(n_max: int) -> str:
    top = 10 * n_max
    for n in range(1, top + 1):
        res = epwfamily.disc_obstruction(n)
        if not res.contradiction_r0:
            _fail(f"n={n}: -20 wrongly divides as a square multiple")
        if not epwfamily.k3_embedding_sufficient(catalog.two_polarization_lattice(n)):
            _fail(f"n={n}: R(n) fails the K3 embedding criterion")
    grid_top = max(1, n_max // 5)
    for n in range(1, grid_top + 1):
        for fh_bar in range(1, n + 10):
            res = epwfamily.reflection_inequality(n, fh_bar)
            reflected = Lattice(((10, fh_bar), (fh_bar, 10)))
            if res.disc_r_prime != lattices.discriminant(reflected):
                _fail(f"n={n}, fh_bar={fh_bar}: disc R' = {res.disc_r_prime}")
            if not res.strict:
                _fail(f"n={n}, fh_bar={fh_bar}: inequality not strict")
    # |disc R(n)| = n(n+20) > 20, so the family never reaches the square test
    sub = lattices.sublattice_discriminant_test
    _expect(("disc -80 in disc -20 (index 2)", sub(-80, -20), True),
            ("disc -60 in disc -20", sub(-60, -20), False))
    return f"disc R(n) = -n(n+20), no disc -20 sublattice, n <= {top}; strict inequality grid n <= {grid_top}"


def check_reflection_properties(n_max: int) -> str:
    rng = _Draws(_SEED)
    seeds = _reflection_seeds()
    cases = 10 * n_max
    checked = set()  # a repeated draw is checked once
    for _ in range(cases):
        base, e0 = rng.choice(seeds)
        ops = _random_unimodular_ops(rng, base.rank, rng.randint(0, 6))
        gram, root = _apply_ops(base.gram, ops, e0)
        key = (gram, root)
        if key not in checked:
            checked.add(key)
            involution_law(lattices.reflection(Lattice(gram), root))
    return f"involutivity/isometry/fixed-space checks on {cases} randomized reflections"


def check_index_law(n_max: int) -> str:
    rng = _Draws(_SEED + 1)
    cases = 10 * n_max
    accepted = {}  # (Gram, B) -> index_law's verdict; a repeated draw is checked once
    done = 0
    while done < cases:
        n = rng.randint(1, 4)
        lat = _random_symmetric(rng, n)
        flat = rng.ints(-4, 4, n * n)
        key = (lat.gram, tuple(flat))
        if key not in accepted:
            accepted[key] = index_law(lat, [flat[i:i + n] for i in range(0, n * n, n)])
        done += accepted[key]
    return f"disc(B^T G B) = det(B)^2 disc(G) on {cases} randomized pairs"


def check_saturation(n_max: int) -> str:
    rng = _Draws(_SEED + 2)
    cases = 10 * n_max
    done = 0
    while done < cases:
        n = rng.randint(2, 5)
        lat = _random_symmetric(rng, n)
        k = rng.randint(1, n - 1)
        vecs = [_random_vec(rng, n, 4) for _ in range(k)]
        if intmat.rank(vecs) != k:
            continue
        factors = rng.ints(1, 3, k)  # k draws of choice((1, 2, 3))
        saturation_law(lat, [tuple(c * x for x in v) for c, v in zip(factors, vecs)])
        complement_law(lat, _random_vec(rng, n, 4))
        done += 1
    # the motivating example: the diagonal class is twice a lattice vector
    ns = catalog.ns_hilbert_square(10)
    _expect(("saturation of {2*delta}", lattices.saturation(ns, [(0, 2)]), [(0, 1)]))
    return (f"saturations and complements have unit Hermite pivots, saturations keep"
            f" the input's Q-span, on {cases} randomized cases")


def check_bilinear_properties(n_max: int) -> str:
    rng = _Draws(_SEED + 3)
    cases = 10 * n_max
    for _ in range(cases):
        n = rng.randint(1, 5)
        lat = _random_symmetric(rng, n)
        x, y, z = (_random_vec(rng, n) for _ in range(3))
        bilinear_law(lat, x, y, z, *rng.ints(-5, 5, 2))
    for _ in range(max(1, n_max // 2)):
        n = rng.randint(1, 4)
        lat = _random_symmetric(rng, n)
        congruence_law(lat, _random_unimodular_ops(rng, n, rng.randint(1, 6)))
        direct_sum_law(lat, _random_symmetric(rng, rng.randint(1, 3)))
    # a fixed degenerate form, U + <0>, as few random Grams are degenerate
    u0 = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    _expect(("signature of U + <0>", lattices.signature(u0), (1, 1, 1)))
    return f"symmetry, bilinearity, basis invariance on {cases} randomized cases"


def check_closed_form_erratum(n_max: int) -> str:
    y1, x1 = pell.d5_closed_form_misprint(1)
    _expect(("misprinted closed form at n=1", (y1, x1), (49, 22)),
            ("misprint residual", y1 * y1 - 5 * x1 * x1, -19),
            ("true second solution", pell.enumerate_negative(5, 2)[1], (38, 17)))
    return "printed D=5 closed form gives (49,22) with residual -19; enumeration gives (38,17)"


# the check_<name> functions above, in file order: a new group is one def
CHECKS: list[tuple[str, Callable[[int], str]]] = [
    (name.removeprefix("check_").replace("_", "-"), fn)
    for name, fn in list(globals().items()) if name.startswith("check_")]


def run_all(n_max: int = 100) -> list[CheckResult]:
    """Run every check group at the given scale; raises only for n_max < 1."""
    if n_max < 1:
        raise ValueError("n-max must be >= 1")
    results = []
    for name, fn in CHECKS:
        try:
            results.append(CheckResult(name, True, fn(n_max)))
        except InvariantError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # a crash is a failure with its message
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
