"""One-shot verifier: every identity this package exists to check.

Each check group recomputes a set of claims two independent ways (closed
formula vs. lattice arithmetic, continued fractions vs. brute force,
residue criterion vs. solver) and reports PASS/FAIL with the first
counterexample. ``run_all(n_max)`` scales the n-indexed ranges; the
default n_max = 100 reproduces the full acceptance scale:

    family identities        n <= 5 * n_max       (500)
    involution soundness     n <= n_max           (100)
    change of basis to h2    n <= n_max           (100)
    necessary condition      n <= n_max / 2       (50)
    disc obstruction         n <= 10 * n_max      (1000)
    reflection inequality    n <= n_max / 5       (20)
    Pell vs. brute force     D <= 20 * n_max      (2000), x <= 10^4
    Pell minimality          D <= 5 * n_max       (500)
    prime criterion          p < 100 * n_max      (10000)
    randomized properties    10 * n_max cases     (1000)
    signature, direct sums   max(1, n_max // 2) cases (50)
    saturation example       fixed: sat{2 delta} = {delta} in NS_HILB(10)

Randomized suites draw from a fixed-seed generator, so output is
deterministic across runs and platforms. The laws they and the Pell
groups check are ``*_law`` functions over explicit inputs, which the
property tests call too, with hypothesis draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import Callable

from . import catalog, epwfamily, intmat, lattices, pell
from .lattices import Lattice

BRUTE_X_MAX = 10**4
_SEED = 0x5EED


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


class CheckFailure(Exception):
    """Raised inside a check with the first counterexample."""


def _fail(msg: str):
    raise CheckFailure(msg)


# --- independent brute-force oracle for the negative Pell equation ---------

def min_solution_x_brute(top: int, x_max: int = BRUTE_X_MAX) -> dict[int, int]:
    """Every D in 2..top with a solution, mapped to its least x <= x_max with
    D*x^2 - 1 a perfect square: brute force by ``isqrt``, no continued fractions.

    A solution makes -1 a square mod D and mod x^2, so 4 does not divide D,
    x is odd, and no p = 3 (mod 4) divides D or x; one flag table skips the
    rest. Clearing the multiples of composite p = 3 (mod 4) too is harmless:
    each has a prime factor = 3 (mod 4).
    """
    n = max(top, x_max) + 1
    flag = bytearray(b"\1") * n
    for p in [4, *range(3, n, 4)]:
        flag[0::p] = bytes(len(range(0, n, p)))
    xs = [x for x in range(1, x_max + 1, 2) if flag[x]]
    table = {}
    for d in range(2, top + 1):
        if flag[d]:
            for x in xs:
                v = d * x * x - 1
                s = isqrt(v)
                if s * s == v:
                    table[d] = x
                    break
    return table


# --- randomized input generation (deterministic) ----------------------------

def _random_unimodular_ops(rng: random.Random, n: int, steps: int):
    ops = []
    for _ in range(steps):
        kind = rng.choice(("add", "swap", "neg"))
        if kind == "add" and n >= 2:
            i, j = rng.sample(range(n), 2)
            ops.append(("add", i, j, rng.choice((-2, -1, 1, 2))))
        elif kind == "swap" and n >= 2:
            i, j = rng.sample(range(n), 2)
            ops.append(("swap", i, j, 0))
        else:
            ops.append(("neg", rng.randrange(n), 0, 0))
    return ops


def _apply_ops_to_basis(gram, ops):
    """New Gram after replacing basis vector b_j by b_j + c*b_i (etc.)."""
    g = [list(row) for row in gram]
    n = len(g)
    for kind, i, j, c in ops:
        if kind == "add":
            # column op on the basis matrix: G <- E^T G E
            for r in range(n):
                g[r][j] += c * g[r][i]
            for r in range(n):
                g[j][r] += c * g[i][r]
        elif kind == "swap":
            for r in range(n):
                g[r][i], g[r][j] = g[r][j], g[r][i]
            g[i], g[j] = g[j], g[i]
        else:
            for r in range(n):
                g[r][i] = -g[r][i]
            g[i] = [-x for x in g[i]]
    return tuple(tuple(row) for row in g)


def _apply_ops_to_coords(coords, ops):
    """Coordinates of a fixed vector in the transformed basis."""
    v = list(coords)
    for kind, i, j, c in ops:
        if kind == "add":
            # b_j' = b_j + c*b_i  =>  v_i' = v_i - c*v_j
            v[i] -= c * v[j]
        elif kind == "swap":
            v[i], v[j] = v[j], v[i]
        else:
            v[i] = -v[i]
    return tuple(v)


# base lattices with a known vector of self-pairing +2 or -2
def _reflection_seeds() -> list[tuple[Lattice, tuple[int, ...]]]:
    seeds: list[tuple[Lattice, tuple[int, ...]]] = []
    e8 = catalog.e8()
    seeds.append((e8, e8.basis_vector(0)))
    seeds.append((lattices.rescale(e8, -1), e8.basis_vector(3)))
    for d in (2, 4, 10, 18, 34, 52):
        ns = catalog.ns_hilbert_square(d)
        seeds.append((ns, (0, 1)))  # delta, square -2
    for m in (1, 2, 3, 4):
        ns = catalog.ns_hilbert_square(2 * m * m + 2)
        seeds.append((ns, (1, -m)))  # h - m*delta, square +2
    u_a1 = lattices.direct_sum(catalog.hyperbolic_plane(), catalog.rank_one(-2))
    seeds.append((u_a1, (0, 0, 1)))
    return seeds


def _random_symmetric(rng: random.Random, n: int, bound: int = 9) -> Lattice:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-bound, bound)
    return Lattice(tuple(tuple(row) for row in g))


def _random_vec(rng: random.Random, n: int, bound: int = 6) -> tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(n))


# --- laws: each draws nothing and raises CheckFailure with the counterexample

def reflection_law(lat: Lattice, e) -> None:
    """The reflection in a (+-2)-vector e is an involutive isometry that
    negates e and fixes every vector orthogonal to e."""
    ee = lattices.product(lat, e, e)
    if ee not in (2, -2):
        _fail(f"{e} has square {ee} in {lat.gram}")
    refl = lattices.reflection(lat, e)
    if not refl.is_involution():
        _fail(f"reflection in {e} squared is not the identity on {lat.gram}")
    if not lattices.is_isometry(lat, refl.matrix):
        _fail(f"reflection in {e} is not an isometry of {lat.gram}")
    if refl.apply(e) != tuple(-x for x in e):
        _fail(f"reflection does not negate its root {e} in {lat.gram}")
    for w in lattices.orthogonal_complement(lat, e):
        if refl.apply(w) != w:
            _fail(f"reflection in {e} moves the orthogonal vector {w} in {lat.gram}")


def index_law(lat: Lattice, b) -> bool:
    """disc(B^T G B) = det(B)^2 disc(G) for the columns of a square matrix B.

    Returns False, having checked nothing, when det(B) = 0: the columns
    then span no sublattice of full rank.
    """
    det_b = intmat.det(b)
    if det_b == 0:
        return False
    cols = [tuple(row[j] for row in b) for j in range(len(b))]
    sub = lattices.induced_gram(lat, cols)
    if lattices.discriminant(sub) != det_b**2 * lattices.discriminant(lat):
        _fail(f"index law fails: gram={lat.gram}, B={b}")
    return True


def saturation_law(lat: Lattice, vecs) -> list[tuple[int, ...]]:
    """Saturating independent vectors is idempotent; returns the saturation."""
    sat = lattices.saturation(lat, vecs)
    if intmat.row_hnf(sat) != intmat.row_hnf(lattices.saturation(lat, sat)):
        _fail(f"saturation not idempotent for {vecs}")
    return sat


def complement_law(lat: Lattice, v) -> list[tuple[int, ...]]:
    """The orthogonal complement of v is saturated; returns its basis.

    The zero vector has no complement and checks nothing.
    """
    if not any(v):
        return []
    oc = lattices.orthogonal_complement(lat, v)
    if oc and intmat.row_hnf(oc) != intmat.row_hnf(lattices.saturation(lat, oc)):
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
    """The signature is invariant under the unimodular basis change ``ops``."""
    moved = Lattice(_apply_ops_to_basis(lat.gram, ops))
    if lattices.signature(lat) != lattices.signature(moved):
        _fail(f"signature changed under basis change: {lat.gram}")


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


def enumeration_law(d: int, k: int) -> list[pell.PellSolution]:
    """The first k solutions for a solvable D increase strictly, and each
    squares to a solution of the +1 equation; returns them."""
    sols = pell.enumerate_negative(d, k)
    for a, b in zip(sols, sols[1:]):
        if not (a.x < b.x and a.y < b.y):
            _fail(f"D={d}: enumeration not strictly increasing")
    for s in sols:
        p, q = s.y * s.y + d * s.x * s.x, 2 * s.x * s.y
        if p * p - d * q * q != 1:
            _fail(f"D={d}: norm algebra broken for {s}")
    return sols


def oracle_law(d: int, brute_x: int | None) -> None:
    """The solver agrees with the brute-force least x <= BRUTE_X_MAX for a
    non-square D (``brute_x`` is None when the search found none)."""
    solver = pell.is_solvable_negative(d)
    if brute_x is not None and not solver:
        _fail(f"D={d}: brute force found x={brute_x}, solver says unsolvable")
    if solver:
        fund = pell.fundamental_negative(d)
        if fund.x <= BRUTE_X_MAX and brute_x != fund.x:
            _fail(f"D={d}: solver minimal x={fund.x}, brute force x={brute_x}")


# --- check groups -----------------------------------------------------------

def check_involution_images(n_max: int) -> str:
    rep = epwfamily.epw_involution(10, 2)
    if rep.image_of_h != (9, -20):
        _fail(f"j(h) = {rep.image_of_h}, expected (9, -20)")
    if rep.image_of_delta != (4, -9):
        _fail(f"j(delta) = {rep.image_of_delta}, expected (4, -9)")
    ns10 = catalog.ns_hilbert_square(10)
    neg_refl = lattices.reflection(ns10, (1, -2))
    negated = tuple(tuple(-x for x in row) for row in neg_refl.matrix)
    if negated != rep.matrix.matrix:
        _fail("negated reflection does not equal -reflection")
    return "j(h) = 9h - 20delta and j(delta) = 4h - 9delta on NS_HILB(10)"


def check_fujiki_pipeline(n_max: int) -> str:
    top = epwfamily.epw_top_intersection()
    if top != 12:
        _fail(f"top intersection = {top}, expected 12")
    s = epwfamily.fujiki_degree_to_bb(top, epwfamily.FUJIKI_HILBERT_SQUARE)
    if s != 2:
        _fail(f"Beauville square = {s}, expected 2")
    if epwfamily.fujiki_degree_to_bb(0, 3) != 0 or epwfamily.fujiki_degree_to_bb(48, 3) != 4:
        _fail("auxiliary Fujiki inversions wrong")
    return "gamma^4 = 2*6 = 12 and 12 = 3*(gamma,gamma)^2 gives (gamma,gamma) = 2"


def check_family_identities(n_max: int) -> str:
    top = 5 * n_max
    for n in range(1, top + 1):
        ambient = catalog.rank3_neron_severi(n)
        pairing = lattices.product(ambient, catalog.GAMMA_COORDS, catalog.DELTA2_COORDS)
        if pairing != 4 * n + 4:
            _fail(f"n={n}: (gamma, delta2) = {pairing} != {4 * n + 4}")
        rec = epwfamily.family(n)
        d_formula = 8 * n * n + 16 * n + 10
        if rec.disc_pi != -2 * d_formula:
            _fail(f"n={n}: disc Pi = {rec.disc_pi} != {-2 * d_formula}")
        if rec.d != d_formula:
            _fail(f"n={n}: (h2,h2) = {rec.d} != {d_formula}")
        if rec.g != (2 * n + 2) ** 2 + 2:
            _fail(f"n={n}: g = {rec.g} != (2n+2)^2 + 2")
        if rec.pell != pell.PellSolution(rec.g - 1, 2 * n + 2, 1):
            _fail(f"n={n}: Pell witness {rec.pell} != ({2 * n + 2}, 1)")
    return f"(gamma,delta2), disc Pi, (h2,h2), g(n) agree both ways for n <= {top}"


def check_h2_basis(n_max: int) -> str:
    for n in range(1, n_max + 1):
        rec = epwfamily.family(n)
        pi = Lattice(rec.gram_pi)
        in_h2_basis = lattices.induced_gram(pi, [rec.h2.coords, (0, 1)])
        expected = ((rec.d, 0), (0, -2))
        if in_h2_basis.gram != expected:
            _fail(f"n={n}: Gram in (h2, delta2) basis is {in_h2_basis.gram}")
        if not lattices.is_primitive(pi, rec.h2.coords):
            _fail(f"n={n}: h2 not primitive")
    return f"Gram of Pi in the (h2, delta2) basis is diag(d(n), -2) for n <= {n_max}"


def check_involution_soundness(n_max: int) -> str:
    for n in range(1, n_max + 1):
        rec = epwfamily.family(n)
        rep = epwfamily.epw_involution(rec.d, 2 * n + 2)
        j = rep.matrix
        if not j.is_involution():
            _fail(f"n={n}: J^2 != I")
        gamma = (1, -(2 * n + 2))
        if j.apply(gamma) != gamma:
            _fail(f"n={n}: J does not fix gamma")
        ns = catalog.ns_hilbert_square(rec.d)
        for w in lattices.orthogonal_complement(ns, gamma):
            if j.apply(w) != tuple(-x for x in w):
                _fail(f"n={n}: J does not negate gamma-perp")
    return f"J^2 = I, J gamma = gamma, J = -1 on gamma-perp for n <= {n_max}"


def check_necessary_condition(n_max: int) -> str:
    top = max(1, n_max // 2)
    for n in range(1, top + 1):
        d = 8 * n * n + 16 * n + 10
        res = epwfamily.necessary_condition(d)
        if not res.solvable:
            _fail(f"n={n}: necessary condition unexpectedly fails at d={d}")
        if (res.witness.y, res.witness.x) != (2 * n + 2, 1):
            _fail(f"n={n}: minimal witness {res.witness} != ({2 * n + 2}, 1)")
    res12 = epwfamily.necessary_condition(12)
    if res12.solvable:
        _fail("d=12 should be unsolvable (D=6 has even period)")
    res10 = epwfamily.necessary_condition(10)
    if not res10.solvable or (res10.witness.y, res10.witness.x) != (2, 1):
        _fail(f"d=10 witness {res10.witness} != (2, 1)")
    return f"witness (2n+2, 1) for n <= {top}; d=12 rejected; d=10 gives (2,1)"


def check_pell_d5(n_max: int) -> str:
    fund = pell.fundamental_negative(5)
    if (fund.y, fund.x) != (2, 1):
        _fail(f"fundamental for D=5 is {fund}, expected (2,1)")
    first3 = [(s.y, s.x) for s in pell.enumerate_negative(5, 3)]
    if first3 != [(2, 1), (38, 17), (682, 305)]:
        _fail(f"first three solutions for D=5: {first3}")
    if pell.is_solvable_negative(34):
        _fail("D=34 must be unsolvable")
    cf5 = pell.cf_expansion(5)
    if (cf5.a0, cf5.period) != (2, (4,)):
        _fail(f"cf(sqrt 5) = {cf5}")
    return "D=5: minimal (2,1), then (38,17), (682,305); D=34 unsolvable"


def check_pell_oracle(n_max: int) -> str:
    top = 20 * n_max
    brute = min_solution_x_brute(top)
    for d in range(2, top + 1):
        if isqrt(d) ** 2 != d:
            oracle_law(d, brute.get(d))
    return f"continued-fraction decision matches brute force (x <= {BRUTE_X_MAX}) for D <= {top}"


def check_pell_minimality(n_max: int) -> str:
    top = 5 * n_max
    brute = min_solution_x_brute(top)
    for d in range(2, top + 1):
        if isqrt(d) ** 2 == d:
            continue
        fund = pell.fundamental_negative(d)
        brute_x = brute.get(d)
        if fund is None:
            if brute_x is not None:
                _fail(f"D={d}: no fundamental but brute force found x={brute_x}")
            continue
        if fund.x <= BRUTE_X_MAX and brute_x != fund.x:
            _fail(f"D={d}: fundamental x={fund.x} but brute minimum {brute_x}")
        enumeration_law(d, 4)
    return f"fundamental = brute-force minimum, monotone enumeration, D <= {top}"


def check_prime_criterion(n_max: int) -> str:
    top = 100 * n_max
    for p in range(2, top):
        if not pell.is_prime(p):
            continue
        if pell.prime_criterion(p) != pell.is_solvable_negative(p):
            _fail(f"p={p}: residue criterion disagrees with solver")
    return f"p = 2 or p = 1 (mod 4) matches the solver for primes p < {top}"


def check_catalog_reports(n_max: int) -> str:
    lam0 = catalog.report("LAMBDA0")
    if (lam0.rank, lam0.signature, lam0.even) != (22, (20, 2, 0), True):
        _fail(f"LAMBDA0 report: {lam0}")
    k3 = catalog.report("K3")
    if (k3.rank, k3.signature, k3.even, k3.discriminant) != (22, (3, 19, 0), True, -1):
        _fail(f"K3 report: {k3}")
    i22 = catalog.report("I22_2")
    if (i22.signature, i22.even) != ((22, 2, 0), False):
        _fail(f"I22_2 report: {i22}")
    lam2 = catalog.build("LAMBDA2")
    if lam2.gram != ((2, 0), (0, 2)):
        _fail(f"LAMBDA2 gram: {lam2.gram}")
    r1 = catalog.build("R(1)")
    if r1.gram != ((10, 11), (11, 10)):
        _fail(f"R(1) gram: {r1.gram}")
    pi1 = catalog.build("PI(1)")
    if pi1.gram != ((2, 8), (8, -2)):
        _fail(f"PI(1) gram: {pi1.gram}")
    return "LAMBDA0 (20,2) even; K3 (3,19) disc -1; I22_2 odd (22,2)"


def check_disc_obstruction(n_max: int) -> str:
    top = 10 * n_max
    for n in range(1, top + 1):
        res = epwfamily.disc_obstruction(n)
        if res.disc_r != -n * (n + 20):
            _fail(f"n={n}: disc R = {res.disc_r}")
        if not res.contradiction_r0:
            _fail(f"n={n}: -20 wrongly divides as a square multiple")
        if not epwfamily.k3_embedding_sufficient(catalog.two_polarization_lattice(n)):
            _fail(f"n={n}: R(n) fails the K3 embedding criterion")
    grid_top = max(1, n_max // 5)
    for n in range(1, grid_top + 1):
        for fh_bar in range(1, n + 10):
            res = epwfamily.reflection_inequality(n, fh_bar)
            if res.disc_r_prime != 100 - fh_bar * fh_bar:
                _fail(f"n={n}, fh_bar={fh_bar}: disc R' = {res.disc_r_prime}")
            if not res.strict:
                _fail(f"n={n}, fh_bar={fh_bar}: inequality not strict")
    return f"disc R(n) = -n(n+20), no disc -20 sublattice, n <= {top}; strict inequality grid n <= {grid_top}"


def check_reflection_properties(n_max: int) -> str:
    rng = random.Random(_SEED)
    seeds = _reflection_seeds()
    cases = 10 * n_max
    for _ in range(cases):
        base, e0 = seeds[rng.randrange(len(seeds))]
        ops = _random_unimodular_ops(rng, base.rank, rng.randint(0, 6))
        lat = Lattice(_apply_ops_to_basis(base.gram, ops))
        reflection_law(lat, _apply_ops_to_coords(e0, ops))
    return f"involutivity/isometry/fixed-space checks on {cases} randomized reflections"


def check_index_law(n_max: int) -> str:
    rng = random.Random(_SEED + 1)
    cases = 10 * n_max
    done = 0
    while done < cases:
        n = rng.randint(1, 4)
        lat = _random_symmetric(rng, n)
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if index_law(lat, b):
            done += 1
    return f"disc(B^T G B) = det(B)^2 disc(G) on {cases} randomized pairs"


def check_saturation(n_max: int) -> str:
    rng = random.Random(_SEED + 2)
    cases = 10 * n_max
    done = 0
    while done < cases:
        n = rng.randint(2, 5)
        lat = _random_symmetric(rng, n)
        k = rng.randint(1, n - 1)
        vecs = [_random_vec(rng, n, 4) for _ in range(k)]
        if intmat.rank(vecs) != k:
            continue
        factors = [rng.choice((1, 2, 3)) for _ in vecs]
        saturation_law(lat, [tuple(c * x for x in v) for c, v in zip(factors, vecs)])
        complement_law(lat, _random_vec(rng, n, 4))
        done += 1
    # the motivating example: the diagonal class is twice a lattice vector
    ns = catalog.ns_hilbert_square(10)
    if lattices.saturation(ns, [(0, 2)]) != [(0, 1)]:
        _fail("saturation of {2*delta} is not {delta}")
    return f"saturation idempotent and complements saturated on {cases} randomized cases"


def check_bilinear_properties(n_max: int) -> str:
    rng = random.Random(_SEED + 3)
    cases = 10 * n_max
    for _ in range(cases):
        n = rng.randint(1, 5)
        lat = _random_symmetric(rng, n)
        x, y, z = (_random_vec(rng, n) for _ in range(3))
        bilinear_law(lat, x, y, z, rng.randint(-5, 5), rng.randint(-5, 5))
    for _ in range(max(1, n_max // 2)):
        n = rng.randint(1, 4)
        lat = _random_symmetric(rng, n)
        congruence_law(lat, _random_unimodular_ops(rng, n, rng.randint(1, 6)))
        direct_sum_law(lat, _random_symmetric(rng, rng.randint(1, 3)))
    return f"symmetry, bilinearity, basis invariance on {cases} randomized cases"


def check_closed_form_erratum(n_max: int) -> str:
    y1, x1 = pell.d5_closed_form_misprint(1)
    if (y1, x1) != (49, 22):
        _fail(f"misprinted closed form at n=1 gives ({y1}, {x1}), expected (49, 22)")
    residual = y1 * y1 - 5 * x1 * x1
    if residual != -19:
        _fail(f"misprint residual {residual}, expected -19")
    second = pell.enumerate_negative(5, 2)[1]
    if (second.y, second.x) != (38, 17):
        _fail(f"true second solution {second}, expected (38, 17)")
    return "printed D=5 closed form gives (49,22) with residual -19; enumeration gives (38,17)"


CHECKS: list[tuple[str, Callable[[int], str]]] = [
    ("involution-images", check_involution_images),
    ("fujiki-pipeline", check_fujiki_pipeline),
    ("family-identities", check_family_identities),
    ("h2-basis", check_h2_basis),
    ("involution-soundness", check_involution_soundness),
    ("necessary-condition", check_necessary_condition),
    ("pell-d5", check_pell_d5),
    ("pell-oracle", check_pell_oracle),
    ("pell-minimality", check_pell_minimality),
    ("prime-criterion", check_prime_criterion),
    ("catalog-reports", check_catalog_reports),
    ("disc-obstruction", check_disc_obstruction),
    ("reflection-properties", check_reflection_properties),
    ("index-law", check_index_law),
    ("saturation", check_saturation),
    ("bilinear-properties", check_bilinear_properties),
    ("closed-form-erratum", check_closed_form_erratum),
]


def run_all(n_max: int = 100) -> list[CheckResult]:
    """Run every check group at the given scale; raises only for n_max < 1."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn(n_max)
            results.append(CheckResult(name, True, detail))
        except CheckFailure as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # a crash is a failure with its message
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
