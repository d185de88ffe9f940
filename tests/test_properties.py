"""Property-based tests for the exact-arithmetic invariants.

Strategies build random symmetric Gram matrices directly, and transport
known (+-2)-vectors through random unimodular basis changes so that
reflection inputs are valid by construction. The laws that ``epwlat
verify`` also checks are the ``verify.*_law`` functions: here they get
hypothesis draws instead of the verifier's seeded ones. The other tests
compare primitives with independent references (rational elimination,
double sums)."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from epwlat import catalog, intmat, lattices, pell, verify
from epwlat.lattices import Lattice
from epwlat.verify import _apply_ops_to_basis, _apply_ops_to_coords

entries = st.integers(min_value=-9, max_value=9)
small = st.integers(min_value=-6, max_value=6)


@st.composite
def symmetric_lattices(draw, min_rank=1, max_rank=4):
    n = draw(st.integers(min_value=min_rank, max_value=max_rank))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entries)
    return Lattice(tuple(tuple(row) for row in g))


@st.composite
def vectors_for(draw, lattice):
    return tuple(draw(small) for _ in range(lattice.rank))


@st.composite
def lattice_with_vectors(draw, count):
    lat = draw(symmetric_lattices())
    vecs = [draw(vectors_for(lat)) for _ in range(count)]
    return lat, vecs


@st.composite
def unimodular_ops(draw, n):
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["add", "swap", "neg"]))
        if kind != "neg" and n >= 2:
            pair = draw(st.permutations(range(n)))
            i, j = pair[0], pair[1]
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            ops.append((kind, i, j, c))
        else:
            ops.append(("neg", draw(st.integers(0, n - 1)), 0, 0))
    return ops


@given(lattice_with_vectors(2))
def test_product_symmetry(data):
    lat, (x, y) = data
    assert lattices.product(lat, x, y) == lattices.product(lat, y, x)


@given(lattice_with_vectors(3), small, small)
def test_product_bilinearity(data, a, b):
    lat, (x, y, z) = data
    verify.bilinear_law(lat, x, y, z, a, b)


_SEEDS = [
    (catalog.e8(), (1, 0, 0, 0, 0, 0, 0, 0)),
    (lattices.rescale(catalog.e8(), -1), (0, 0, 1, 0, 0, 0, 0, 0)),
    (catalog.ns_hilbert_square(10), (0, 1)),
    (catalog.ns_hilbert_square(10), (1, -2)),
    (catalog.ns_hilbert_square(4), (1, -1)),
]


@st.composite
def reflection_inputs(draw):
    base, root = draw(st.sampled_from(_SEEDS))
    ops = draw(unimodular_ops(base.rank))
    return Lattice(_apply_ops_to_basis(base.gram, ops)), _apply_ops_to_coords(root, ops)


@settings(max_examples=200)
@given(reflection_inputs())
def test_reflection_properties(data):
    verify.reflection_law(*data)


@settings(max_examples=200)
@given(reflection_inputs())
def test_isometry_from_its_root(data):
    # the Isometry docstring's identity, checked without trusting it
    lat, e = data
    signs = (1, -1) if lattices.product(lat, e, e) == 2 else (1,)
    for sign in signs:
        iso = lattices.Isometry(lat, e, sign)
        assert lattices.is_isometry(lat, iso.matrix)
        assert iso.is_involution()
        assert iso.apply(e) == tuple(-sign * x for x in e)
        assert intmat.det(iso.matrix) == (-1 if sign == 1 else (-1) ** (lat.rank + 1))


@given(symmetric_lattices(), st.data())
def test_finite_index_discriminant_law(lat, data):
    n = lat.rank
    b = data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ))
    verify.index_law(lat, b)


@given(symmetric_lattices(min_rank=2, max_rank=5), st.data())
def test_saturation_idempotent(lat, data):
    n = lat.rank
    k = data.draw(st.integers(1, n - 1))
    vecs = [tuple(data.draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(k)]
    if intmat.rank(vecs) != k:
        return
    factor = data.draw(st.sampled_from([1, 2, 3]))
    sat = verify.saturation_law(lat, [tuple(factor * x for x in v) for v in vecs])
    # the scaled input spans a finite-index sublattice of the saturation
    assert intmat.rank(sat) == k


@given(symmetric_lattices(min_rank=1, max_rank=5), st.data())
def test_orthogonal_complement_saturated(lat, data):
    v = tuple(data.draw(st.integers(-5, 5)) for _ in range(lat.rank))
    for w in verify.complement_law(lat, v):
        assert lattices.product(lat, w, v) == 0


@given(symmetric_lattices(), st.data())
def test_signature_basis_invariance(lat, data):
    verify.congruence_law(lat, data.draw(unimodular_ops(lat.rank)))


@given(st.lists(st.sampled_from([-3, -1, 0, 0, 1, 2]), min_size=1, max_size=5),
       st.data())
def test_signature_of_conjugated_diagonal(diag, data):
    # known inertia by construction, including degenerate directions,
    # transported through a unimodular congruence
    n = len(diag)
    gram = tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
    ops = data.draw(unimodular_ops(n))
    moved = Lattice(_apply_ops_to_basis(gram, ops))
    expected = (sum(1 for x in diag if x > 0), sum(1 for x in diag if x < 0),
                sum(1 for x in diag if x == 0))
    assert tuple(lattices.signature(moved)) == expected


def det_by_fraction_elimination(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def rank_by_fraction_elimination(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@st.composite
def integer_matrices(draw, max_rows=5, max_cols=6):
    # small entries, with whole rows and columns zeroed out now and then
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    m = [[draw(st.sampled_from([0, 0, -3, -2, -1, 1, 2, 3, 5])) for _ in range(cols)]
         for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        m[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in m:
            row[j] = 0
    return m


def assert_saturated_kernel(m, width, basis):
    """basis solves m @ x = 0, has full length, and spans a saturated lattice.

    A k x width basis spans a saturated sublattice iff the gcd of its
    k x k minors is 1.
    """
    assert all(intmat.mat_vec(m, x) == [0] * len(m) for x in basis)
    assert len(basis) == width - rank_by_fraction_elimination(m)
    if basis:
        minors = [intmat.det([[x[j] for j in pick] for x in basis])
                  for pick in combinations(range(width), len(basis))]
        assert gcd(*minors) == 1


@given(integer_matrices())
def test_rank_matches_fraction_reference(m):
    assert intmat.rank(m) == rank_by_fraction_elimination(m)


@given(integer_matrices())
def test_kernel_is_a_saturated_basis(m):
    width = len(m[0])
    assert_saturated_kernel(m, width, intmat.kernel(m, width))


@given(integer_matrices())
def test_row_hnf_is_reduced_and_canonical(m):
    h = intmat.row_hnf(m)
    assert len(h) == rank_by_fraction_elimination(m)
    cols = [next(j for j, x in enumerate(row) if x) for row in h]
    assert cols == sorted(set(cols))
    for k, c in enumerate(cols):
        assert h[k][c] > 0
        assert all(0 <= h[i][c] < h[k][c] for i in range(k))
    assert intmat.row_hnf(h) == h


@pytest.mark.parametrize("seed", range(4))
def test_kernel_of_k3_functional_and_its_kernel(seed):
    # (., v) on K3 is the functional w = G v; its kernel has rank 21 and
    # the kernel of that is the primitive vector on the line of w
    rng = random.Random(seed)
    k3 = catalog.build("K3")
    v = [rng.randint(-5, 5) for _ in range(k3.rank)]
    w = intmat.mat_vec(k3.gram, v)
    assert any(w)
    ker = intmat.kernel([w], k3.rank)
    assert intmat.rank(ker) == rank_by_fraction_elimination(ker) == 21
    assert_saturated_kernel([w], k3.rank, ker)
    line = intmat.kernel(ker, k3.rank)
    assert_saturated_kernel(ker, k3.rank, line)
    g = gcd(*w)
    assert line in ([tuple(x // g for x in w)], [tuple(-x // g for x in w)])


@given(st.integers(1, 5), st.data())
def test_determinant_against_rational_elimination(n, data):
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    assert intmat.det(rows) == det_by_fraction_elimination(rows)


@given(symmetric_lattices(max_rank=3), symmetric_lattices(max_rank=3))
def test_direct_sum_additivity(a, b):
    assert verify.direct_sum_law(a, b).rank == a.rank + b.rank


def inertia_by_fraction_congruence(gram):
    """Reference inertia: rational congruence diagonalization (Lagrange)."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((i for i in range(k + 1, n) if a[k][i] != 0), None)
                if off is None:
                    zero += 1
                    continue
                for j in range(n):
                    a[k][j] += a[off][j]
                for i in range(n):
                    a[i][k] += a[i][off]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f == 0:
                continue
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
            for j in range(k, n):
                a[j][i] -= f * a[j][k]
    return pos, neg, zero


def seeded_unimodular_ops(seed, n):
    """Between n and 2n elementary unimodular moves from a fixed seed."""
    rng = random.Random(seed)
    ops = []
    for _ in range(rng.randint(n, 2 * n)):
        kind = rng.choice(["add", "add", "swap", "neg"])
        i, j = rng.sample(range(n), 2)
        ops.append((kind, i, j, rng.choice([-2, -1, 1, 2])))
    return ops


_BIG = ["K3", "LAMBDA0", "I22_2"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", _BIG)
def test_inertia_matches_fraction_reference_at_rank_22_and_24(name, seed):
    gram = catalog.build(name).gram
    if seed:
        gram = _apply_ops_to_basis(gram, seeded_unimodular_ops(seed, len(gram)))
    expected = inertia_by_fraction_congruence(gram)
    assert intmat.inertia(gram)[:3] == expected
    assert expected == tuple(catalog.report(name).signature)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", _BIG)
def test_inertia_det_is_det_at_rank_22_and_24(name, seed):
    gram = catalog.build(name).gram
    if seed:
        gram = _apply_ops_to_basis(gram, seeded_unimodular_ops(seed, len(gram)))
    assert intmat.inertia(gram)[3] == intmat.det(gram)


_U = catalog.hyperbolic_plane()
_ZERO = Lattice(((0,),))
_DEGENERATE = [
    _U,
    lattices.direct_sum(_U, _U),
    lattices.direct_sum(_U, _ZERO),
    lattices.direct_sum(_ZERO, _U),
    lattices.direct_sum(lattices.direct_sum(_ZERO, _U), _ZERO),
    lattices.direct_sum(lattices.rescale(_U, 3), lattices.rescale(_U, -2)),
    lattices.direct_sum(_U, catalog.rank_one(-2)),
    Lattice(((0, 0), (0, 0))),
    Lattice(((0, 1, 1), (1, 0, 1), (1, 1, 0))),
    Lattice(((0, 2, 0), (2, 0, 0), (0, 0, 0))),
]


@pytest.mark.parametrize("lat", _DEGENERATE, ids=lambda lat: str(lat.gram))
def test_inertia_of_zero_diagonal_and_degenerate_grams(lat):
    assert intmat.inertia(lat.gram)[:3] == inertia_by_fraction_congruence(lat.gram)


@pytest.mark.parametrize("lat", _DEGENERATE, ids=lambda lat: str(lat.gram))
def test_inertia_det_of_zero_diagonal_and_degenerate_grams(lat):
    assert intmat.inertia(lat.gram)[3] == intmat.det(lat.gram)


@st.composite
def zero_diagonal_grams(draw, max_rank=6):
    # hollow and degenerate forms: every pivot starts at zero, some rows vanish
    n = draw(st.integers(min_value=1, max_value=max_rank))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.sampled_from([0, 0, 0, -2, -1, 1, 3]))
    return g


@settings(max_examples=300)
@given(zero_diagonal_grams())
def test_inertia_matches_fraction_reference_on_hollow_grams(gram):
    assert intmat.inertia(gram)[:3] == inertia_by_fraction_congruence(gram)


@settings(max_examples=300)
@given(zero_diagonal_grams())
def test_inertia_det_is_det_on_hollow_grams(gram):
    assert intmat.inertia(gram)[3] == intmat.det(gram)


@given(symmetric_lattices(max_rank=6))
def test_inertia_matches_fraction_reference(lat):
    assert intmat.inertia(lat.gram)[:3] == inertia_by_fraction_congruence(lat.gram)


@given(symmetric_lattices(max_rank=6))
def test_inertia_det_is_det(lat):
    assert intmat.inertia(lat.gram)[3] == intmat.det(lat.gram)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["I22_2", "K3"])
def test_inertia_entry_growth_is_bounded(name, seed):
    # Every block entry is +- a minor of the Gram after the pivot repairs,
    # which each add one basis vector to another, so its entries are at
    # most 4M and Hadamard gives |entry| <= (sqrt(n) * 4M)^n. Without the
    # exact division the entries would square at every step. On these
    # unimodular inputs (max entry M <= 50) every entry fits in 64 bits.
    gram = catalog.build(name).gram
    n = len(gram)
    if seed:
        gram = _apply_ops_to_basis(gram, seeded_unimodular_ops(seed, n))
    m = max(abs(x) for row in gram for x in row)
    assert m <= 50
    largest = max(abs(x) for _, block in intmat.congruence_pivots(gram)
                  for row in block for x in row)
    assert largest <= (isqrt(n) + 1) ** n * (4 * m) ** n
    assert largest.bit_length() <= 64


def product_by_double_sum(gram, x, y):
    n = len(gram)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))


@given(lattice_with_vectors(2))
def test_product_is_the_double_sum(data):
    lat, (x, y) = data
    assert lattices.product(lat, x, y) == product_by_double_sum(lat.gram, x, y)


@given(symmetric_lattices(), st.data())
def test_induced_gram_is_the_double_sum(lat, data):
    n = lat.rank
    k = data.draw(st.integers(1, n))
    vecs = [tuple(data.draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(k)]
    if intmat.rank(vecs) != k:
        return
    sub = lattices.induced_gram(lat, vecs)
    assert sub.gram == tuple(
        tuple(product_by_double_sum(lat.gram, a, b) for b in vecs) for a in vecs
    )


def gram_by_mat_mul(gram, basis):
    """B^T G B, with the basis vectors as the columns of B."""
    return intmat.mat_mul(intmat.mat_mul(basis, gram), intmat.transpose(basis))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["K3", "LAMBDA0"])
def test_induced_gram_on_sparse_complement_bases(name, seed):
    # complement bases are mostly zeros: the support-based product's case
    lat = catalog.build(name)
    rng = random.Random(seed)
    v = [0] * lat.rank
    for i in rng.sample(range(lat.rank), rng.randint(1, 3)):
        v[i] = rng.choice([-3, -1, 1, 2])
    comp = lattices.orthogonal_complement(lat, v)
    assert lattices.induced_gram(lat, comp).gram == tuple(
        map(tuple, gram_by_mat_mul(lat.gram, comp)))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["K3", "LAMBDA0"])
def test_induced_gram_on_dense_bases(name, seed):
    lat = catalog.build(name)
    rng = random.Random(seed)
    k = rng.randint(1, 8)
    basis = [[rng.choice([-5, -3, -2, -1, 1, 2, 4]) for _ in range(lat.rank)]
             for _ in range(k)]
    assert intmat.rank(basis) == k
    assert lattices.induced_gram(lat, basis).gram == tuple(
        map(tuple, gram_by_mat_mul(lat.gram, basis)))


nonsquare_d = st.integers(min_value=2, max_value=400).filter(
    lambda d: isqrt(d) ** 2 != d
)


@given(nonsquare_d)
def test_cf_period_shape(d):
    cf = pell.cf_expansion(d)
    assert cf.period[-1] == 2 * cf.a0
    assert cf.period[:-1] == tuple(reversed(cf.period[:-1]))
    assert cf.a0 == isqrt(d)


@settings(max_examples=60)
@given(nonsquare_d, st.integers(min_value=1, max_value=5))
def test_enumeration_exact_and_monotone(d, k):
    if not pell.is_solvable_negative(d):
        return
    sols = verify.enumeration_law(d, k)
    assert len(sols) == k
    for s in sols:
        assert s.y * s.y - d * s.x * s.x == -1
