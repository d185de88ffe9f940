"""Property-based tests for the exact-arithmetic invariants.

Strategies build random symmetric Gram matrices directly, and transport
known (+-2)-vectors through random unimodular basis changes so that
reflection inputs are valid by construction. The laws that ``epwlat
verify`` also checks are the ``verify.*_law`` functions: here they get
hypothesis draws instead of the verifier's seeded ones. The other tests
compare primitives with independent references (rational elimination,
double sums)."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from epwlat import catalog, intmat, lattices, pell, verify
from epwlat.lattices import Lattice
from epwlat.verify import _apply_ops

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
    gram, moved = _apply_ops(base.gram, ops, root)
    return Lattice(gram), moved


@settings(max_examples=200)
@given(reflection_inputs())
def test_reflection_properties(data):
    lat, e = data
    verify.involution_law(lattices.reflection(lat, e))


@settings(max_examples=200)
@given(reflection_inputs())
def test_isometry_from_its_root(data):
    # the Isometry docstring's identity, checked without trusting it
    lat, e = data
    signs = (1, -1) if lattices.product(lat, e, e) == 2 else (1,)
    for sign in signs:
        iso = lattices.Isometry(lat, e, sign)
        verify.involution_law(iso)
        assert intmat.det(iso.matrix) == (-1 if sign == 1 else (-1) ** (lat.rank + 1))


@pytest.mark.parametrize("n", [1, 2])
def test_involution_law_on_k3_plus_minus_two(n):
    # the paper's involution on all of H^2(S^[2], Z) = K3 + <-2>, rank 23:
    # gamma = h - (2n + 2) delta with h = e_1 + (d/2) f_1, (h, h) = d(n)
    lat = lattices.direct_sum(catalog.k3_lattice(), catalog.rank_one(-2))
    d = 8 * n * n + 16 * n + 10
    gamma = (1, d // 2, *[0] * 20, -(2 * n + 2))
    assert lattices.product(lat, gamma, gamma) == 2
    verify.involution_law(lattices.negated_reflection(lat, gamma))


@given(symmetric_lattices(), st.integers(min_value=2, max_value=3), st.data())
def test_apply_ops_keeps_every_pairing(lat, count, data):
    # the Gram matrix and several vectors move in one pass, so every
    # product of two of them, a vector with itself included, is kept
    vecs = [data.draw(vectors_for(lat)) for _ in range(count)]
    gram, *moved = _apply_ops(lat.gram, data.draw(unimodular_ops(lat.rank)), *vecs)
    for i, j in combinations_with_replacement(range(count), 2):
        assert (lattices.product(Lattice(gram), moved[i], moved[j])
                == lattices.product(lat, vecs[i], vecs[j]))


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
    """Checks ``verify.saturation_law`` (unit Hermite pivots and the input's
    Q-span) on scaled inputs; idempotence is checked by
    ``test_saturation_is_idempotent_and_ignores_row_scales``."""
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
    moved = Lattice(*_apply_ops(gram, ops))
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


def assert_saturated(basis, width):
    """A k x width basis spans a saturated sublattice iff the gcd of its
    k x k minors is 1."""
    if basis:
        minors = [intmat.det([[x[j] for j in pick] for x in basis])
                  for pick in combinations(range(width), len(basis))]
        assert gcd(*minors) == 1


def assert_saturated_kernel(m, width, basis):
    """basis solves m @ x = 0, has full length, and spans a saturated lattice."""
    assert all(intmat.mat_vec(m, x) == [0] * len(m) for x in basis)
    assert len(basis) == width - rank_by_fraction_elimination(m)
    assert_saturated(basis, width)


@given(integer_matrices())
def test_rank_matches_fraction_reference(m):
    assert intmat.rank(m) == rank_by_fraction_elimination(m)


@given(integer_matrices())
def test_kernel_is_a_saturated_basis(m):
    width = len(m[0])
    basis = intmat.kernel(m, width)
    assert_saturated_kernel(m, width, basis)
    assert intmat.saturation(basis) == basis  # a saturated basis comes back as it is


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
    # echelon sorts the zero rows of m below its pivots, wherever they stand
    assert intmat.row_hnf([row for row in m if any(row)]) == h


@given(integer_matrices(), st.data())
def test_same_span(m, data):
    """``row_hnf`` is the canonical form of a span: unimodular row
    operations keep it, and different spans get different forms."""
    rows = [list(row) for row in m]
    for kind, i, j, c in data.draw(unimodular_ops(len(rows))):
        if kind == "add":
            rows[j] = [y + c * x for x, y in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    assert intmat.row_hnf(rows) == intmat.row_hnf(m)
    assert intmat.row_hnf([(1, 0), (0, 1)]) == intmat.row_hnf([(1, 1), (0, 1)])  # two bases of Z^2
    assert intmat.row_hnf([(2, 0)]) != intmat.row_hnf([(1, 0)])


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


def saturation_by_two_kernels(vectors, width):
    """The saturation as the kernel of the functionals vanishing on the span."""
    return intmat.kernel(intmat.kernel(vectors, width), width)


@st.composite
def independent_rows(draw, max_width=8):
    """k independent rows in Z^n, n <= max_width, some scaled by 2, 3 or 6.

    Row i is nonzero at its own pivot column and zero at the pivot columns
    of the rows before it, so the rows are independent; random row
    additions then hide that shape, and the scaling makes the span
    non-saturated.
    """
    n = draw(st.integers(1, max_width))
    k = draw(st.integers(1, n))
    pivots = draw(st.permutations(range(n)))[:k]
    rows = []
    for i, c in enumerate(pivots):
        row = [draw(st.integers(-3, 3)) for _ in range(n)]
        for earlier in pivots[:i]:
            row[earlier] = 0
        row[c] = draw(st.sampled_from([-2, -1, 1, 2, 3]))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            t = draw(st.sampled_from([-2, -1, 1, 2]))
            rows[i] = [x + t * y for x, y in zip(rows[i], rows[j])]
    factors = [draw(st.sampled_from([1, 1, 2, 3, 6])) for _ in range(k)]
    return n, [tuple(f * x for x in row) for f, row in zip(factors, rows)]


def assert_is_saturation(vectors, width, sat):
    """sat has len(vectors) rows, the Q-span of vectors, is saturated, and
    spans the same lattice as the two-kernel reference."""
    k = len(vectors)
    assert len(sat) == k
    assert rank_by_fraction_elimination([*vectors, *sat]) == k
    assert_saturated(sat, width)
    assert intmat.row_hnf(sat) == intmat.row_hnf(saturation_by_two_kernels(vectors, width))


@settings(max_examples=200)
@given(independent_rows())
def test_saturation_from_one_echelon(case):
    n, vecs = case
    assert_is_saturation(vecs, n, intmat.saturation(vecs))


@given(independent_rows(), st.data())
def test_saturation_is_idempotent_and_ignores_row_scales(case, data):
    # exact list equalities, not equal spans: see the intmat.saturation docstring
    n, vecs = case
    sat = intmat.saturation(vecs)
    assert intmat.saturation(sat) == sat
    scales = [data.draw(st.integers(1, 7)) for _ in vecs]
    assert intmat.saturation([tuple(c * x for x in v) for c, v in zip(scales, vecs)]) == sat


@given(independent_rows(), st.data())
def test_saturation_of_dependent_rows_raises(case, data):
    n, vecs = case
    coeffs = [data.draw(st.integers(-2, 2)) for _ in vecs]
    extra = tuple(sum(c * v[j] for c, v in zip(coeffs, vecs)) for j in range(n))
    vecs = [*vecs]
    vecs.insert(data.draw(st.integers(0, len(vecs))), extra)
    with pytest.raises(ValueError, match="linearly dependent"):
        intmat.saturation(vecs)


@pytest.mark.parametrize("seed", range(4))
def test_saturation_of_scaled_k3_kernel(seed):
    # the 21 kernel vectors of a K3 functional span a saturated lattice;
    # scaled by 1, 2, 3 and 6 in turn they do not, and saturation undoes it
    rng = random.Random(seed)
    k3 = catalog.build("K3")
    v = [rng.randint(-5, 5) for _ in range(k3.rank)]
    ker = intmat.kernel([intmat.mat_vec(k3.gram, v)], k3.rank)
    scaled = [tuple(f * x for x in w) for f, w in zip([1, 2, 3, 6] * 6, ker)]
    assert len(scaled) == 21
    sat = lattices.saturation(k3, scaled)
    assert_is_saturation(scaled, k3.rank, sat)
    assert intmat.row_hnf(sat) == intmat.row_hnf(ker)


def echelon_reference(a, cols):
    """A frozen copy of ``intmat.echelon``'s sorting rounds: every round
    sorts stably, so ties keep the earlier row as the reducer."""
    r = 0
    for c in range(cols):
        if r == len(a):
            break
        live = []
        done = []
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
                q = row[c] // p
                row = [x - q * y for x, y in zip(row, top)]
                (live if row[c] else done).append(row)
        top = live[0]
        a[r:] = [top if top[c] > 0 else [-x for x in top], *done]
        r += 1
    return r


@settings(max_examples=300)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_echelon_matches_sorting_reference(rows, width, data):
    # small entries, so that ties in absolute value are common
    m = [[data.draw(st.sampled_from([0, 1, -1, 2, -2, 3, -3])) for _ in range(width)]
         for _ in range(rows)]
    cols = data.draw(st.integers(0, width))
    a, b = [list(row) for row in m], [list(row) for row in m]
    assert intmat.echelon(a, cols) == echelon_reference(b, cols)
    assert a == b


def hermite_reduce_reference(a, r):
    """A frozen copy of the Hermite reduction pass: in forward order, each
    of the first r pivots reduces the entries above it into [0, pivot).
    The [0, pivot) condition fixes the unit upper-triangular transform, so
    any order of the pass gives the same rows."""
    c = 0
    for k in range(r):
        while not a[k][c]:
            c += 1
        p = a[k][c]
        for i in range(k):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]


def saturation_reference(vectors):
    """A frozen copy of ``intmat.saturation``'s forward substitution, on
    ``echelon_reference`` and ``hermite_reduce_reference``, that divides
    every vector by its pivot, 1 or not, with no early return for a
    saturated input. Returns the saturation and the k pivots."""
    k = len(vectors)
    a = intmat.transpose(vectors)
    assert echelon_reference(a, k) == k
    hermite_reduce_reference(a, k)
    s = []
    for i, v in enumerate(vectors):
        acc = v
        for j in range(i):
            c = a[j][i]
            if c:
                acc = [x - c * y for x, y in zip(acc, s[j])]
        p = a[i][i]
        s.append(tuple([x // p for x in acc]))
    return s, [a[i][i] for i in range(k)]


@settings(max_examples=200)
@given(independent_rows())
def test_saturation_matches_reference(case):
    n, vecs = case
    assert intmat.saturation(vecs) == saturation_reference(vecs)[0]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["K3", "I22_2", "LAMBDA0"])
def test_saturation_of_complement_bases_matches_reference(name, seed):
    # a complement basis is saturated, so every pivot is 1: the unit path,
    # which returns the basis as it is
    lat = Lattice(_moved_gram(name, seed))
    rng = random.Random(seed)
    v = [rng.randint(-3, 3) for _ in range(lat.rank)]
    v[rng.randrange(lat.rank)] = 1
    comp = lattices.orthogonal_complement(lat, v)
    sat, pivots = saturation_reference(comp)
    assert pivots == [1] * len(comp)
    assert intmat.saturation(comp) == sat
    assert intmat.saturation(comp) == comp


def test_saturation_of_a_scaled_big_saturated_basis_is_the_basis():
    # 12 vectors in Z^24 with 333-bit entries: e_i plus big entries in the
    # last 12 columns, so their first 12 x 12 minor is 1, mixed by row
    # additions. Scaled by 1, 2, 3 and 6 they are not saturated, and the
    # saturation is the unscaled basis itself, entry for entry
    rng = random.Random(333)
    k = 12
    rows = [[int(i == j) for j in range(k)] + [rng.randrange(-2**333, 2**333) for _ in range(k)]
            for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        t = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + t * y for x, y in zip(rows[i], rows[j])]
    basis = [tuple(row) for row in rows]
    assert max(abs(x) for row in basis for x in row).bit_length() > 333
    assert verify._saturated(basis)
    scaled = [tuple(f * x for x in v) for f, v in zip([1, 2, 3, 6] * 3, basis)]
    assert not verify._saturated(scaled)
    assert intmat.saturation(scaled) == basis
    assert intmat.saturation(basis) == basis


@given(st.integers(1, 5), st.data())
def test_determinant_against_rational_elimination(n, data):
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    assert intmat.det(rows) == det_by_fraction_elimination(rows)


def permutation_sign(perm):
    inversions = sum(x > y for x, y in combinations(perm, 2))
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("perm", [perm for n in range(1, 6)
                                  for perm in permutations(range(n))],
                         ids=lambda perm: "".join(map(str, perm)))
def test_determinant_of_permutation_matrix_is_its_sign(perm):
    # det keeps no sign of its own: its zero-pivot repair adds a row, and
    # the anti-diagonal matrix and the cyclic shift need one at every step
    n = len(perm)
    m = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    assert intmat.det(m) == permutation_sign(perm)


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


def _moved_gram(name, seed):
    """The catalog Gram of ``name``, moved by seeded ops unless seed is 0."""
    gram = catalog.build(name).gram
    if seed:
        (gram,) = _apply_ops(gram, seeded_unimodular_ops(seed, len(gram)))
    return gram


_BIG = ["K3", "LAMBDA0", "I22_2"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", _BIG)
def test_inertia_matches_fraction_reference_at_rank_22_and_24(name, seed):
    gram = _moved_gram(name, seed)
    expected = inertia_by_fraction_congruence(gram)
    assert intmat.inertia(gram)[:3] == expected
    assert expected == tuple(catalog.report(name).signature)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", _BIG)
def test_inertia_det_is_det_at_rank_22_and_24(name, seed):
    gram = _moved_gram(name, seed)
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
        (gram,) = _apply_ops(gram, seeded_unimodular_ops(seed, n))
    m = max(abs(x) for row in gram for x in row)
    assert m <= 50
    largest = max(abs(x) for _, block in intmat.congruence_pivots(gram)
                  for row in block for x in row)
    assert largest <= (isqrt(n) + 1) ** n * (4 * m) ** n
    assert largest.bit_length() <= 64


# Hand-made Grams that each reach the repair of a zero pivot, with the pivots
# congruence_pivots yields: b_0 += c * b_j for the first later b_j with
# (b_0, b_j) != 0 or (b_j, b_j) != 0, so the pivot is 2c * (b_0, b_j) +
# (b_j, b_j), with c = -1 only where c = 1 would give 0; and radical
# directions (0). In the "later-pivot" Grams that b_j has a nonzero square.
_BRANCH_GRAMS = {
    "later-pivot-2": ([[0, 1], [1, 3]], [5, -1]),
    "later-pivot-3": ([[0, 0, 1], [0, 0, 2], [1, 2, 5]], [7, -4, 0]),
    "add-repair-U": ([[0, 1], [1, 0]], [2, -1]),
    "add-repair-minus": ([[0, 1], [1, -2]], [-4, 1]),
    "radical-after-pivot": ([[0, 0], [0, 5]], [5, 0]),
    "radical-zero-3": ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 0, 0]),
    "radical-U+<0>": ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [2, -1, 0]),
}


@pytest.mark.parametrize("gram,pivots", _BRANCH_GRAMS.values(), ids=_BRANCH_GRAMS)
def test_congruence_pivots_branches(gram, pivots):
    assert [p for p, _ in intmat.congruence_pivots(gram)] == pivots
    pos, neg, zero, d = intmat.inertia(gram)
    assert (pos, neg, zero) == inertia_by_fraction_congruence(gram)
    assert d == intmat.det(gram)


def test_congruence_pivots_add_repair_on_k3():
    # the K3 Gram starts with 3U: each U block is repaired by b_0 += b_1
    # (pivot 2) and leaves -1, before the E8(-1) directions are pivoted on
    gram = catalog.build("K3").gram
    pivots = [p for p, _ in intmat.congruence_pivots(gram)]
    assert pivots[:6] == [2, -1, 2, -1, 2, -1]
    pos, neg, zero, d = intmat.inertia(gram)
    assert (pos, neg, zero) == inertia_by_fraction_congruence(gram) == (3, 19, 0)
    assert d == intmat.det(gram) == -1


@pytest.mark.parametrize("gram", [g for g, _ in _BRANCH_GRAMS.values()]
                         + [catalog.build("K3").gram, catalog.build("I22_2").gram],
                         ids=[*_BRANCH_GRAMS, "K3", "I22_2"])
def test_congruence_pivots_yield_upper_triangles(gram):
    # the block of step k has m - k rows, row i has m - k - i entries, and
    # its corner is the pivot
    m = len(gram)
    steps = [(p, [len(row) for row in block], block[0][0])
             for p, block in intmat.congruence_pivots(gram)]
    assert [shape for _, shape, _ in steps] == [list(range(m - k, 0, -1))
                                                for k in range(m)]
    assert all(p == corner for p, _, corner in steps)


def congruence_pivots_dense(gram):
    """Frozen copy of ``intmat.congruence_pivots`` with the dense update:
    every row of the block, zero head or not, is rebuilt by
    (|p| * a_ij - (s * h_i) * h_j) // prev."""
    a = [list(row[i:]) for i, row in enumerate(gram)]
    prev = 1
    while a:
        if not a[0][0]:
            j = next((j for j in range(1, len(a)) if a[0][j] or a[j][0]), 0)
            if not j:
                yield 0, a
                a = a[1:]
                continue
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
            sh = s * head[i]
            rows.append([(p * x - sh * g) // prev for x, g in zip(a[i], head[i:])])
        a = rows
        prev = p


def assert_pivots_match_dense_reference(gram):
    # each block is copied when it is yielded, so a row shared with a later
    # block and changed there would show
    ours = [(p, [list(row) for row in block])
            for p, block in intmat.congruence_pivots(gram)]
    assert ours == [(p, [list(row) for row in block])
                    for p, block in congruence_pivots_dense(gram)]


_MOVED = [(name, seed) for name in ["K3", "I22_2", "LAMBDA0", "E8"] for seed in range(4)]


@pytest.mark.parametrize(
    "gram",
    [g for g, _ in _BRANCH_GRAMS.values()] + [_moved_gram(*case) for case in _MOVED],
    ids=[*_BRANCH_GRAMS, *(f"{name}-{seed}" for name, seed in _MOVED)])
def test_congruence_pivots_match_dense_reference(gram):
    assert_pivots_match_dense_reference(gram)


@st.composite
def mostly_zero_grams(draw, max_rank=8):
    # most rows have a zero head at most steps: the rescaled and kept rows
    n = draw(st.integers(min_value=1, max_value=max_rank))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.sampled_from([0, 0, 0, 0, 0, -2, -1, 1, 2, 3]))
    return g


@settings(max_examples=300)
@given(mostly_zero_grams())
def test_congruence_pivots_match_dense_reference_on_sparse_grams(gram):
    assert_pivots_match_dense_reference(gram)


def product_by_double_sum(gram, x, y):
    n = len(gram)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))


@given(lattice_with_vectors(2))
def test_product_is_the_double_sum(data):
    lat, (x, y) = data
    assert lattices.product(lat, x, y) == product_by_double_sum(lat.gram, x, y)


def gram_by_double_sum(gram, basis):
    """B^T G B, with the basis vectors as the columns of B: the pairings."""
    return tuple(tuple(product_by_double_sum(gram, x, y) for y in basis) for x in basis)


@st.composite
def support_rows(draw, count, width):
    """Rows of each kind that the support-based product treats apart: +e_j,
    -e_j, zero, several terms starting with a 1, and dense."""
    rows = []
    for _ in range(count):
        kind = draw(st.sampled_from(["unit", "-unit", "zero", "mixed", "dense"]))
        row = [0] * width
        if kind == "dense":
            row = [draw(entries) for _ in range(width)]
        elif kind != "zero" and width:
            j = draw(st.integers(0, width - 1))
            row[j] = -1 if kind == "-unit" else 1
            if kind == "mixed":
                row[j + 1:] = [draw(entries) for _ in range(width - j - 1)]
        rows.append(row)
    return rows


@settings(max_examples=300)
@given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 5), st.data())
def test_mat_mul_is_the_sum_of_products(m, k, n, data):
    # an m x k times a k x n matrix; the rows of b are tuples, as an
    # Isometry's are, and the product is still a list of lists
    a = data.draw(support_rows(m, k))
    b = [tuple(row) for row in data.draw(support_rows(k, n))]
    before = [tuple(row) for row in a], list(b)
    ab = intmat.mat_mul(a, b)
    assert ab == [[sum(a[i][j] * b[j][c] for j in range(k)) for c in range(n)]
                  for i in range(m)]
    # lists, like identity's, each its own: no row is a row of b or another's
    assert all(type(row) is list for row in ab) and len(set(map(id, ab))) == m
    assert ([tuple(row) for row in a], b) == before


@settings(max_examples=300)
@given(symmetric_lattices(max_rank=6), st.integers(0, 6), st.data())
def test_congruence_is_the_double_sum(lat, m, data):
    # an m x n basis of any rank, dependent or not: B G B^T entry by entry
    gram = lat.gram
    basis = data.draw(support_rows(m, lat.rank))
    before = [list(row) for row in basis]
    assert intmat.congruence(basis, gram) == gram_by_double_sum(gram, basis)
    assert basis == before and lat.gram == gram


@given(symmetric_lattices(), st.data())
def test_induced_gram_is_the_double_sum(lat, data):
    n = lat.rank
    k = data.draw(st.integers(1, n))
    vecs = [tuple(data.draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(k)]
    if intmat.rank(vecs) != k:
        return
    sub = lattices.induced_gram(lat, vecs)
    assert sub.gram == gram_by_double_sum(lat.gram, vecs)


def assert_induced_gram_on_a_complement(lat, seed):
    # complement bases are mostly zeros: the support-based product's case
    rng = random.Random(seed)
    v = [0] * lat.rank
    for i in rng.sample(range(lat.rank), rng.randint(1, 3)):
        v[i] = rng.choice([-3, -1, 1, 2])
    comp = lattices.orthogonal_complement(lat, v)
    assert lattices.induced_gram(lat, comp).gram == gram_by_double_sum(lat.gram, comp)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["K3", "LAMBDA0"])
def test_induced_gram_on_sparse_complement_bases(name, seed):
    assert_induced_gram_on_a_complement(catalog.build(name), seed)


@pytest.mark.parametrize("seed", range(1, 5))
@pytest.mark.parametrize("name", ["K3", "I22_2"])
def test_induced_gram_on_moved_complement_bases(name, seed):
    # moved, the Grams are 10-36 % nonzero and these bases 5-8 %
    assert_induced_gram_on_a_complement(Lattice(_moved_gram(name, seed)), seed)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["K3", "LAMBDA0"])
def test_induced_gram_on_dense_bases(name, seed):
    lat = catalog.build(name)
    rng = random.Random(seed)
    k = rng.randint(1, 8)
    basis = [[rng.choice([-5, -3, -2, -1, 1, 2, 4]) for _ in range(lat.rank)]
             for _ in range(k)]
    assert intmat.rank(basis) == k
    assert lattices.induced_gram(lat, basis).gram == gram_by_double_sum(lat.gram, basis)


@pytest.mark.parametrize("seed", range(1, 4))
@pytest.mark.parametrize("name", ["K3", "LAMBDA0"])
def test_induced_gram_on_unit_and_mixed_supports(name, seed):
    # vector t has its first support entry at the t-th of k low positions,
    # and any further entries above all of them, so the basis is independent:
    # e_a, -e_a, e_a + c e_b + ... (a multi-term support that starts with 1)
    # and -e_a + e_b, in turn
    lat = Lattice(_moved_gram(name, seed))
    before = [list(row) for row in lat.gram]
    rng = random.Random(seed)
    k = 8
    positions = sorted(rng.sample(range(lat.rank), 2 * k))
    low, high = positions[:k], positions[k:]
    basis = []
    for t, a in enumerate(low):
        b = [0] * lat.rank
        b[a] = -1 if t % 4 in (1, 3) else 1
        if t % 4 == 2:
            for j in rng.sample(high, rng.randint(1, 3)):
                b[j] = rng.choice([-2, -1, 1, 3])
        elif t % 4 == 3:
            b[rng.choice(high)] = 1
        basis.append(tuple(b))
    assert lattices.induced_gram(lat, basis).gram == gram_by_double_sum(lat.gram, basis)
    assert [list(row) for row in lat.gram] == before


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


# --- verify's seeded draws: the same cases as random.Random ------------------

@pytest.mark.parametrize("seed", [0, 1, 0x5EED, 0x5EED + 3, 2**61 - 1])
def test_draws_equal_stdlib_random(seed):
    # an interleaved sequence of every kind of draw, widths 1-19 and pair
    # sizes 2-21, from a plan drawn by a third generator
    ours, ref = verify._Draws(seed), random.Random(seed)
    plan = random.Random(f"plan {seed}")
    for _ in range(3000):
        kind, lo = plan.randrange(5), plan.randint(-9, 0)
        width = plan.randint(1, 19)
        hi = lo + width - 1
        if kind == 0:
            assert ours.randint(lo, hi) == ref.randint(lo, hi)
        elif kind == 1:
            assert ours.below(width) == ref.randrange(width)
        elif kind == 2:
            seq = tuple(range(lo, hi + 1))
            assert ours.choice(seq) == ref.choice(seq)
        elif kind == 3:
            n = plan.randint(2, 21)
            assert ours.pair(n) == tuple(ref.sample(range(n), 2))
        else:
            count = plan.randint(0, 25)
            assert ours.ints(lo, hi, count) == [ref.randint(lo, hi) for _ in range(count)]
    assert ours.below(2**64) == ref.randrange(2**64)  # both streams at the same word


def _stdlib_unimodular_ops(rng, n, steps):
    """The unimodular moves drawn with the stdlib's own methods."""
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


@pytest.mark.parametrize("seed", range(3))
def test_random_inputs_equal_stdlib_loops(seed):
    ours, ref = verify._Draws(seed), random.Random(seed)
    for n in range(1, 9):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = ref.randint(-9, 9)
        assert verify._random_symmetric(ours, n).gram == tuple(map(tuple, g))
        assert verify._random_vec(ours, n, 4) == tuple(ref.randint(-4, 4) for _ in range(n))
        assert verify._random_unimodular_ops(ours, n, 6) == _stdlib_unimodular_ops(ref, n, 6)


# --- verify's randomized groups: each distinct case checked once ------------

# the laws of reflection-properties, index-law, saturation and
# bilinear-properties; _law_input makes a call's arguments hashable
_RANDOMIZED_LAWS = ("involution_law", "index_law", "saturation_law", "complement_law",
                    "bilinear_law", "congruence_law", "direct_sum_law")


def _hashable(a):
    if isinstance(a, Lattice):
        return a.gram
    if isinstance(a, (list, tuple)):
        return tuple(map(_hashable, a))
    return a


def _law_input(name, args):
    if name == "involution_law":
        (iso,) = args
        args = (iso.lattice, iso.root, iso.sign)
    elif name == "saturation_law":  # reads the lattice only for the vectors' length
        args = args[1:]
    return (name, *map(_hashable, args))


def _spy_laws(monkeypatch) -> Counter:
    """Counts the calls of each randomized law per input, from here on."""
    seen = Counter()
    for name in _RANDOMIZED_LAWS:
        def spy(*args, _real=getattr(verify, name), _name=name):
            seen[_law_input(_name, args)] += 1
            return _real(*args)
        monkeypatch.setattr(verify, name, spy)
    return seen


def test_randomized_groups_check_each_case_once(monkeypatch):
    # the four randomized groups only: involution-soundness's certificate
    # points are pinned by the per-claim spies of test_acceptance.py
    seen = _spy_laws(monkeypatch)
    accepted = set()  # the index_law inputs it accepted (det(B) != 0)

    def index_spy(lat, b, _law=verify.index_law):
        ok = _law(lat, b)
        if ok:
            accepted.add(_law_input("index_law", (lat, b)))
        return ok

    monkeypatch.setattr(verify, "index_law", index_spy)
    details = [check(10) for check in (
        verify.check_reflection_properties, verify.check_index_law,
        verify.check_saturation, verify.check_bilinear_properties)]
    assert [k for k, c in seen.items() if c > 1] == []
    # skipping repeats leaves the set of distinct inputs as it was
    digest = hashlib.sha256("\n".join(sorted(map(repr, seen))).encode()).hexdigest()
    assert digest == "397f5a9ec400ee34782798df973f21dc1ddfc632e9d78ce74b5ec7bc36ac473f"
    # the labels count what was checked, not what was drawn
    reflections = sum(key[0] == "involution_law" for key in seen)
    assert details[0].endswith(f" on {reflections} distinct of 100 randomized reflections")
    assert details[1].endswith(f" on {len(accepted)} distinct of 100 randomized pairs")
    saturations = sum(key[0] == "saturation_law" for key in seen)
    assert f" on {saturations} distinct of 100 randomized vector lists;" in details[2]
    assert details[2].endswith(" on 100 nonzero of 100 randomized vectors")
    # each suite of bilinear-properties with its own count
    counts = Counter(key[0] for key in seen)
    suites = counts["bilinear_law"], counts["congruence_law"], counts["direct_sum_law"]
    assert suites == (100, 5, 5)
    assert details[3].startswith(f"symmetry and bilinearity on {suites[0]}, basis invariance"
                                 f" and direct sums on {suites[1]} randomized cases;")


def test_saturation_label_counts_nonzero_complements(monkeypatch):
    # complement_law checks nothing for the zero vector; 3 of the 1000
    # vectors drawn at n-max 100 are zero, and none at n-max 3 or 10
    nonzero = []

    def spy(lat, v, _law=verify.complement_law):
        nonzero.append(any(v))
        return _law(lat, v)

    monkeypatch.setattr(verify, "complement_law", spy)
    detail = verify.check_saturation(100)
    assert (len(nonzero), sum(nonzero)) == (1000, 997)
    assert detail.endswith(f" on {sum(nonzero)} nonzero of 1000 randomized vectors")


def test_index_law_proves_independence_once(monkeypatch):
    # det(B) != 0 already shows the columns independent: B^T G B is one
    # congruence per accepted pair, with no echelon of a second proof
    calls = Counter()

    def spy(module, name):
        def counted(*args, _real=getattr(module, name)):
            calls[name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)

    spy(lattices, "induced_gram")
    spy(intmat, "rank")
    spy(intmat, "congruence")
    detail = verify.check_index_law(10)
    assert (calls["induced_gram"], calls["rank"]) == (0, 0)
    assert detail.endswith(f" on {calls['congruence']} distinct of 100 randomized pairs")


def test_no_memo_across_runs(monkeypatch):
    seen = _spy_laws(monkeypatch)

    def calls():
        counts = Counter()
        for key, c in seen.items():
            counts[key[0]] += c
        return counts["involution_law"], counts["index_law"]

    verify.run_all(3)
    first = calls()
    verify.run_all(3)
    assert calls() == tuple(2 * c for c in first)
