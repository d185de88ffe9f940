"""The degree-family pipeline: Fujiki inversion, the Pell necessary
condition, the involution, the discriminant obstruction, and the family
records themselves (always cross-checked against closed formulas)."""

import pytest

from epwlat import InvariantError, catalog, epwfamily, lattices, pell, verify
from epwlat.epwfamily import OgradyCase


class TestFujiki:
    def test_top_intersection(self):
        assert epwfamily.epw_top_intersection() == 12

    def test_polarization_square(self):
        assert epwfamily.fujiki_degree_to_bb(12, 3) == 2

    @pytest.mark.parametrize("q4,c,s", [(0, 3, 0), (48, 3, 4), (12, 12, 1), (8, 2, 2)])
    def test_other_inversions(self, q4, c, s):
        assert epwfamily.fujiki_degree_to_bb(q4, c) == s

    @pytest.mark.parametrize("q4,c", [(12, 5), (13, 3), (-12, 3), (6, 3)])
    def test_inconsistent_data_rejected(self, q4, c):
        with pytest.raises(ValueError):
            epwfamily.fujiki_degree_to_bb(q4, c)


class TestNecessaryCondition:
    def test_degree_ten(self):
        witness = epwfamily.necessary_condition(10)
        assert (witness.y, witness.x) == (2, 1)

    def test_degree_34(self):
        witness = epwfamily.necessary_condition(34)
        assert (witness.y, witness.x) == (4, 1)

    def test_degree_twelve_fails(self):
        assert epwfamily.necessary_condition(12) is None

    def test_square_half_degree(self):
        # d = 18 gives D = 9, a perfect square: never solvable
        assert epwfamily.necessary_condition(18) is None

    @pytest.mark.parametrize("n", range(1, 31))
    def test_witness_is_the_minimal_solution(self, n):
        # d/2 = (2n + 2)^2 + 1, whose least solution is (2n + 2, 1); the
        # reference walks the full period one convergent at a time
        d = 8 * n * n + 16 * n + 10
        witness = epwfamily.necessary_condition(d)
        assert witness.d == d // 2
        assert (witness.y, witness.x) == verify.sequential_fundamental(d // 2)
        assert (witness.y, witness.x) == (2 * n + 2, 1)

    @pytest.mark.parametrize("d", [8, 9, 11, 0, -4])
    def test_domain_checked(self, d):
        with pytest.raises(ValueError):
            epwfamily.necessary_condition(d)

    def test_expands_once(self, monkeypatch):
        calls = []
        expand = pell.cf_expansion

        def counting(d):
            calls.append(d)
            return expand(d)

        monkeypatch.setattr(pell, "cf_expansion", counting)
        assert (epwfamily.necessary_condition(34).y, calls) == (4, [17])


class TestInvolution:
    def test_degree_ten_images(self):
        j = epwfamily.epw_involution(10)
        assert j.apply((1, 0)) == (9, -20)
        assert j.apply((0, 1)) == (4, -9)

    def test_degree_34_images(self):
        # z -> -z + (z,gamma)gamma with gamma = h2 - 4*delta2, (h2,h2) = 34
        j = epwfamily.epw_involution(34)
        assert j.apply((1, 0)) == (33, -136)
        assert j.apply((0, 1)) == (8, -33)

    def test_fixes_gamma_and_squares_to_identity(self):
        j = epwfamily.epw_involution(10)
        assert j.apply((1, -2)) == (1, -2)
        assert j.is_involution()

    # n = 10^3, 10^6, 10^9 lie far past the points of verify's certificate
    @pytest.mark.parametrize("d,m", [(10, 2)] + [
        (8 * n * n + 16 * n + 10, 2 * n + 2) for n in [*range(1, 11), 10**3, 10**6, 10**9]])
    def test_is_the_negated_reflection(self, d, m):
        expected = lattices.negated_reflection(catalog.ns_hilbert_square(d), (1, -m))
        assert epwfamily.epw_involution(d) == expected

    def test_wrong_square_rejected(self):
        # no witness, so no class of square 2 to reflect in
        with pytest.raises(ValueError, match="fails the necessary condition"):
            epwfamily.epw_involution(12)  # D = 6, even period
        with pytest.raises(ValueError, match="fails the necessary condition"):
            epwfamily.epw_involution(18)  # D = 9, a square

    def test_every_passing_degree_to_2000(self):
        # gamma = x h - y delta from the minimal witness, x > 1 included
        passing = with_x1 = 0
        for d in range(10, 2001, 2):
            w = epwfamily.necessary_condition(d)
            if w is None:
                continue
            j = epwfamily.epw_involution(d)
            assert j.root == (w.x, -w.y), d
            verify.involution_law(j)
            passing += 1
            with_x1 += w.x == 1
        assert (passing, with_x1) == (151, 30)

    def test_degree_26_witness_with_x_5(self):
        # D = 13: 18^2 - 13 * 5^2 = -1, so gamma = 5h - 18delta
        j = epwfamily.epw_involution(26)
        assert j.root == (5, -18)
        assert j.apply((1, 0)) == (649, -2340)
        assert j.apply((0, 1)) == (180, -649)


class TestFamilyRecords:
    def test_plain_record(self):
        rec = epwfamily.family(1)
        assert rec == (1, 34, 18, 4, ((2, 8), (8, -2)), (1, 4), -68, (17, 4, 1))
        n, d, *_ = rec
        assert (n, d) == (1, 34)
        with pytest.raises(AttributeError):
            rec.d = 35

    def test_n1(self):
        rec = epwfamily.family(1)
        assert (rec.d, rec.g, rec.ogrady_r) == (34, 18, 4)
        assert rec.gram_pi == ((2, 8), (8, -2))
        assert rec.disc_pi == -68
        assert rec.h2 == (1, 4)
        assert (rec.pell.y, rec.pell.x) == (4, 1)

    def test_n2(self):
        rec = epwfamily.family(2)
        assert (rec.d, rec.g, rec.ogrady_r) == (74, 38, 6)
        assert rec.gram_pi[0][1] == 12
        assert rec.disc_pi == -148
        assert (rec.pell.y, rec.pell.x) == (6, 1)
        assert rec.pell.d == 37

    @pytest.mark.parametrize("n", [*range(1, 30), 10**3, 10**6, 10**9])
    def test_h2_orthogonal_primitive_positive(self, n):
        rec = epwfamily.family(n)
        pi = lattices.Lattice(rec.gram_pi)
        assert lattices.product(pi, rec.h2, (0, 1)) == 0
        assert lattices.is_primitive(pi, rec.h2)
        assert lattices.product(pi, rec.h2, (1, 0)) > 0
        assert rec.disc_pi == lattices.discriminant(pi)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_h2_sign_turned_towards_gamma(self, monkeypatch, n):
        # the complement fixes its generator only up to sign; handed the
        # negated one, family turns it so that (h2, gamma) > 0
        complement = lattices.orthogonal_complement
        monkeypatch.setattr(lattices, "orthogonal_complement",
                            lambda lat, v: [tuple(-x for x in w) for w in complement(lat, v)])
        pi = catalog.epw_picard_lattice(n)
        assert lattices.orthogonal_complement(pi, (0, 1)) == [(-1, -2 * n - 2)]
        assert epwfamily.family(n).h2 == (1, 2 * n + 2)

    def test_gamma_delta2_live_in_ambient(self):
        ambient = catalog.rank3_neron_severi(3)
        gamma, delta2 = catalog.GAMMA_COORDS, catalog.DELTA2_COORDS
        assert lattices.product(ambient, gamma, gamma) == 2
        assert lattices.product(ambient, delta2, delta2) == -2
        assert lattices.product(ambient, gamma, delta2) == 16

    def test_pell_witness_is_minimal(self):
        # g - 1 = 101 = 10^2 + 1, whose least solution is (2n + 2, 1) = (10, 1)
        rec = epwfamily.family(4)
        assert rec.pell.d == rec.g - 1
        assert (rec.pell.y, rec.pell.x) == verify.sequential_fundamental(rec.g - 1)
        assert (rec.pell.y, rec.pell.x) == (10, 1)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            epwfamily.family(0)

    def test_broken_invariant_raises(self, monkeypatch):
        monkeypatch.setattr(pell, "fundamental_negative", lambda d: None)
        with pytest.raises(InvariantError, match="no Pell solution for D = 17"):
            epwfamily.family(1)

    def test_wrong_degree_raises(self, monkeypatch):
        # (h2, h2) reads 2 too high, so d(1) = 36
        product = lattices.product
        monkeypatch.setattr(lattices, "product",
                            lambda lat, x, y: product(lat, x, y) + 2 * (x == y))
        with pytest.raises(InvariantError) as err:
            epwfamily.family(1)
        assert str(err.value) == "family(1): degree 36 differs from 8n^2 + 16n + 10"

    def test_verify_builds_each_record_once(self, monkeypatch):
        # family-identities certifies degree <= 3 at n = 1..4 and the far
        # point 10 * n_max; no other group rebuilds a record
        calls = []
        build = epwfamily.family

        def counted(n):
            calls.append(n)
            return build(n)

        monkeypatch.setattr(epwfamily, "family", counted)
        assert all(r.passed for r in verify.run_all(3))
        assert calls == [1, 2, 3, 4, 30]


class TestDiscObstruction:
    @pytest.mark.parametrize("n,disc", [(1, -21), (10, -300), *(
        (n, -n * (n + 20)) for n in (10**3, 10**6, 10**9))])
    def test_values(self, n, disc):
        res = epwfamily.disc_obstruction(n)
        assert res.disc_r == disc
        assert res.contradiction_r0

    def test_broken_invariant_raises(self, monkeypatch):
        monkeypatch.setattr(lattices, "discriminant", lambda lat: 0)
        with pytest.raises(InvariantError, match=r"disc R\(1\) = 0"):
            epwfamily.disc_obstruction(1)


class TestReflectionInequality:
    @pytest.mark.parametrize("n,fh_bar,disc", [(1, 10, 0), (1, 1, 99), (5, 14, -96)])
    def test_values(self, n, fh_bar, disc):
        res = epwfamily.reflection_inequality(n, fh_bar)
        assert res.disc_r_prime == disc
        assert res.strict

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError):
            epwfamily.reflection_inequality(1, 0)
        with pytest.raises(ValueError):
            epwfamily.reflection_inequality(1, 11)
        with pytest.raises(ValueError):
            epwfamily.reflection_inequality(1, -3)


class TestEmbeddingCriterion:
    def test_two_polarization_lattices_pass(self):
        for n in range(1, 50):
            assert epwfamily.k3_embedding_sufficient(
                catalog.two_polarization_lattice(n)
            )

    def test_ns_hilb_passes(self):
        assert epwfamily.k3_embedding_sufficient(catalog.ns_hilbert_square(10))

    def test_odd_or_large_fails(self):
        assert not epwfamily.k3_embedding_sufficient(catalog.i22_2())
        assert not epwfamily.k3_embedding_sufficient(catalog.k3_lattice())  # rank 22
        # U + E8(-1) + <-2>: even, hyperbolic of signature (1, 10), rank 11
        big = lattices.direct_sum(
            lattices.direct_sum(catalog.hyperbolic_plane(),
                                lattices.rescale(catalog.e8(), -1)),
            catalog.rank_one(-2))
        assert lattices.signature(big) == (1, 10, 0)
        assert not epwfamily.k3_embedding_sufficient(big)

    def test_wrong_signature_fails(self):
        assert not epwfamily.k3_embedding_sufficient(catalog.e8())  # (8,0)
        assert not epwfamily.k3_embedding_sufficient(
            catalog.fano_polarization_lattice()
        )  # (2,0)

    def test_degenerate_fails(self):
        # even of rank 2 with signature (1, 0, 1)
        for gram in (((2, 0), (0, 0)), ((2, 2), (2, 2))):
            assert not epwfamily.k3_embedding_sufficient(lattices.Lattice(gram))


class TestOgradyStatus:
    def test_plain_record(self):
        status = epwfamily.ogrady_status(1)
        assert status == (OgradyCase.ODD_OPEN, None, "only partial results are known")
        with pytest.raises(AttributeError):
            status.note = ""

    def test_r4_is_family_n1(self):
        status = epwfamily.ogrady_status(4)
        assert status.case is OgradyCase.EVEN_FAMILY
        assert status.record.n == 1
        assert status.record.d == 34

    def test_r0_r2(self):
        assert epwfamily.ogrady_status(0).case is OgradyCase.CLASSICAL_R0
        assert epwfamily.ogrady_status(2).case is OgradyCase.OGRADY_R2

    @pytest.mark.parametrize("r", [1, 3, 5, 7])
    def test_odd_open(self, r):
        assert epwfamily.ogrady_status(r).case is OgradyCase.ODD_OPEN

    def test_even_covers_all_r_ge_4(self):
        for r in range(4, 40, 2):
            status = epwfamily.ogrady_status(r)
            assert status.case is OgradyCase.EVEN_FAMILY
            assert status.record.ogrady_r == r
            assert status.record.g == r * r + 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            epwfamily.ogrady_status(-1)
