"""The degree-family pipeline: Fujiki inversion, the Pell necessary
condition, the involution, the discriminant obstruction, and the family
records themselves (always cross-checked against closed formulas)."""

import pytest

from epwlat import InvariantError, catalog, epwfamily, lattices, pell
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
        res = epwfamily.necessary_condition(10)
        assert res.solvable and (res.witness.y, res.witness.x) == (2, 1)

    def test_degree_34(self):
        res = epwfamily.necessary_condition(34)
        assert res.solvable and (res.witness.y, res.witness.x) == (4, 1)

    def test_degree_twelve_fails(self):
        res = epwfamily.necessary_condition(12)
        assert not res.solvable and res.witness is None

    def test_square_half_degree(self):
        # d = 18 gives D = 9, a perfect square: never solvable
        assert not epwfamily.necessary_condition(18).solvable

    @pytest.mark.parametrize("d", [8, 9, 11, 0, -4])
    def test_domain_checked(self, d):
        with pytest.raises(ValueError):
            epwfamily.necessary_condition(d)


class TestInvolution:
    def test_degree_ten_images(self):
        rep = epwfamily.epw_involution(10, 2)
        assert rep.image_of_h == (9, -20)
        assert rep.image_of_delta == (4, -9)

    def test_degree_34_images(self):
        # z -> -z + (z,gamma)gamma with gamma = h2 - 4*delta2, (h2,h2) = 34
        rep = epwfamily.epw_involution(34, 4)
        assert rep.image_of_h == (33, -136)
        assert rep.image_of_delta == (8, -33)

    def test_fixes_gamma_and_squares_to_identity(self):
        rep = epwfamily.epw_involution(10, 2)
        assert rep.matrix.apply((1, -2)) == (1, -2)
        assert rep.matrix.is_involution()

    def test_wrong_square_rejected(self):
        with pytest.raises(ValueError):
            epwfamily.epw_involution(10, 1)  # (gamma,gamma) = 8
        with pytest.raises(ValueError):
            epwfamily.epw_involution(12, 2)  # (gamma,gamma) = 4


class TestFamilyRecords:
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

    @pytest.mark.parametrize("n", list(range(1, 30)))
    def test_h2_orthogonal_primitive_positive(self, n):
        rec = epwfamily.family(n)
        pi = lattices.Lattice(rec.gram_pi)
        assert lattices.product(pi, rec.h2, (0, 1)) == 0
        assert lattices.is_primitive(pi, rec.h2)
        assert lattices.product(pi, rec.h2, (1, 0)) > 0
        assert rec.disc_pi == lattices.discriminant(pi)

    def test_gamma_delta2_live_in_ambient(self):
        rec = epwfamily.family(3)
        ambient = catalog.rank3_neron_severi(3)
        assert lattices.product(ambient, rec.gamma, rec.gamma) == 2
        assert lattices.product(ambient, rec.delta2, rec.delta2) == -2
        assert lattices.product(ambient, rec.gamma, rec.delta2) == 16

    def test_pell_witness_is_minimal(self):
        rec = epwfamily.family(4)
        assert rec.pell == pell.fundamental_negative(rec.g - 1)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            epwfamily.family(0)

    def test_broken_invariant_raises(self, monkeypatch):
        monkeypatch.setattr(pell, "fundamental_negative", lambda d: None)
        with pytest.raises(InvariantError, match="no Pell solution for D = 17"):
            epwfamily.family(1)


class TestDiscObstruction:
    @pytest.mark.parametrize("n,disc", [(1, -21), (10, -300)])
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
    def test_r4_is_family_n1(self):
        status = epwfamily.ogrady_status(4)
        assert status.case is OgradyCase.EVEN_FAMILY
        assert status.n == 1
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
