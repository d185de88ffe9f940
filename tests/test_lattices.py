"""Unit tests for the lattice core: products, discriminants, signatures,
reflections, complements, saturation. Expected values are frozen from
independent hand computations (cofactor expansions, direct kernel
calculations) noted inline."""

import copy
import pickle
from fractions import Fraction

import pytest

from epwlat import catalog, intmat, lattices
from epwlat.lattices import Lattice, Signature


U = catalog.hyperbolic_plane()
NS10 = catalog.ns_hilbert_square(10)
H = (1, 0)
DELTA = (0, 1)


class TestTypes:
    def test_gram_must_be_square(self):
        with pytest.raises(ValueError):
            Lattice(((1, 2),))

    def test_gram_must_be_symmetric(self):
        with pytest.raises(ValueError):
            Lattice(((1, 2), (3, 4)))

    @pytest.mark.parametrize("gram,error,message", [
        (((1, 2),), ValueError, "must be square"),
        (((1, 2), (2,)), ValueError, "must be square"),
        (((1, 2, 0), (2, 1, 0)), ValueError, "must be square"),
        (((1, 2), (2, 1), (0, 0)), ValueError, "must be square"),
        (((1, 2), (3, 4), (5, 6, 7)), ValueError, "must be square"),
        (((1, 2), (3, 4)), ValueError, "must be symmetric"),
        (((1, 2.0), (2, 1)), TypeError, "integer"),
        (((1.5, 2), (3,)), TypeError, "integer"),
    ])
    def test_gram_checks_in_order(self, gram, error, message):
        # entries are integers first, then the shape is square, then symmetric
        with pytest.raises(error, match=message):
            Lattice(gram)

    def test_basis_vector_first_and_last(self):
        lat = Lattice(((2, 1), (1, 2)))
        assert (lat.basis_vector(0), lat.basis_vector(1)) == ((1, 0), (0, 1))

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_basis_vector_out_of_range(self, i):
        # below 0 and from the rank on there is no basis vector, not a zero one
        with pytest.raises(IndexError, match=f"basis index {i} out of range for rank 2"):
            Lattice(((2, 1), (1, 2))).basis_vector(i)

    def test_vector_length_checked(self):
        with pytest.raises(ValueError, match="length 3 in a rank-2 lattice"):
            lattices.is_primitive(U, (1, 2, 3))

    def test_bool_entries_stored_as_int(self):
        lat = Lattice(((True, False), (False, True)))
        assert lat.gram == ((1, 0), (0, 1))
        assert {type(x) for row in lat.gram for x in row} == {int}

    def test_gram_without_len_is_a_type_error(self):
        with pytest.raises(TypeError):
            Lattice(row for row in ((1,),))

    def test_rank_zero_lattice(self):
        empty = Lattice(())
        assert empty.rank == 0
        assert lattices.discriminant(empty) == 1

    def test_isometry_checks_its_root(self):
        # (h,h) = 10, (delta,delta) = -2, (h-delta, h-delta) = 8, (0,0) is 0
        for root, sign, message in [
            (H, 1, "reflection requires (e,e) in {2, -2}, got 10"),
            ((1, -1), 1, "reflection requires (e,e) in {2, -2}, got 8"),
            ((0, 0), 1, "reflection requires (e,e) in {2, -2}, got 0"),
            (H, -1, "negated reflection requires (r,r) = 2, got 10"),
            (DELTA, -1, "negated reflection requires (r,r) = 2, got -2"),
            ((0, 0), -1, "negated reflection requires (r,r) = 2, got 0"),
            ((1, -2), 2, "isometry sign must be 1 or -1, got 2"),
            ((1, -2, 0), 1, "vector of length 3 in a rank-2 lattice"),
        ]:
            with pytest.raises(ValueError) as exc:
                lattices.Isometry(NS10, root, sign)
            assert str(exc.value) == message


def _pickled(record):
    return pickle.loads(pickle.dumps(record))


class TestRecords:
    def records(self):
        return [Lattice(((10, 0), (0, -2))), lattices.reflection(NS10, DELTA),
                lattices.negated_reflection(U, (1, 1))]

    def test_equal_inputs_give_equal_records(self):
        for a, b in zip(self.records(), self.records()):
            assert a == b and a is not b
            assert hash(a) == hash(b)
        assert hash(NS10) == hash((NS10.gram,))

    @pytest.mark.parametrize("field", ["gram", "lattice", "root", "sign", "matrix"])
    def test_fields_cannot_be_assigned(self, field):
        record = NS10 if field == "gram" else lattices.reflection(NS10, DELTA)
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_repr(self):
        assert repr(NS10) == "Lattice(gram=((10, 0), (0, -2)))"
        assert repr(lattices.reflection(NS10, DELTA)) == (
            "Isometry(lattice=Lattice(gram=((10, 0), (0, -2))), root=(0, 1), "
            "sign=1, matrix=((1, 0), (0, -1)))")
        assert repr(lattices.negated_reflection(U, (1, 1))) == (
            "Isometry(lattice=Lattice(gram=((0, 1), (1, 0))), root=(1, 1), "
            "sign=-1, matrix=((0, 1), (1, 0)))")

    @pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy, _pickled],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal(self, rebuild):
        for record in self.records():
            again = rebuild(record)
            assert again == record and type(again) is type(record)

    def test_every_route_runs_the_hook_once(self, monkeypatch):
        # the hook is replaced by a plain function, as a tracer replaces it,
        # and is looked up on the class at each construction
        iso = lattices.reflection(NS10, DELTA)
        checked = []
        check = lattices.Isometry.__post_init__

        def counting(lattice, root, sign):
            checked.append(tuple(root))
            return check(lattice, root, sign)

        monkeypatch.setattr(lattices.Isometry, "__post_init__", counting)
        copies = [copy.copy(iso), copy.deepcopy(iso), _pickled(iso),
                  lattices.Isometry._make(iso), iso._replace(sign=1)]
        assert all(type(c) is lattices.Isometry and c == iso for c in copies)
        assert checked == [DELTA] * len(copies)

    def test_replace_checks_the_gram(self):
        with pytest.raises(ValueError, match="must be symmetric"):
            NS10._replace(gram=((1, 2), (3, 4)))

    def test_replace_recomputes_the_matrix(self):
        # the root h - 2 delta of NS_HILB(10) has square 10 - 8 = 2
        moved = lattices.reflection(NS10, DELTA)._replace(root=(1, -2), sign=-1)
        assert moved.matrix == lattices.negated_reflection(NS10, (1, -2)).matrix
        assert moved.matrix == ((9, 4), (-20, -9))
        # the matrix is derived: one passed to _replace is recomputed
        assert moved._replace(matrix=((1, 0), (0, 1))) == moved


class TestProduct:
    def test_beauville_squares(self):
        # (h,h) = d and (h,delta) = 0 on the Hilbert square of a degree-10 K3
        assert lattices.product(NS10, H, H) == 10
        assert lattices.product(NS10, H, DELTA) == 0
        assert lattices.product(NS10, DELTA, DELTA) == -2

    def test_zero_vector(self):
        assert lattices.product(NS10, (0, 0), (3, -7)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lattices.product(NS10, (1, 2, 3), (1, 0))


class TestDiscriminant:
    def test_two_polarization_n1(self):
        # cofactor expansion: 10*10 - 11*11 = -21
        assert lattices.discriminant(catalog.two_polarization_lattice(1)) == -21

    def test_hyperbolic_plane(self):
        assert lattices.discriminant(U) == -1

    def test_pi_n1(self):
        # direct 2x2 determinant: 2*(-2) - 8*8 = -68
        assert lattices.discriminant(catalog.epw_picard_lattice(1)) == -68


class TestSignature:
    def test_vanishing_lattice_20_2(self):
        assert lattices.signature(catalog.fano_vanishing_lattice()) == (20, 2, 0)

    def test_hyperbolic_plane(self):
        assert lattices.signature(U) == (1, 1, 0)

    def test_two_polarization_indefinite(self):
        # disc -21 < 0 with positive trace forces signature (1,1) in rank 2
        assert lattices.signature(catalog.two_polarization_lattice(1)) == (1, 1, 0)

    def test_degenerate_direction_counted(self):
        assert lattices.signature(Lattice(((0, 0), (0, 2)))) == (1, 0, 1)
        assert lattices.signature(Lattice(((0,),))) == (0, 0, 1)

    def test_returns_signature_type(self):
        sig = lattices.signature(U)
        assert isinstance(sig, Signature)
        assert sig.positive + sig.negative + sig.zero == U.rank


class TestIsEven:
    def test_named_lattices(self):
        assert lattices.is_even(catalog.fano_vanishing_lattice())
        assert not lattices.is_even(catalog.i22_2())

    @pytest.mark.parametrize("d", [2, 4, 10, 34])
    def test_ns_hilb_even(self, d):
        assert lattices.is_even(catalog.ns_hilbert_square(d))


class TestReflections:
    def test_orthogonal_vectors_fixed(self):
        refl = lattices.reflection(NS10, DELTA)  # (delta,delta) = -2
        assert refl.apply(H) == H

    def test_reflection_is_involution(self):
        for e in [DELTA, (1, -2)]:
            refl = lattices.reflection(NS10, e)
            assert refl.is_involution()
            assert refl.apply(e) == tuple(-c for c in e)

    def test_negated_reflection_images(self):
        # z -> -z + (z, h-2delta)(h-2delta) sends h to 9h - 20delta
        j = lattices.negated_reflection(NS10, (1, -2))
        assert j.apply(H) == (9, -20)
        assert j.apply(DELTA) == (4, -9)
        assert j.apply((1, -2)) == (1, -2)
        assert j.is_involution()

    def test_negated_reflection_is_minus_reflection(self):
        refl = lattices.reflection(NS10, (1, -2))
        j = lattices.negated_reflection(NS10, (1, -2))
        assert j.matrix == tuple(tuple(-x for x in row) for row in refl.matrix)

    def test_rejects_wrong_square(self):
        with pytest.raises(ValueError):
            lattices.reflection(NS10, H)  # (h,h) = 10
        with pytest.raises(ValueError):
            lattices.negated_reflection(NS10, DELTA)  # needs +2

    def test_negated_reflection_negates_complement(self):
        j = lattices.negated_reflection(NS10, (1, -2))
        for w in lattices.orthogonal_complement(NS10, (1, -2)):
            assert j.apply(w) == tuple(-x for x in w)


class TestOrthogonalComplement:
    def test_complement_of_delta_is_h(self):
        assert lattices.orthogonal_complement(NS10, DELTA) == [(1, 0)]

    def test_isotropic_self_orthogonal(self):
        # in U, (x . (1,0)) = x_2, so the kernel is Z(1,0)
        assert lattices.orthogonal_complement(U, (1, 0)) == [(1, 0)]

    def test_pi_complement_of_delta2(self):
        for n in (1, 2, 7):
            pi = catalog.epw_picard_lattice(n)
            (w,) = lattices.orthogonal_complement(pi, (0, 1))
            assert w in ((1, 2 * n + 2), (-1, -(2 * n + 2)))

    @pytest.mark.parametrize("lat,v,basis", [
        (lattices.direct_sum(U, Lattice(((0,),))), (0, 0, 1),
         [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (Lattice(((0, 0), (0, 0))), (1, 0), [(1, 0), (0, 1)]),
    ])
    def test_radical_vector_gives_standard_basis(self, lat, v, basis):
        # v pairs to zero with everything, so its complement is the lattice
        assert lattices.orthogonal_complement(lat, v) == basis

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            lattices.orthogonal_complement(U, (0, 0))


class TestInducedGram:
    def test_pi_from_rank3_ambient(self):
        ns3 = catalog.rank3_neron_severi(1)
        sub = lattices.induced_gram(ns3, [(0, 1, -2), (4, 0, -9)])
        assert sub.gram == ((2, 8), (8, -2))

    def test_standard_basis_is_identity(self):
        ns3 = catalog.rank3_neron_severi(2)
        basis = [ns3.basis_vector(i) for i in range(3)]
        assert lattices.induced_gram(ns3, basis).gram == ns3.gram

    def test_doubled_vector(self):
        # (2delta, 2delta) = 4 * (-2) = -8
        assert lattices.induced_gram(NS10, [(0, 2)]).gram == ((-8,),)

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            lattices.induced_gram(NS10, [(1, 1), (2, 2)])


class TestSaturation:
    def test_half_diagonal(self):
        # the diagonal class 2*delta saturates to Z delta
        assert lattices.saturation(NS10, [(0, 2)]) == [(0, 1)]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_gamma_delta2_span_is_saturated(self, n):
        # index-1 check by the discriminant-ratio test: equal discs mean
        # the span of {gamma, delta2} is already primitive in NS3(n)
        ns3 = catalog.rank3_neron_severi(n)
        basis = [(0, 1, -2), (4, 0, -9)]
        sat = lattices.saturation(ns3, basis)
        d_sat = lattices.discriminant(lattices.induced_gram(ns3, sat))
        d_in = lattices.discriminant(lattices.induced_gram(ns3, basis))
        assert lattices.sublattice_discriminant_test(d_in, d_sat)
        assert d_in == d_sat

    def test_whole_lattice(self):
        basis = [U.basis_vector(0), U.basis_vector(1)]
        sat = lattices.saturation(U, basis)
        assert intmat.row_hnf(sat) == intmat.row_hnf(basis)
        assert sat == [(1, 0), (0, 1)]

    def test_dependent_rejected(self):
        with pytest.raises(ValueError):
            lattices.saturation(U, [(1, 0), (2, 0)])


class TestPrimitivity:
    def test_gamma_primitive(self):
        assert lattices.is_primitive(NS10, (1, -2))

    def test_diagonal_not_primitive(self):
        assert not lattices.is_primitive(NS10, (0, 2))

    def test_unit_coordinate(self):
        assert lattices.is_primitive(NS10, (0, 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lattices.is_primitive(NS10, (0, 0))


class TestSublatticeDiscriminantTest:
    def test_obstruction_case(self):
        # -21 does not divide -20
        assert not lattices.sublattice_discriminant_test(-20, -21)

    def test_index_two(self):
        assert lattices.sublattice_discriminant_test(-80, -20)

    def test_index_one(self):
        assert lattices.sublattice_discriminant_test(-21, -21)

    def test_nonsquare_quotient(self):
        assert not lattices.sublattice_discriminant_test(-60, -20)

    def test_sign_flip(self):
        assert not lattices.sublattice_discriminant_test(20, -20)

    def test_zero_superlattice_rejected(self):
        with pytest.raises(ValueError):
            lattices.sublattice_discriminant_test(-20, 0)


class TestSumsAndTwists:
    def test_two_hyperbolic_planes(self):
        uu = lattices.direct_sum(U, U)
        assert uu.rank == 4
        assert lattices.discriminant(uu) == 1

    def test_rank_zero_identity(self):
        assert lattices.direct_sum(NS10, Lattice(())).gram == NS10.gram

    def test_empty_sum_is_rank_zero(self):
        assert lattices.direct_sum() == Lattice(())

    def test_three_parts_in_one_call(self):
        summed = lattices.direct_sum(U, NS10, catalog.rank_one(-2))
        assert summed.gram == ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 10, 0, 0),
                               (0, 0, 0, -2, 0), (0, 0, 0, 0, -2))
        assert summed == lattices.direct_sum(lattices.direct_sum(U, NS10),
                                             catalog.rank_one(-2))

    def test_e8_plus_u_signature(self):
        summed = lattices.direct_sum(catalog.e8(), U)
        assert summed.rank == 10
        assert lattices.signature(summed) == (9, 1, 0)

    def test_e8_twist(self):
        neg = lattices.rescale(catalog.e8(), -1)
        assert lattices.signature(neg) == (0, 8, 0)

    def test_rescale_by_one(self):
        assert lattices.rescale(NS10, 1).gram == NS10.gram

    def test_rank_one_rescale(self):
        assert lattices.rescale(catalog.rank_one(1), 2).gram == ((2,),)

    def test_rescale_zero_rejected(self):
        with pytest.raises(ValueError):
            lattices.rescale(U, 0)


class TestIsIsometry:
    def test_involution_matrix(self):
        # columns are the images of h and delta under the involution
        assert lattices.is_isometry(NS10, ((9, 4), (-20, -9)))

    def test_identity(self):
        assert lattices.is_isometry(NS10, ((1, 0), (0, 1)))

    def test_diagonal_scaling_rejected(self):
        # (2h, 2h) = 40 != 10
        assert not lattices.is_isometry(NS10, ((2, 0), (0, 1)))

    def test_zero_matrix_rejected(self):
        # singular: False, not an error
        assert not lattices.is_isometry(NS10, ((0, 0), (0, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lattices.is_isometry(NS10, ((1,),))

    @pytest.mark.parametrize("half", [0.5, Fraction(1, 2)], ids=["float", "Fraction"])
    def test_non_integer_entry_rejected(self, half):
        # diag(2, 1/2) preserves the form of U but does not map Z^2 to itself
        with pytest.raises(TypeError):
            lattices.is_isometry(U, [[2, 0], [0, half]])

    def test_bool_entries_accepted(self):
        # the swap of the two isotropic basis vectors of U
        assert lattices.is_isometry(U, [[False, True], [True, False]])
