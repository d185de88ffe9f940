"""Catalog constructors: Gram data, derived reports, identifier parsing."""

import pytest

from epwlat import catalog, lattices


def test_lambda2_gram():
    assert catalog.build("LAMBDA2").gram == ((2, 0), (0, 2))


def test_r_n_gram():
    assert catalog.build("R(1)").gram == ((10, 11), (11, 10))
    assert catalog.build("R(7)").gram == ((10, 17), (17, 10))


def test_pi_gram_matches_induced_computation():
    for n in (1, 2, 5):
        built = catalog.build(f"PI({n})")
        ambient = catalog.rank3_neron_severi(n)
        induced = lattices.induced_gram(
            ambient, [catalog.GAMMA_COORDS, catalog.DELTA2_COORDS]
        )
        assert built.gram == induced.gram == (
            (2, 4 * n + 4), (4 * n + 4, -2)
        )


_REPORTED = [n for n in catalog.names() if "(" not in n] + [
    "NS_HILB(10)", "R(3)", "NS3(2)", "PI(2)"]


@pytest.mark.parametrize("catalog_id", _REPORTED)
def test_report_of_is_discriminant_and_signature(catalog_id):
    lat = catalog.build(catalog_id)
    rep = catalog.report_of(lat)
    assert (rep.discriminant, rep.signature) == (
        lattices.discriminant(lat), lattices.signature(lat))


def test_lambda0_report():
    rep = catalog.report("LAMBDA0")
    assert rep.rank == 22
    assert rep.signature == (20, 2, 0)
    assert rep.even


def test_k3_report():
    rep = catalog.report("K3")
    assert (rep.rank, rep.signature, rep.even, rep.discriminant) == (
        22, (3, 19, 0), True, -1
    )


def test_i22_2_report():
    rep = catalog.report("I22_2")
    assert rep.rank == 24
    assert rep.signature == (22, 2, 0)
    assert not rep.even
    assert rep.discriminant == 1


def test_rank_one():
    rep = catalog.report("A1(-2)")
    assert (rep.rank, rep.discriminant, rep.even) == (1, -2, True)


def test_e8_is_even_unimodular_definite():
    rep = catalog.report("E8")
    assert (rep.discriminant, rep.signature, rep.even) == (1, (8, 0, 0), True)


@pytest.mark.parametrize("n", range(1, 201))
def test_family_lattice_discriminants(n):
    # closed forms for the catalog discriminants, exactly
    assert lattices.discriminant(catalog.build(f"PI({n})")) == -2 * (
        8 * n * n + 16 * n + 10
    )
    assert lattices.discriminant(catalog.build(f"R({n})")) == -n * (n + 20)


@pytest.mark.parametrize("d", [2, 4, 10, 34, 74, 200])
def test_ns_hilb_even_hyperbolic(d):
    lat = catalog.build(f"NS_HILB({d})")
    assert lattices.is_even(lat)
    assert lattices.signature(lat) == (1, 1, 0)


def test_build_is_deterministic():
    assert catalog.build("NS3(4)").gram == catalog.build("NS3(4)").gram


@pytest.mark.parametrize("bad", [
    "NS_HILB(9)",    # odd degree
    "NS_HILB(0)",
    "R(0)",
    "PI(-1)",
    "A1(0)",
    "U(2)",          # U takes no parameter
    "R",             # R needs one
    "NSHILB(10)",
    "R(1); drop",    # junk
])
def test_invalid_identifiers_rejected(bad):
    with pytest.raises(ValueError):
        catalog.build(bad)


def test_names_lists_everything():
    names = catalog.names()
    assert "U" in names and "LAMBDA0" in names
    assert any(n.startswith("NS_HILB") for n in names)
