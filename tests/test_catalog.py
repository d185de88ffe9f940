"""Catalog constructors: Gram data, derived reports, identifier parsing."""

import hashlib
import json

import pytest

from epwlat import catalog, errors, lattices


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


# sha256 of json.dumps(gram), pinned while these lattices were still built
# by folding the two-part direct sum; the n-ary sum must give the same Grams
GRAM_SHA256 = {
    "K3": "1e35ca749f5a4b8964403529ecc1e82df19d8be49d11ffa72c284b06653aaad4",
    "LAMBDA0": "cbb17e3318e95e2516ab8ea1953c073329e566339b75a3de944c1fca8cca824a",
    "I22_2": "72aed0fde90de1c0e5f0ac403d817cefd8f738643d0ea1529a793cc5830bc740",
}


@pytest.mark.parametrize("catalog_id", GRAM_SHA256)
def test_composite_gram_pinned(catalog_id):
    gram = catalog.build(catalog_id).gram
    assert hashlib.sha256(json.dumps(gram).encode()).hexdigest() == GRAM_SHA256[catalog_id]


def test_report_is_a_plain_record():
    rep = catalog.report("K3")
    assert rep == (22, -1, (3, 19, 0), True)
    rank, disc, signature, even = rep
    assert (rank, disc, signature, even) == (rep.rank, rep.discriminant, rep.signature, rep.even)
    with pytest.raises(AttributeError):
        rep.rank = 23


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


# the text between the parentheses is read as errors.read_int reads an
# option: an optional sign, ASCII digits, ASCII whitespace around them
@pytest.mark.parametrize("catalog_id", ["NS_HILB(+10)", "NS_HILB( +10 )", "NS_HILB(\t10\n)"],
                         ids=["plus", "plus-spaced", "tab-newline"])
def test_parameter_read_as_an_option_is(catalog_id):
    assert catalog.build(catalog_id) == catalog.build("NS_HILB(10)")


@pytest.mark.parametrize("catalog_id", ["NS_HILB(\xa010)", "NS_HILB(1 0)", "NS_HILB(1_0)",
                                        "NS_HILB(\u0665)", "A1()"],
                         ids=["nbsp", "inner-space", "underscore", "arabic-indic-5", "empty"])
def test_parameter_refused_in_read_ints_words(catalog_id):
    text = catalog_id[catalog_id.index("(") + 1:-1]
    with pytest.raises(ValueError) as refused:
        errors.read_int(text)
    with pytest.raises(ValueError) as built:
        catalog.build(catalog_id)
    assert str(built.value) == str(refused.value) == f"invalid int value: {text!r}"


def test_only_ascii_whitespace_around_the_name():
    with pytest.raises(ValueError) as built:
        catalog.build("\u2003K3")
    assert str(built.value) == "malformed catalog identifier: '\\u2003K3'"
    assert catalog.build(" K3 ") == catalog.build("K3")


def test_names_lists_everything():
    names = catalog.names()
    assert "U" in names and "LAMBDA0" in names
    assert any(n.startswith("NS_HILB") for n in names)
