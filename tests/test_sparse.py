from fractions import Fraction

import pytest

from liecas.casimir_gen import casimir_set
from liecas.catalog import FAMILIES, boson_algebra, build
from liecas.enveloping import PBWElement
from liecas.errors import MalformedInputError, NotApplicableError
from liecas.lie_core import LieAlgebra, algebra_from_json
from liecas.polynomial import CommPoly
from liecas.sparse import accumulate, exact

from table_oracles import ExteriorElement

F = Fraction


def so3():
    return LieAlgebra(
        ["e1", "e2", "e3"],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        levi=[0, 1, 2])


# (an element, one over another universe with the same terms)
def _poly():
    return (CommPoly(3, {(0, 2, 2): F(2, 3), (1,): -1}),
            CommPoly(2, {(0, 2, 2): F(2, 3), (1,): -1}))


def _pbw():
    g = so3()
    a = PBWElement.from_terms(g, {(1, 0): F(1, 2), (2,): -3})
    return a, PBWElement(so3(), dict(a.terms))


def _form():
    return (ExteriorElement(4, {(0, 1): 2, (2,): F(-1, 5)}),
            ExteriorElement(3, {(0, 1): 2, (2,): F(-1, 5)}))


TERM_CLASSES = {"CommPoly": _poly, "PBWElement": _pbw,
                "ExteriorElement": _form}


@pytest.mark.parametrize("kind", sorted(TERM_CLASSES))
def test_cancellation_stores_no_zero_coefficient(kind):
    a, _other = TERM_CLASSES[kind]()
    for zero in (a + (-a), a - a, a.scale(0), a + a.scale(-1)):
        assert zero.terms == {}
        assert zero.is_zero() and not zero
        assert zero == a.scale(0)
    doubled = a + a
    assert doubled == a.scale(2) and doubled != a
    assert all(doubled.terms.values())
    assert type(doubled) is type(a)


@pytest.mark.parametrize("kind", sorted(TERM_CLASSES))
def test_terms_over_another_universe_are_unequal(kind):
    # == compares the universe first; + and - take one universe, which
    # every caller in the package keeps
    a, other = TERM_CLASSES[kind]()
    assert a.terms == other.terms
    assert a != other and other != a


def test_accumulate_scales_and_drops_cancelled_keys():
    terms = {"x": F(1), "y": F(2)}
    accumulate(terms, [("x", F(1, 2)), ("z", F(0)), ("w", F(3))], -2)
    assert terms == {"y": F(2), "w": F(-6)}
    accumulate(terms, {"w": F(6), "v": F(1)}.items())
    assert terms == {"y": F(2), "v": F(1)}


def test_accumulate_stores_an_integral_coefficient_as_an_int():
    terms = {"x": F(1, 2)}
    accumulate(terms, [("x", F(3, 8)), ("y", F(3, 4))], F(4, 3))
    assert terms == {"x": 1, "y": 1}
    assert all(type(c) is int for c in terms.values())
    accumulate(terms, [("x", F(1, 3))])
    assert terms == {"x": F(4, 3), "y": 1}


def test_exact_keeps_ints_and_proper_fractions():
    for given, want in ((3, 3), (F(6, 2), 3), ("-4/2", -2), (True, 1),
                        (F(6, 4), F(3, 2)), ("1/3", F(1, 3))):
        got = exact(given)
        assert got == want and type(got) is type(want)


def test_what_is_not_a_rational_is_refused():
    for build_one in (lambda: exact("x"), lambda: exact("1/0"),
                      lambda: exact(None),
                      lambda: build("boson_example", alpha="x")):
        with pytest.raises(MalformedInputError, match="bad rational"):
            build_one()


def test_a_float_coefficient_is_refused():
    for build_one in (lambda: PBWElement.generator(so3(), 0).scale(0.1),
                      lambda: CommPoly.constant(2, 0.5),
                      lambda: CommPoly.constant(2, 1).scale(0.5),
                      lambda: algebra_from_json({
                          "names": ["a", "b"], "levi": [],
                          "radical": ["a", "b"], "brackets": [
                              {"i": "a", "j": "b",
                               "terms": [{"k": "a", "c": 0.5}]}]}),
                      lambda: PBWElement.from_terms(so3(), {(1, 0): 0.5}),
                      lambda: build("boson_example", alpha=0.1),
                      lambda: boson_algebra(0.5)):
        with pytest.raises(MalformedInputError, match="inexact coefficient"):
            build_one()


def _canonical(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@pytest.mark.parametrize("name", sorted(
    name for name, family in FAMILIES.items() if family.dressed))
def test_every_stored_coefficient_is_canonical(name):
    """An integral coefficient is stored as an int and any other as a
    Fraction with denominator above 1, from the bracket rows through the
    unit, the generators, f and P to the char-poly coefficients C_2l and
    their symmetrizations."""
    algebra, spec = build(name, FAMILIES[name].least)
    stores = list(algebra.brackets.values())
    stores += [PBWElement.from_terms(algebra, {(): 1}).terms]
    stores += [PBWElement.generator(algebra, t).terms
               for t in range(algebra.dim)]
    stores += [spec.f.terms] + [p.terms for p in spec.P.values()]
    try:
        casimirs = casimir_set(algebra, spec)
    except NotApplicableError:
        casimirs = None    # no rotation block, no char-poly
    else:
        stores += [c.terms for c in casimirs.coefficients.values()]
        stores += [s.terms for s in casimirs.symmetrized.values()]
    bad = [c for terms in stores for c in terms.values() if not _canonical(c)]
    assert not bad, "%d coefficients out of canonical form, e.g. %r" % (
        len(bad), bad[0])
    if name in ("Ha", "IHa", "QHa"):
        assert casimirs is not None
