import re
from fractions import Fraction

import pytest

from liecas.enveloping import PBWElement
from liecas.errors import MalformedInputError
from liecas.exterior import ExteriorElement
from liecas.lie_core import LieAlgebra
from liecas.polynomial import CommPoly
from liecas.sparse import accumulate

F = Fraction


def so3():
    return LieAlgebra(
        ["e1", "e2", "e3"],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        levi=[0, 1, 2])


def _poly():
    return (CommPoly(3, {(0, 2, 2): F(2, 3), (1,): -1}),
            CommPoly(2, {(0,): 1}),
            "polynomials live in different variable universes (3 vs 2)")


def _pbw():
    g = so3()
    return (PBWElement.from_terms(g, {(1, 0): F(1, 2), (2,): -3}),
            PBWElement.generator(so3(), 0),
            "elements live in different algebras")


def _form():
    return (ExteriorElement(4, {(0, 1): 2, (2,): F(-1, 5)}),
            ExteriorElement(3, {(0,): 1}),
            "forms over different spaces")


TERM_CLASSES = {"CommPoly": _poly, "PBWElement": _pbw,
                "ExteriorElement": _form}


@pytest.mark.parametrize("kind", sorted(TERM_CLASSES))
def test_cancellation_stores_no_zero_coefficient(kind):
    a, _other, _message = TERM_CLASSES[kind]()
    for zero in (a + (-a), a - a, a.scale(0), a + a.scale(-1)):
        assert zero.terms == {}
        assert zero.is_zero() and not zero
        assert zero == a.scale(0)
    doubled = a + a
    assert doubled == a.scale(2) and doubled != a
    assert all(doubled.terms.values())
    assert type(doubled) is type(a)


@pytest.mark.parametrize("kind", sorted(TERM_CLASSES))
def test_universe_mismatch_keeps_its_message(kind):
    a, other, message = TERM_CLASSES[kind]()
    for op in (lambda: a + other, lambda: a - other):
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            op()
    assert a != other


def test_accumulate_scales_and_drops_cancelled_keys():
    terms = {"x": F(1), "y": F(2)}
    accumulate(terms, [("x", F(1, 2)), ("z", F(0)), ("w", F(3))], -2)
    assert terms == {"y": F(2), "w": F(-6)}
    accumulate(terms, {"w": F(6), "v": F(1)}.items())
    assert terms == {"y": F(2), "v": F(1)}
