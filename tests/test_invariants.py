from fractions import Fraction

import pytest

from liecas.casimir_gen import xhat
from liecas.catalog import heisenberg_algebra
from liecas.enveloping import ad_images
from liecas.errors import MalformedInputError
from liecas.invariants import invariant_count
from liecas.lie_core import LieAlgebra
from liecas.polynomial import CommPoly

from property_suites import (
    derivation_law,
    representation_property,
    roster,
    xhat_agreement,
)
from table_oracles import functionally_independent, is_invariant

F = Fraction


def so3():
    return LieAlgebra(
        ["e1", "e2", "e3"],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        levi=[0, 1, 2])


def h1():
    return LieAlgebra(["P", "Q", "Z"], {(0, 1): {2: 1}}, levi=[])


def xv(n, i):
    return CommPoly.monomial(n, (i,))


def test_bb_matches_bb1_beyond_the_variable_cap():
    # dim 81 exceeds polynomial.MAX_VARIABLES; bb reads the bracket table
    g = heisenberg_algebra(40)
    bb = invariant_count(g, method="bb")
    assert bb.count == invariant_count(g, method="bb1").count == 1
    assert bb.generic_rank == 80


def test_analytic_apply_so3():
    g = so3()
    # Xhat_1 = x3 d/dx2 - x2 d/dx3
    x1, x2, x3 = (xv(3, i) for i in range(3))
    images = ad_images(g, 0)
    assert xhat(g, x2, images) == x3
    assert xhat(g, x3, images) == -x2
    assert xhat(g, x1, images).is_zero()
    # d(x2 x3)/dx2 and the two letters of x2^2 each pass through once
    assert xhat(g, x2 * x3, images) == x3 * x3 - x2 * x2
    assert xhat(g, x2 * x2, images) == (x2 * x3).scale(2)


def test_so3_casimir_is_invariant():
    g = so3()
    x1, x2, x3 = (xv(3, i) for i in range(3))
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    ok, violations = is_invariant(g, r2)
    assert ok and violations == []
    ok2, violations2 = is_invariant(g, x1 * x1)
    assert not ok2
    # e2 and e3 both move x1^2
    assert [i for i, _r in violations2] == [1, 2]


def test_h1_center_is_invariant():
    g = h1()
    z = xv(3, 2)
    assert is_invariant(g, z)[0]
    assert is_invariant(g, z * z + CommPoly.constant(3, 7))[0]
    assert not is_invariant(g, xv(3, 0))[0]


def test_invariant_count_bb():
    rep = invariant_count(so3(), seed=3)
    assert rep.count == 1
    assert rep.generic_rank == 2
    assert rep.method == "bb"
    assert len(rep.witness_point) == 3
    rep_h = invariant_count(h1(), seed=3)
    assert rep_h.count == 1 and rep_h.generic_rank == 2
    ab = LieAlgebra(["a", "b"], {}, levi=[])
    assert invariant_count(ab, seed=3).count == 2


def test_invariant_count_bb1_agrees():
    for g in (so3(), h1()):
        bb = invariant_count(g, seed=7)
        bb1 = invariant_count(g, seed=7, method="bb1")
        assert bb.count == bb1.count
        assert bb1.method == "bb1"
        assert bb1.generic_rank % 2 == 0
    with pytest.raises(MalformedInputError):
        invariant_count(so3(), trials=0)
    assert invariant_count(so3(), trials=1).count == 1


def test_invariant_count_deterministic():
    a = invariant_count(so3(), seed=42)
    b = invariant_count(so3(), seed=42)
    assert (a.count, a.witness_point) == (b.count, b.witness_point)


def test_functionally_independent():
    g = so3()
    x1, x2, x3 = (xv(3, i) for i in range(3))
    assert functionally_independent(g, [x1, x2, x3], seed=2)
    assert functionally_independent(g, [], seed=2)
    with pytest.raises(MalformedInputError):
        functionally_independent(g, [x1], trials=0)
    # x1^2 and x1^2 + 1 are dependent
    assert not functionally_independent(
        g, [x1 * x1, x1 * x1 + CommPoly.constant(3, 1)], seed=2)
    # r^2 and its square are dependent
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    assert not functionally_independent(g, [r2, r2 * r2], seed=2)
    with pytest.raises(MalformedInputError):
        functionally_independent(g, [CommPoly.monomial(2, (0,))], seed=2)


def test_derivation_law_suite():
    assert derivation_law(roster(), seed=16, cases=40) == 40


def test_representation_property_suite():
    assert representation_property(roster(), seed=17, cases=40) == 40


def test_xhat_matches_the_partial_derivative_formula():
    assert xhat_agreement(seed=18, cases=200) == 200
