import random
from fractions import Fraction

import pytest

from liecas.casimir_gen import xhat
from liecas.catalog import heisenberg_algebra
from liecas.cli import _METHOD_TRIALS
from liecas.enveloping import ad_images
from liecas.errors import MalformedInputError
from liecas.invariants import _is_prime, _prime, invariant_count
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
    bb = invariant_count(g, trials=3, seed=1729)
    assert bb.count == invariant_count(g, trials=5, seed=1729).count == 1
    assert bb.generic_rank == 80


def test_analytic_apply_so3():
    g = so3()
    # Xhat_1 = x3 d/dx2 - x2 d/dx3
    x1, x2, x3 = (xv(3, i) for i in range(3))
    images = ad_images(g, 0)
    assert xhat(x2, images) == x3
    assert xhat(x3, images) == -x2
    assert not xhat(x1, images)
    # d(x2 x3)/dx2 and the two letters of x2^2 each pass through once
    assert xhat(x2 * x3, images) == x3 * x3 - x2 * x2
    assert xhat(x2 * x2, images) == (x2 * x3).scale(2)


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
    assert is_invariant(g, z * z + CommPoly.monomial(3, (), 7))[0]
    assert not is_invariant(g, xv(3, 0))[0]


def test_invariant_count_bb():
    rep = invariant_count(so3(), trials=3, seed=3)
    assert rep.count == 1
    assert rep.generic_rank == 2
    # three points, as count --method bb samples
    assert rep == invariant_count(so3(), trials=_METHOD_TRIALS["bb"],
                                  seed=3)
    assert len(rep.witness_point) == 3
    rep_h = invariant_count(h1(), trials=3, seed=3)
    assert rep_h.count == 1 and rep_h.generic_rank == 2
    ab = LieAlgebra(["a", "b"], {}, levi=[])
    assert invariant_count(ab, trials=3, seed=3).count == 2


def test_invariant_count_bb1_agrees():
    for g in (so3(), h1()):
        bb = invariant_count(g, trials=3, seed=7)
        bb1 = invariant_count(g, trials=5, seed=7)
        assert bb.count == bb1.count
        # the first three points of five are the three of bb
        assert bb1.generic_rank >= bb.generic_rank
        assert bb1.generic_rank % 2 == 0
    with pytest.raises(MalformedInputError):
        invariant_count(so3(), trials=0, seed=1729)
    assert invariant_count(so3(), trials=1, seed=1729).count == 1


def test_invariant_count_deterministic():
    a = invariant_count(so3(), trials=3, seed=42)
    b = invariant_count(so3(), trials=3, seed=42)
    assert (a.count, a.witness_point) == (b.count, b.witness_point)


def test_miller_rabin_on_the_first_12_prime_bases():
    def by_division(n):
        return all(n % d for d in range(3, int(n ** 0.5) + 1, 2))
    odd = range(39, 40001, 2)
    assert [n for n in odd if _is_prime(n)] == [n for n in odd
                                                 if by_division(n)]
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 89 - 1)
    # strong pseudoprime to every prime base up to 31, caught by 37
    assert not _is_prime(3825123056546413051)
    # the least odd composite that all 12 bases pass, far above 2^61
    # (Sorenson and Webster, Math. Comp. 86, 2017)
    assert _is_prime(318665857834031151167461)


def test_each_trial_prime_is_an_odd_61_bit_prime_from_its_seed():
    primes = [_prime(random.Random("7:p")) for _ in range(2)]
    assert primes[0] == primes[1]
    rng = random.Random("7:p")
    drawn = [_prime(rng) for _ in range(20)]
    assert len(set(drawn)) == 20
    for p in drawn:
        assert p.bit_length() == 61 and p % 2 and _is_prime(p)


def test_functionally_independent():
    g = so3()
    x1, x2, x3 = (xv(3, i) for i in range(3))
    assert functionally_independent(g, [x1, x2, x3], seed=2)
    assert functionally_independent(g, [], seed=2)
    with pytest.raises(MalformedInputError):
        functionally_independent(g, [x1], trials=0)
    # x1^2 and x1^2 + 1 are dependent
    assert not functionally_independent(
        g, [x1 * x1, x1 * x1 + CommPoly.monomial(3, (), 1)], seed=2)
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
