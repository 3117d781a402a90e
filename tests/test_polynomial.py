import random
from fractions import Fraction
from math import prod

import pytest

from liecas.errors import MalformedInputError
from liecas.polynomial import CommPoly
from property_suites import random_poly
from table_oracles import evaluate, partial

F = Fraction


def xvar(i, n=3):
    return CommPoly.monomial(n, (i,))


def test_zero_and_constant():
    z = CommPoly(3)
    assert not z
    assert not z
    one = CommPoly.monomial(3, (), 1)
    assert one
    assert evaluate(one, (5, 6, 7)) == 1
    assert not CommPoly.monomial(3, (), 0)


def test_addition_cancels():
    x = xvar(0)
    assert not (x - x)
    p = x.scale(2) + xvar(1)
    q = x.scale(-2)
    assert (p + q) == xvar(1)


def test_product_expands():
    x, y = xvar(0), xvar(1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert evaluate(p, (3, 2, 0)) == 5


def test_scalar_arithmetic():
    x = xvar(0)
    three = CommPoly.monomial(3, (), 3)
    p = x.scale(F(1, 2)) + three
    assert evaluate(p, (4, 0, 0)) == 5
    assert (p - three).scale(2) == x


def test_partial_derivative():
    x, y, z = xvar(0), xvar(1), xvar(2)
    p = x * x * y + z.scale(2)
    assert partial(p, 0) == (x * y).scale(2)
    assert partial(p, 1) == x * x
    assert partial(p, 2) == CommPoly.monomial(3, (), 2)
    assert not partial(partial(p, 1), 2)


def test_eval_is_exact():
    x, y = xvar(0), xvar(1)
    p = (x * y).scale(F(1, 3)) - CommPoly.monomial(3, (), F(2, 7))
    assert evaluate(p, (F(3, 5), 7, 0)) == F(7, 5) - F(2, 7)
    # the value follows sparse.exact: a Fraction when it is not integral,
    # else an int, also when fractional terms sum to an integer
    value = evaluate(p, (3, 7, 0))
    assert value == 7 - F(2, 7) and type(value) is F
    assert type(evaluate(CommPoly(3), (1, 2, 3))) is int
    whole = evaluate((x * y).scale(3), (F(1, 3), 2, 0))
    assert whole == 2 and type(whole) is int


def test_graded_lex_monomial_order():
    x, y, z = xvar(0), xvar(1), xvar(2)
    p = x + y * z + x * x * x + z
    words = [w for w, _c in p.monomials()]
    # degree first, then lexicographic on exponent tuples, which within one
    # degree is ascending order on the sorted words
    assert words == [(0, 0, 0), (1, 2), (0,), (2,)]
    assert p.monomials()[0][0] == (0, 0, 0)


def test_degree_and_homogeneity():
    x, y = xvar(0), xvar(1)
    assert CommPoly(3).degree() == -1
    assert (x * y + x * x).degree() == 2


def test_monomial_sorts_its_word():
    assert CommPoly(3, {(0, 2, 2): 1}) == CommPoly.monomial(3, (2, 0, 2))
    assert not CommPoly.monomial(3, (2, 0), 0)
    assert CommPoly.monomial(3, (1,), F(4, 2)).terms == {(1,): 2}
    with pytest.raises(MalformedInputError, match="inexact coefficient"):
        CommPoly.monomial(3, (1,), 0.5)


def _dense(p):
    return {tuple(w.count(t) for t in range(p.nvars)): c
            for w, c in p.terms.items()}


def test_word_keys_match_a_dense_exponent_reference():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 4)
        p, q = random_poly(n, rng), random_poly(n, rng)
        dp, i = _dense(p), rng.randrange(n)
        product = {}
        for e1, c1 in dp.items():
            for e2, c2 in _dense(q).items():
                e = tuple(a + b for a, b in zip(e1, e2))
                product[e] = product.get(e, 0) + c1 * c2
        assert _dense(p * q) == {e: c for e, c in product.items() if c}
        assert _dense(partial(p, i)) == {e[:i] + (e[i] - 1,) + e[i + 1:]:
                                        c * e[i] for e, c in dp.items() if e[i]}
        point = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        assert evaluate(p, point) == sum(
            c * prod(x ** k for x, k in zip(point, e)) for e, c in dp.items())
        assert ([tuple(w.count(t) for t in range(n)) for w, _ in p.monomials()]
                == sorted(dp, key=lambda e: (sum(e), e), reverse=True))


def test_render():
    x, y = xvar(0), xvar(1)
    names = ["a", "b", "c"]
    assert CommPoly(3).render(names) == "0"
    assert (x * x - y.scale(2)).render(names) == "x_{a}^2 - 2*x_{b}"
    assert x.scale(F(1, 2)).render(names, latex=True) == "\\frac{1}{2} x_{a}"

