from fractions import Fraction

import pytest

from liecas.enveloping import (
    DEGREE_CAP,
    PBWElement,
    ad_images,
    derivation,
    emit_pbw,
    parse_pbw,
    symmetrize,
    u_mul,
)
from liecas.casimir_gen import build_so_matrix, char_poly_coefficients
from liecas.catalog import build, heisenberg_algebra, so_algebra
from liecas.errors import DegreeOverflowError, MalformedInputError
from liecas.lie_core import LieAlgebra, bracket_table
from liecas.polynomial import CommPoly

from property_suites import (
    derivation_agreement,
    normal_order_agreement,
    normal_order_footprint,
    pbw_associativity,
    random_poly,
    roster,
    symmetrize_agreement,
    ug_jacobi,
)
from table_oracles import pbw_normalize, symmetrize_arrangements, u_product

F = Fraction


def h1():
    # [P, Q] = Z
    return LieAlgebra(["P", "Q", "Z"], {(0, 1): {2: 1}}, levi=[])


def sl2():
    return LieAlgebra(
        ["H", "E", "F"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        levi=[0, 1, 2])


def test_sorted_words_pass_through():
    g = h1()
    e = pbw_normalize(g, (0, 0, 1, 2))
    assert e.terms == {(0, 0, 1, 2): F(1)}
    assert pbw_normalize(g, ()).terms == {(): F(1)}
    assert pbw_normalize(g, (0,), 0).is_zero()


def test_single_swap():
    g = h1()
    # Q P = P Q - Z
    e = pbw_normalize(g, (1, 0))
    assert e.terms == {(0, 1): F(1), (2,): F(-1)}


def test_nested_normalization():
    g = h1()
    # Q P Q = (PQ - Z) Q = P Q^2 - Q Z
    e = pbw_normalize(g, (1, 0, 1))
    assert e.terms == {(0, 1, 1): F(1), (1, 2): F(-1)}


def test_normalization_in_sl2():
    g = sl2()
    # E H = H E - 2 E
    e = pbw_normalize(g, (1, 0))
    assert e.terms == {(0, 1): F(1), (1,): F(-2)}
    # F E = E F - H
    e = pbw_normalize(g, (2, 1))
    assert e.terms == {(1, 2): F(1), (0,): F(-1)}


def test_u_mul_and_generator_commutator_matches_bracket():
    for g in (h1(), sl2()):
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = derivation(PBWElement.generator(g, j),
                                 ad_images(g, i))
                rhs = PBWElement.from_terms(
                    g, {(k,): c for k, c in g.bracket_basis(i, j).items()})
                assert lhs == rhs


def test_u_mul_fast_path_matches_general():
    g = sl2()
    a = pbw_normalize(g, (0, 1))
    b = pbw_normalize(g, (1, 2))
    # (HE)(EF): concatenation (0,1,1,2) is already ordered
    assert u_mul(a, b).terms[(0, 1, 1, 2)] == F(1)
    # compare against fully general route through from_terms
    direct = PBWElement.from_terms(g, {(0, 1, 1, 2): F(1)})
    assert u_mul(a, b) == direct


def test_u_product():
    g = h1()
    gens = [PBWElement.generator(g, i) for i in (1, 0)]
    assert u_product(g, gens) == pbw_normalize(g, (1, 0))
    assert u_product(g, []) == PBWElement.from_terms(g, {(): 1})


def test_degree_cap():
    g = h1()
    with pytest.raises(DegreeOverflowError):
        pbw_normalize(g, (0,) * (DEGREE_CAP + 1))
    half = pbw_normalize(g, (0,) * 7)
    with pytest.raises(DegreeOverflowError):
        u_mul(half, half)


# each letter of so(4) twice, in reverse basis order: without a memo the
# bracket terms make the bubbling exponential (about 72 s on a 2-vCPU host)
_SO4_REVERSED = (5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0)


def test_generator_commutator_takes_elements_at_the_degree_cap():
    # no term of [X_t, w] is longer than w, so the derivation takes an
    # element at the cap; the product X_t w still refuses it
    g = h1()
    b = pbw_normalize(g, (1,) * DEGREE_CAP) + PBWElement.generator(g, 2)
    for t in range(g.dim):
        x = PBWElement.generator(g, t).scale(3)
        for c, args in ((3, (x, b)), (-3, (b, x))):
            assert derivation(b, ad_images(g, t, c)).degree() <= DEGREE_CAP
            with pytest.raises(DegreeOverflowError) as caught:
                u_mul(*args)
            assert str(caught.value) == \
                "word of length 13 exceeds the degree cap 12"
    for n in (DEGREE_CAP - 1, DEGREE_CAP):
        assert derivation(pbw_normalize(g, (1,) * n), ad_images(g, 0)) == \
            pbw_normalize(g, (1,) * (n - 1) + (2,), n)
    top = pbw_normalize(so_algebra(4), _SO4_REVERSED)
    for t in range(6):
        images = ad_images(top.algebra, t)
        assert top.degree() == derivation(top, images).degree() == DEGREE_CAP
    # only the raw constructor builds a word past the cap; the derivation
    # checks every word it orders, as a product does
    over = PBWElement(g, {(1,) * (DEGREE_CAP + 1): F(1)})
    with pytest.raises(DegreeOverflowError):
        derivation(over, ad_images(g, 0))


def test_ad_images_are_the_bracket_rows():
    g = sl2()
    # [H, E] = 2E and [H, F] = -2F; H commutes with itself
    assert ad_images(g, 0) == {1: {(1,): 2}, 2: {(2,): -2}}
    assert ad_images(g, 0, F(-1, 2)) == {1: {(1,): -1}, 2: {(2,): 1}}
    # a derivation may map a letter to any element: D(X_y) = X_y X_y
    # doubles each word's letters one at a time
    e = pbw_normalize(g, (1, 2))
    assert derivation(e, {1: {(1, 1): 1}}) == pbw_normalize(g, (1, 1, 2))
    assert derivation(e, {}).is_zero()


def test_generator_commutator_matches_products():
    assert derivation_agreement(seed=13, cases=160) == 160


def test_normal_ordering_matches_bubbling():
    assert normal_order_agreement(seed=17, cases=400) == 400


def test_reversed_so4_word_is_normal_ordered_through_the_memo():
    g = so_algebra(4)
    calls, retained = normal_order_footprint(
        lambda: pbw_normalize(g, _SO4_REVERSED))
    assert calls < 20000
    assert retained < 64 * 1024


def test_scale_and_linear_ops():
    g = h1()
    x = PBWElement.generator(g, 0)
    y = PBWElement.generator(g, 1)
    e = x.scale(2) - y.scale(F(1, 3))
    assert e.terms == {(0,): F(2), (1,): F(-1, 3)}
    assert (e - e).is_zero()
    assert (-e).terms[(0,)] == F(-2)
    assert e.degree() == 1 and PBWElement(g).degree() == -1
    assert e.support() == {0, 1}


def test_commutative_image():
    g = h1()
    e = pbw_normalize(g, (1, 0))  # PQ - Z
    img = e.commutative_image()
    x = CommPoly.monomial(3, (0,))
    y = CommPoly.monomial(3, (1,))
    z = CommPoly.monomial(3, (2,))
    assert img == x * y - z


def test_symmetrize_degree_two():
    g = h1()
    xp = CommPoly.monomial(3, (0,))
    xq = CommPoly.monomial(3, (1,))
    # Sym(x_P x_Q) = (PQ + QP)/2 = PQ - Z/2
    e = symmetrize(g, xp * xq)
    assert e.terms == {(0, 1): F(1), (2,): F(-1, 2)}
    assert symmetrize(g, xp) == PBWElement.generator(g, 0)
    assert (symmetrize(g, CommPoly.constant(3, 5))
            == PBWElement.from_terms(g, {(): 5}))
    assert symmetrize(g, CommPoly(3)).is_zero()


def entangled_nilpotent():
    # [a, b] = k1 + k2, [k1, c] = z, [k2, c] = -z (Jacobi holds since
    # [[a, b], c] = 0).  c commutes with a and b but not with k1 or k2,
    # the bracket letters of their average; as k1 < c < k2, a sorted
    # merge of c into Sym(ab) = ab - (k1 + k2)/2 would be off by z/2
    return LieAlgebra(["a", "b", "k1", "c", "k2", "z"],
                      {(0, 1): {2: 1, 4: 1}, (2, 3): {5: 1},
                       (3, 4): {5: 1}}, levi=[])


def test_symmetrize_matches_brute_force_average():
    # the memoized, group-merged average must agree with the raw
    # average over all distinct orderings
    rosters = roster()
    import random
    rng = random.Random(20)
    for t in range(25):
        g = rosters[t % len(rosters)]
        p = random_poly(g.dim, rng, max_deg=4, max_terms=2)
        assert symmetrize(g, p) == symmetrize_arrangements(g, p)
    # every word of degree <= 4 at once: the words share letter groups and
    # sub-multisets, so one call reuses its averages
    for g in rosters:
        q = CommPoly.constant(g.dim, 1)
        for i in range(g.dim):
            q = q + CommPoly.monomial(g.dim, (i,)).scale(i + 2)
        p = q * q * q * q
        assert symmetrize(g, p) == symmetrize_arrangements(g, p)
    # groups whose averages do not commute: the merge must multiply
    g = entangled_nilpotent()
    x = [CommPoly.monomial(g.dim, (i,)) for i in range(g.dim)]
    a, b, k1, c, k2, z = x
    for p in (a * b * c, a * b * c * c + a * a * b * c * z,
              (a + c) * (b + c) * (k1 + k2) * c, a * b * c * k1 * k2):
        assert symmetrize(g, p) == symmetrize_arrangements(g, p)
    # every char-poly Casimir of degree at most 6 on the smallest families
    for name in ("Ha", "IHa"):
        algebra, spec = build(name, 3)
        coefficients = char_poly_coefficients(
            *build_so_matrix(algebra, spec), algebra.dim)
        for poly in coefficients.values():
            assert poly.degree() <= 6
            assert symmetrize(algebra, poly) == \
                symmetrize_arrangements(algebra, poly)


# [b, c] = x1 + x2 commutes with a and with d, but x1 and x2 alone do not
_FREE_LETTER_RELATIONS = [
    ("b", "c", "x1", 1), ("b", "c", "x2", 1), ("a", "x1", "y", 1),
    ("a", "x2", "y", -1), ("d", "x1", "w", 1), ("d", "x2", "w", -1),
    ("d", "e", "z", 1)]


@pytest.mark.parametrize("names", [
    ["a", "b", "c", "d", "e", "x1", "x2", "y", "w", "z"],
    ["b", "y", "a", "x2", "d", "x1", "w", "c", "z", "e"],
    ["z", "a", "y", "b", "x1", "d", "e", "c", "w", "x2"],
    ["w", "x1", "b", "d", "z", "e", "a", "x2", "y", "c"]])
def test_symmetrize_multiplies_out_parts_whose_letters_meet(names):
    # in the word a b c d e, a is free and {b, c}, {d, e} are the groups;
    # the sum over {b, c} holds x1 and x2, which fail to commute with a and
    # with d, so a times it is multiplied out, and so is that product
    # times the sum over {d, e}, in every basis order
    ix = {m: t for t, m in enumerate(names)}
    g = LieAlgebra(names, bracket_table(
        (ix[p], ix[q], ((ix[k], c),)) for p, q, k, c in _FREE_LETTER_RELATIONS),
        levi=[])
    assert g.validate().ok
    p = CommPoly.monomial(g.dim, tuple(sorted(ix[m] for m in "abcde")))
    assert symmetrize(g, p) == symmetrize_arrangements(g, p)


def test_symmetrize_matches_its_definition():
    assert symmetrize_agreement(seed=23, cases=300) == 300


def test_symmetrize_footprint_on_iha4_c4():
    # every product of one symmetrize call goes through one memo: 11,394
    # _normal_word calls, against 18,835 with a memo per product
    algebra, spec = build("IHa", 4)
    c4 = char_poly_coefficients(*build_so_matrix(algebra, spec),
                                algebra.dim)[2]
    calls, retained = normal_order_footprint(lambda: symmetrize(algebra, c4))
    assert calls < 14000
    assert retained < 64 * 1024


def test_symmetrize_leading_part_is_identity():
    # commutative image of Sym(p) is p plus lower-degree corrections
    g = sl2()
    x0 = CommPoly.monomial(3, (0,))
    x1 = CommPoly.monomial(3, (1,))
    x2 = CommPoly.monomial(3, (2,))
    p = x0 * x1 * x2
    img = symmetrize(g, p).commutative_image()
    top = CommPoly(3, {w: c for w, c in img.terms.items() if len(w) == 3})
    assert top == p


def test_round_trip_beyond_sixty_four_variables():
    # heisenberg(40) has 81 generators; P_1, P_40 and Z (x_80) commute, so
    # symmetrizing their monomial adds no lower-order terms
    g = heisenberg_algebra(40)
    p = CommPoly.monomial(g.dim, (80, 0, 39, 0), F(3, 2))
    assert p.terms == {(0, 0, 39, 80): F(3, 2)}
    assert symmetrize(g, p).commutative_image() == p


def test_render_words():
    g = h1()
    e = (pbw_normalize(g, (0, 0, 1)).scale(2)
         - PBWElement.from_terms(g, {(): F(1, 2)}))
    assert e.render() == "2*P^2*Q - 1/2"
    assert e.render(latex=True) == "2 P^{2} Q - \\frac{1}{2}"
    assert PBWElement(g).render() == "0"


def test_json_round_trip_normalizes():
    g = h1()
    doc = [{"word": ["Q", "P"], "coeff": "1"}]
    e = parse_pbw(g, doc)
    assert e.terms == {(0, 1): F(1), (2,): F(-1)}
    emitted = emit_pbw(e)
    assert emitted == [
        {"word": ["P", "Q"], "coeff": "1"},
        {"word": ["Z"], "coeff": "-1"},
    ]
    assert parse_pbw(g, emitted) == e
    with pytest.raises(MalformedInputError):
        parse_pbw(g, [{"word": ["nope"], "coeff": "1"}])
    with pytest.raises(MalformedInputError):
        parse_pbw(g, [{"word": ["P"], "coeff": "1/0"}])
    with pytest.raises(MalformedInputError):
        parse_pbw(g, {"word": ["P"], "coeff": "1"})
    with pytest.raises(MalformedInputError, match="inexact coefficient 0.5"):
        parse_pbw(g, [{"word": ["P"], "coeff": 0.5}])
    with pytest.raises(MalformedInputError, match="bad rational True"):
        parse_pbw(g, [{"word": ["P"], "coeff": True}])


def test_associativity_suite():
    assert pbw_associativity(roster(), seed=11, cases=40) == 40


def test_ug_jacobi_suite():
    assert ug_jacobi(roster(), seed=12, cases=40) == 40
