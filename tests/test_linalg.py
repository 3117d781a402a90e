from fractions import Fraction

from liecas.linalg import P, rank

from property_suites import (catalog_algebras, rank_agreement,
                             structure_rank_agreement)
from table_oracles import alternating_from_upper, rank_bareiss


def test_rank_matches_fraction_elimination():
    assert rank_agreement(seed=21, cases=200) == 200


def test_rank_leaves_mixed_int_and_fraction_rows_unchanged():
    upper = {(0, 1): Fraction(1, 2), (0, 2): 3, (1, 2): Fraction(2, 3),
             (2, 3): 1}
    before = dict(upper)
    assert rank(upper) == 4
    assert upper == before
    assert [type(v) for v in upper.values()] \
        == [type(v) for v in before.values()]


def test_rank_scales_mixed_denominators_by_one_lcm():
    upper = {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 3),
             (1, 2): Fraction(1, 5), (2, 3): Fraction(7, 6)}
    want = rank_bareiss(alternating_from_upper(upper, 4))
    assert want == 4
    assert rank(upper) == want
    # Pfaffian a_01 a_23 - a_02 a_13 = 1/3 - 1/3 = 0, so rank 2; on the
    # numerators alone it would be 2 - 1 = 1, and the rank would read 4
    singular = {(0, 1): Fraction(1, 2), (2, 3): Fraction(2, 3),
                (0, 2): Fraction(1, 3), (1, 3): 1}
    assert rank_bareiss(alternating_from_upper(singular, 4)) == 2
    assert rank(singular) == 2


def test_entries_that_p_divides_only_lower_the_rank():
    # 1/P scales to 1, and P itself reduces to 0: at most the rank over Q
    assert rank({(0, 1): Fraction(1, P)}) == 2
    assert rank({(0, 1): P}) == 0
    # the one global scale then holds the factor P, which zeroes the
    # entries that P does not divide: rank 2 mod p against 4 over Q
    assert rank({(0, 1): Fraction(1, P), (2, 3): 1}) == 2


def test_structure_ranks_match_bareiss():
    algebras = catalog_algebras()
    assert structure_rank_agreement(algebras, seed=14, points=3) \
        == 3 * len(algebras)
