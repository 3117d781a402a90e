"""The engine against the hand-transcribed bracket tables.

Every row of the quadratic table must be reproduced by the engine's
bracket (table_oracles.engine_bracket) on the full extension and on its
reductions, letter-dropping included; the
rows whose printed text is defective must disagree in exactly the known
places, and nowhere else.
"""

from fractions import Fraction

import pytest

from liecas.catalog import boson_algebra, build
from liecas.enveloping import PBWElement, ad_images, derivation

from table_oracles import (
    DEFECT_LABELS_BARE,
    DEFECT_LABELS_FULL,
    QUADRATIC_ROWS,
    boson_table,
    engine_bracket,
    environments,
    instantiate,
    pbw_normalize,
    printed_defect_labels,
    rhs_terms,
)

FULL_SWEEPS = [("QHa", 3), ("QHa", 4), ("IHa", 3), ("IHa", 4)]
EXTENSION_SWEEPS = [("IHa_L", 3), ("IHa_M", 3), ("IHa_A", 3),
                    ("IHa_AM", 3), ("IHa_AL", 3), ("IHa_LM", 3)]


def _algebra(family, N):
    algebra, _ = build(family, N)
    return algebra


@pytest.mark.parametrize("family,N", FULL_SWEEPS + EXTENSION_SWEEPS)
def test_quadratic_table_rows_match_engine(family, N):
    algebra = _algebra(family, N)
    for row in QUADRATIC_ROWS:
        label, lhs = row[0], row[1]
        terms = rhs_terms(row)
        for env in environments(N, lhs[0]):
            want = instantiate(algebra, terms, env)
            assert want is not None, label
            got = engine_bracket(algebra, lhs, env)
            assert got == want, (family, N, label, env)


def test_printed_defects_full_extension():
    algebra = _algebra("QHa", 3)
    assert printed_defect_labels(algebra, 3) == set(DEFECT_LABELS_FULL)


def test_printed_defects_bare_reduction():
    # two defects live entirely in dropped letters: the missing A-term
    # vanishes with A, and the row with the unbound index reduces to 0=0
    algebra = _algebra("IHa", 3)
    assert printed_defect_labels(algebra, 3) == set(DEFECT_LABELS_BARE)


def test_misfiled_row_is_the_neighboring_bracket():
    # what the defective QF,PQ row actually expands is [Q_iF_j, P_kG_l]
    algebra = _algebra("QHa", 3)
    printed = next(row[2] for row in QUADRATIC_ROWS if row[0] == "QF,PQ")
    neighbor = ("QQ", "Q", "F", "P", "G")
    for env in environments(3, "QQ"):
        want = instantiate(algebra, printed, env)
        assert want is not None
        assert engine_bracket(algebra, neighbor, env) == want, env


@pytest.mark.parametrize("family", ["IHa", "QHa", "IHa_L", "IHa_M", "IHa_A",
                                    "IHa_AM", "IHa_AL", "IHa_LM"])
def test_central_quadratic_commutes_with_e(family):
    # [T^2 + RL, E] = 0, the RL word present only when L is
    algebra = _algebra(family, 3)
    ix = algebra.name_index
    elem = pbw_normalize(algebra, [ix["T"], ix["T"]])
    if "L" in ix:
        elem = elem + pbw_normalize(algebra, [ix["R"], ix["L"]])
    assert derivation(elem, ad_images(algebra, ix["E"], -1)).is_zero()


@pytest.mark.parametrize("alpha", [0, 1])
def test_boson_table(alpha):
    algebra = boson_algebra(Fraction(alpha))
    table = boson_table(Fraction(alpha))
    names = algebra.names
    seen = set()
    for s, a in enumerate(names):
        for b in names[s + 1:]:
            rhs = table.get((a, b), {})
            if (a, b) in table:
                seen.add((a, b))
            want = PBWElement(algebra)
            for m, c in rhs.items():
                want = want + PBWElement.generator(algebra, m).scale(c)
            got = derivation(PBWElement.generator(algebra, b),
                             ad_images(algebra, algebra.index(a)))
            assert got == want, (alpha, a, b)
    assert seen == set(table)
