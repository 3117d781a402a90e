import os
import subprocess
import sys
from fractions import Fraction

import pytest

import liecas
from liecas.errors import MalformedInputError
from liecas.linalg import P, rank

from property_suites import (catalog_algebras, rank_agreement,
                             structure_rank_agreement)


def test_ragged_rank_rejected():
    with pytest.raises(MalformedInputError):
        rank([[1, 2], [3]])


def test_ragged_rank_rejected_under_optimize():
    # the check must not be an assert, which python -O strips
    src = os.path.dirname(os.path.dirname(liecas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from liecas.errors import MalformedInputError\n"
            "from liecas.linalg import rank\n"
            "try:\n"
            "    rank([[1, 2], [3]])\n"
            "except MalformedInputError as err:\n"
            "    print(err)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ragged matrix\n"


def test_rank_matches_fraction_elimination():
    assert rank_agreement(seed=21, cases=200) == 200


def test_rank_leaves_mixed_int_and_fraction_rows_unchanged():
    rows = [[0, Fraction(1, 2), 3],
            [Fraction(2, 3), 0, 1],
            [Fraction(2, 3), Fraction(1, 2), 4]]
    before = [list(row) for row in rows]
    assert rank(rows) == 2
    assert rows == before
    assert [type(v) for row in rows for v in row] \
        == [type(v) for row in before for v in row]


def test_entries_that_p_divides_only_lower_the_rank():
    # 1/P scales to 1, and P itself reduces to 0: at most the rank over Q
    assert rank([[Fraction(1, P)]]) == 1
    assert rank([[P]]) == 0


def test_structure_ranks_match_bareiss():
    algebras = catalog_algebras()
    assert structure_rank_agreement(algebras, seed=14, points=3) \
        == 3 * len(algebras)
