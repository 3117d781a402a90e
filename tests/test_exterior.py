import json
from fractions import Fraction

import pytest

from liecas.cli import main
from liecas.errors import MalformedInputError
from liecas.invariants import invariant_count
from liecas.lie_core import LieAlgebra
from liecas.linalg import rank

from property_suites import (
    d_squared_zero,
    exterior_leibniz,
    roster,
    wedge_rank_agreement,
)
from table_oracles import (
    P61,
    ExteriorElement,
    alternating_matrix,
    differential,
    mc_differential,
    upper_entries,
    wedge,
    wedge_rank_slow,
)

F = Fraction


def so3():
    return LieAlgebra(
        ["e1", "e2", "e3"],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        levi=[0, 1, 2])


def h2():
    return LieAlgebra(
        ["P_1", "P_2", "Q_1", "Q_2", "Z"],
        {(0, 2): {4: 1}, (1, 3): {4: 1}},
        levi=[])


def test_wedge_signs():
    w0, w1, w2 = (ExteriorElement(4, {(i,): 1}) for i in range(3))
    assert wedge(w0, w1).terms == {(0, 1): F(1)}
    assert wedge(w1, w0).terms == {(0, 1): F(-1)}
    assert not wedge(w0, w0)
    # (w0^w2) ^ w1 = -w0^w1^w2
    assert wedge(wedge(w0, w2), w1).terms == {(0, 1, 2): F(-1)}
    # unit behaves as a unit
    unit = ExteriorElement(4, {(): 1})
    assert wedge(unit, w2) == w2


def test_wedge_power_of_symplectic_form():
    # omega = w0^w1 + w2^w3: omega^2 = 2 w0^w1^w2^w3
    omega = ExteriorElement(4, {(0, 1): 1, (2, 3): 1})
    sq = wedge(omega, omega)
    assert sq.terms == {(0, 1, 2, 3): F(2)}
    # the interleaved pairing picks up an odd permutation in the cross terms
    crossed = ExteriorElement(4, {(0, 2): 1, (1, 3): 1})
    assert wedge(crossed, crossed).terms == {(0, 1, 2, 3): F(-2)}
    assert not wedge(sq, omega)
    assert rank(upper_entries(alternating_matrix(omega)), P61) == 4
    assert wedge_rank_slow(omega) == 2


def test_mc_differential_so3():
    mc = mc_differential(so3())
    assert mc[0].terms == {(1, 2): F(1)}
    assert mc[1].terms == {(0, 2): F(-1)}
    assert mc[2].terms == {(0, 1): F(1)}


def test_differential_is_antiderivation_on_basis():
    g = so3()
    # d(w0^w1) = dw0^w1 - w0^dw1 = w1^w2^w1 ... vanishing terms by repetition
    d01 = differential(g, ExteriorElement(3, {(0, 1): 1}))
    # dw0^w1 = (w1^w2)^w1 = 0;  -w0^dw1 = -w0^(-w0^w2) = 0
    assert not d01
    # in h2: d(w_Z) = w_{P_1}^w_{Q_1} + w_{P_2}^w_{Q_2}
    gh = h2()
    dz = differential(gh, ExteriorElement(5, {(4,): 1}))
    assert dz.terms == {(0, 2): F(1), (1, 3): F(1)}


def test_wedge_rank_checks_grade():
    with pytest.raises(MalformedInputError):
        alternating_matrix(ExteriorElement(4, {(0,): 1}))
    with pytest.raises(MalformedInputError):
        wedge_rank_slow(ExteriorElement(4, {(0,): 1}))
    assert rank(upper_entries(alternating_matrix(ExteriorElement(4))), P61) \
        == 0
    assert wedge_rank_slow(ExteriorElement(4)) == 0


def test_j0_small_algebras():
    # so(3): generic dw has half-rank 1, so 3 - 2*1 = 1 invariant (the Casimir)
    report = invariant_count(so3(), trials=3, seed=5)
    assert (report.generic_rank, report.count) == (2, 1)
    # h2: dw_Z is the only nonzero direction, half-rank 2
    report = invariant_count(h2(), trials=3, seed=5)
    assert report.generic_rank == 2 * 2
    assert len(report.witness_point) == 5
    # abelian: all differentials vanish
    ab = LieAlgebra(["a", "b"], {}, levi=[])
    assert invariant_count(ab, trials=2, seed=5).generic_rank == 0
    with pytest.raises(MalformedInputError):
        invariant_count(ab, trials=0, seed=5)


def test_j0_deterministic_in_seed():
    g = h2()
    a = invariant_count(g, trials=4, seed=99)
    b = invariant_count(g, trials=4, seed=99)
    assert a == b


def test_render(capsys, tmp_path):
    # mc prints each d w_k from the bracket rows: d w_{e4} has the two
    # terms -1 and 2, and the other three forms have none
    names = ["e1", "e2", "e3", "e4"]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "names": names, "levi": [], "radical": names,
        "brackets": [{"i": i, "j": "e3", "terms": [{"k": "e4", "c": c}]}
                     for i, c in (("e1", "-1"), ("e2", "2"))]}))
    assert main(["mc", "--algebra", str(path)]) == 0
    assert capsys.readouterr().out == (
        "d w_{e1} = 0\nd w_{e2} = 0\nd w_{e3} = 0\n"
        "d w_{e4} = -w_{e1}^w_{e3} + 2*w_{e2}^w_{e3}\n")
    assert main(["mc", "--algebra", str(path), "--format", "latex"]) == 0
    assert capsys.readouterr().out == (
        "d\\omega_{e1} = 0\nd\\omega_{e2} = 0\nd\\omega_{e3} = 0\n"
        "d\\omega_{e4} = -\\omega_{e1} \\wedge \\omega_{e3} "
        "+ 2 \\omega_{e2} \\wedge \\omega_{e3}\n")


def test_leibniz_suite():
    assert exterior_leibniz(roster(), seed=13, cases=40) == 40


def test_d_squared_suite():
    assert d_squared_zero(roster(), seed=14, cases=40) == 40


def test_wedge_rank_agreement_suite():
    assert wedge_rank_agreement(roster(), seed=15, cases=40) == 40
