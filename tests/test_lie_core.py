from fractions import Fraction

import pytest

from liecas import lie_core
from liecas.catalog import FAMILIES, build
from liecas.errors import MalformedInputError
from liecas.lie_core import (LieAlgebra, algebra_from_json, algebra_to_json,
                             bracket_table, generating_set)
from liecas.naming import plain_number
from property_suites import jacobi_agreement
from table_oracles import levi_subalgebra, rank_fraction, subalgebra

F = Fraction


def so3():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
    return LieAlgebra(
        ["e1", "e2", "e3"],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        levi=[0, 1, 2])


def sl2():
    # basis H, E, F with [H,E]=2E, [H,F]=-2F, [E,F]=H
    return LieAlgebra(
        ["H", "E", "F"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        levi=[0, 1, 2])


def test_constructor_rejects_bad_input():
    # what outside input reaches only here; algebra_from_json refuses a
    # duplicate name and a bad bracket key first
    with pytest.raises(MalformedInputError, match="at least one generator"):
        LieAlgebra([], {}, levi=[])
    with pytest.raises(MalformedInputError, match="nonempty strings"):
        LieAlgebra(["a", ""], {}, levi=[])
    for levi, radical in (([0], [0, 1]), ([0], [])):
        with pytest.raises(MalformedInputError, match="partition"):
            LieAlgebra(["a", "b"], {}, levi=levi, radical=radical)


def test_zero_coefficients_dropped():
    # bracket_table drops a zero term and the row it leaves empty, so the
    # table LieAlgebra stores has neither
    assert bracket_table([(0, 1, [(2, 0)]), (1, 2, [])]) == {}
    g = LieAlgebra(["a", "b", "c"], bracket_table([(0, 1, [(2, 0)])]),
                   levi=[])
    assert g.brackets == {}


def test_bracket_antisymmetry_and_diagonal():
    g = so3()
    assert g.bracket_basis(0, 1) == {2: F(1)}
    assert g.bracket_basis(1, 0) == {2: F(-1)}
    assert g.bracket_basis(2, 2) == {}


def test_validate_accepts_so3_and_sl2():
    assert so3().validate().ok
    assert sl2().validate().ok


def test_validate_catches_jacobi_violation():
    # scale [H,E] to 3E: Jacobi residual on (H,E,F) becomes H
    g = LieAlgebra(
        ["H", "E", "F"],
        {(0, 1): {1: 3}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        levi=[0, 1, 2])
    report = g.validate()
    assert not report.ok
    assert report.to_json()["jacobi_violations"] == [["H", "E", "F"]]
    (_, _, _, residual), = report.jacobi
    assert residual == {0: F(1)}
    assert "jacobi" in report.describe()
    assert report.headline() == "jacobi (H, E, F)"
    assert so3().validate().headline() == "valid"


def test_plain_number_shows_long_parts_by_digit_count():
    # str() refuses an int past Python's default limit of 4,300 digits
    assert plain_number(10 ** 5000) == "<5001-digit integer>"
    assert plain_number(1 - 10 ** 5000) == "-<5000-digit integer>"
    assert plain_number(F(1, 10 ** 4400)) == "1/<4401-digit integer>"
    assert plain_number(F(-3, 7)) == "-3/7"
    assert plain_number(-12) == "-12"


def test_validate_matches_direct_jacobi():
    assert jacobi_agreement(seed=10, cases=60) == 75


def test_validate_footprint_on_qha9(monkeypatch):
    # the scattered Jacobi sums reach only triples a stored row touches:
    # 8,271 accumulate calls, against 46,664 for the walk over all triples
    algebra, _spec = build("QHa", 9)
    calls = []
    original = lie_core.accumulate

    def counted(terms, items, c=1):
        calls.append(c)
        return original(terms, items, c)

    monkeypatch.setattr(lie_core, "accumulate", counted)
    assert algebra.validate().ok
    assert len(calls) < 12000


def test_validate_checks_declared_split():
    # sl2 with E mislabeled as radical: [H,E]=2E keeps the "radical" fine
    # but [E,F]=H leaks into the Levi part
    g = LieAlgebra(
        ["H", "E", "F"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        levi=[0, 2], radical=[1])
    report = g.validate()
    assert report.jacobi == []
    assert report.levi_closure == []  # (0,2) closes onto F, still declared Levi
    assert (1, 2, 0, F(1)) in report.radical_ideal
    assert report.headline() == "radical ideal: [E, F] contains H"

    # and H,E declared Levi with F radical: [H,E]=2E is fine,
    # but the pair (E,F) hits H again, plus Levi closure is fine by itself
    g2 = LieAlgebra(
        ["H", "E", "F"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        levi=[0, 1], radical=[2])
    report2 = g2.validate()
    assert report2.levi_closure == []
    assert (1, 2, 0, F(1)) in report2.radical_ideal


def test_levi_closure_violation():
    # fake split on so3: calling {e1} the Levi part leaves [e1,..] brackets
    # with radical factors only, so radical_ideal complains instead;
    # calling {e1,e2} the Levi part breaks closure at [e1,e2]=e3
    g = LieAlgebra(
        ["e1", "e2", "e3"],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        levi=[0, 1], radical=[2])
    report = g.validate()
    assert (0, 1, 2, F(1)) in report.levi_closure
    assert report.headline() == "levi closure: [e1, e2] contains e3"


# the generating set each dressed family picks at its least parameter
_GENERATORS = {
    "weyl_quesne": ["E_11", "bd_1", "b_1"],
    "Ha": ["J_12", "J_13", "G_1", "F_1"],
    "boson_example": ["X_1,1", "X_-1,1", "X_1,-1", "G_1", "Q_1", "E"],
    "boson_example_contracted": ["X_1,1", "X_-1,1", "X_1,-1", "G_1", "Q_1",
                                 "E"],
}


@pytest.mark.parametrize("name", sorted(n for n, fam in FAMILIES.items()
                                        if fam.dressed))
def test_generating_set_generates_the_algebra(name):
    # every IHa and QHa family adds Q_1, P_1 and E to the picks of Ha
    fam = FAMILIES[name]
    algebra, _spec = build(name, fam.least if fam.most is not None else None)
    picked = generating_set(algebra)
    assert [algebra.names[t] for t in picked] == _GENERATORS.get(
        name, _GENERATORS["Ha"] + ["Q_1", "P_1", "E"])

    # the oracle closes the picks under ad of each pick: a subspace that
    # holds the generators and is stable under their brackets holds every
    # nested bracket, so it is the subalgebra they generate
    def unit(t):
        return [1 if s == t else 0 for s in range(algebra.dim)]

    def bracket(t, v):
        out = [0] * algebra.dim
        for s, c in enumerate(v):
            for k, d in algebra.bracket_basis(t, s).items():
                out[k] += c * d
        return out

    span = [unit(t) for t in picked]
    frontier = list(span)
    while frontier:
        grown = []
        for t in picked:
            for v in frontier:
                w = bracket(t, v)
                if rank_fraction(span + [w]) > len(span):
                    span.append(w)
                    grown.append(w)
        frontier = grown
    assert len(span) == algebra.dim


def test_subalgebra_extraction():
    # direct sum so3 + a central Z
    g = LieAlgebra(
        ["e1", "e2", "e3", "Z"],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        levi=[0, 1, 2], radical=[3])
    s = subalgebra(g, [0, 1, 2])
    assert s.names == ["e1", "e2", "e3"]
    assert s.dim == 3
    assert s.validate().ok
    assert s.bracket_basis(0, 1) == {2: F(1)}
    assert levi_subalgebra(g).names == s.names
    with pytest.raises(MalformedInputError):
        subalgebra(sl2(), [0, 1, 5])
    with pytest.raises(MalformedInputError):
        # {H, E} is closed but {E, F} is not
        subalgebra(sl2(), [1, 2])
    sub_he = subalgebra(sl2(), [0, 1])
    assert sub_he.bracket_basis(0, 1) == {1: F(2)}


def test_subalgebra_reindexes_brackets():
    g = LieAlgebra(
        ["A", "H", "E", "F"],
        {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}},
        levi=[1, 2, 3], radical=[0])
    s = subalgebra(g, [1, 2, 3])
    assert s.names == ["H", "E", "F"]
    assert s.bracket_basis(2, 1) == {0: F(-1)}  # [F,E] = -H after reindex


def test_json_round_trip():
    g = LieAlgebra(
        ["H", "E", "F", "Z"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: F(1, 2)}},
        levi=[0, 1, 2], radical=[3])
    doc = algebra_to_json(g)
    assert doc["brackets"][2]["terms"] == [{"k": "H", "c": "1/2"}]
    g2 = algebra_from_json(doc)
    assert g2.names == g.names
    assert g2.brackets == g.brackets
    assert g2.levi == g.levi and g2.radical == g.radical


def test_json_accepts_reversed_rows():
    doc = {
        "names": ["a", "b"],
        "brackets": [{"i": "b", "j": "a", "terms": [{"k": "a", "c": "1"}]}],
        "levi": [],
        "radical": ["a", "b"],
    }
    g = algebra_from_json(doc)
    assert g.bracket_basis(0, 1) == {0: F(-1)}


def test_bracket_table_folds_rows_as_the_json_reader_does():
    # [b, a] = a is a reversed row; [a, c] = b/2 stated twice adds up to
    # b, stored as an int; [b, c] = a and [c, b] = a cancel
    rows = [(1, 0, [(0, 1)]),
            (0, 2, [(1, F(1, 2))]), (0, 2, [(1, F(1, 2))]),
            (1, 2, [(0, 1)]), (2, 1, [(0, 1)])]
    table = bracket_table(rows)
    assert table == {(0, 1): {0: -1}, (0, 2): {1: 1}}
    assert type(table[(0, 2)][1]) is int
    names = ["a", "b", "c"]
    doc = {"names": names, "levi": [], "radical": names, "brackets": [
        {"i": names[i], "j": names[j],
         "terms": [{"k": names[k], "c": str(c)} for k, c in terms]}
        for i, j, terms in rows]}
    direct = LieAlgebra(names, table, levi=[])
    assert direct.brackets == {(0, 1): {0: -1}, (0, 2): {1: 1}}
    assert algebra_from_json(doc).brackets == direct.brackets


def test_json_coefficients_read_through_exact():
    # one reader for every coefficient: a JSON integer reads as an int, a
    # JSON float is refused as inexact, and a JSON true is no rational
    def with_c(c):
        doc = algebra_to_json(sl2())
        doc["brackets"][0]["terms"][0]["c"] = c
        return doc
    assert algebra_from_json(with_c(2)).brackets[(0, 1)] == {1: 2}
    with pytest.raises(MalformedInputError, match="inexact coefficient 0.1"):
        algebra_from_json(with_c(0.1))
    for flag in (True, False):
        with pytest.raises(MalformedInputError,
                           match="bad rational %s" % flag):
            algebra_from_json(with_c(flag))


def test_json_rejects_malformed_documents():
    good = algebra_to_json(sl2())
    for mutate in (
            lambda d: d.pop("levi"),
            lambda d: d["brackets"].append({"i": "H", "j": "H", "terms": []}),
            lambda d: d["brackets"].append(
                {"i": "H", "j": "Q", "terms": [{"k": "H", "c": "1"}]}),
            lambda d: d["brackets"][0]["terms"].append({"k": "H", "c": "1/0"}),
            lambda d: d["names"].append("H"),
    ):
        doc = {k: ([dict(r) if isinstance(r, dict) else r for r in v]
                   if isinstance(v, list) else v)
               for k, v in good.items()}
        doc["brackets"] = [dict(r, terms=[dict(t) for t in r["terms"]])
                           for r in doc["brackets"]]
        mutate(doc)
        with pytest.raises(MalformedInputError):
            algebra_from_json(doc)
