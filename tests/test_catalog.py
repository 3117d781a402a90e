from fractions import Fraction

import pytest

from liecas.catalog import FAMILIES, boson_algebra, build, so_algebra
from liecas.enveloping import ad_images, derivation
from liecas.errors import MalformedInputError
from liecas.lie_core import LieAlgebra, algebra_to_json
from liecas.virtual_copy import emit_spec
from property_suites import roster
from table_oracles import (
    contracted_boson_dressing,
    levi_quadratic_casimir,
    su11_quadratic_casimir,
)


def b(name, N=None):
    return build(name, N)


ALL_BUILDS = (
    [("so", N) for N in (2, 3, 4, 5)]
    + [("su11", None), ("heisenberg", 1), ("heisenberg", 3),
       ("weyl_quesne", 1), ("weyl_quesne", 2)]
    + [(name, N) for N in (3, 4)
       for name in ("Ha", "IHa", "QHa",
                    "IHa_L", "IHa_M", "IHa_A", "IHa_AM", "IHa_AL", "IHa_LM")]
    + [("boson_example", None, 1),
       ("boson_example", None, 0),
       ("boson_example_contracted", None)]
    + [(name, family.most) for name, family in FAMILIES.items()
       if family.most is not None]
)


@pytest.mark.parametrize("fid", ALL_BUILDS,
                         ids=lambda fid: "%s-%s" % fid[:2])
def test_every_built_algebra_validates(fid):
    algebra, _ = build(*fid)
    report = algebra.validate()
    assert report.ok, report.describe()


def test_bracket_rows_are_antisymmetric():
    for algebra in roster():
        for i in range(algebra.dim):
            assert algebra.bracket_basis(i, i) == {}
            for j in range(algebra.dim):
                assert algebra.bracket_basis(j, i) == {
                    k: -c for k, c in algebra.bracket_basis(i, j).items()}


def test_dimensions():
    for N in (3, 4, 5, 6):
        assert b("Ha", N)[0].dim == N * (N + 3) // 2 + 1
        assert b("IHa", N)[0].dim == N * (N - 1) // 2 + 4 * N + 3
    for N in (3, 4, 5):
        assert b("QHa", N)[0].dim == (N * N + 7 * N + 12) // 2
    assert b("so", 5)[0].dim == 10
    assert b("heisenberg", 4)[0].dim == 9
    assert b("weyl_quesne", 2)[0].dim == 9
    assert b("su11")[0].dim == 3
    assert b("boson_example")[0].dim == 10
    for letters in ("L", "M", "A"):
        assert b("IHa_%s" % letters, 3)[0].dim == 19
    for letters in ("AM", "AL", "LM"):
        assert b("IHa_%s" % letters, 3)[0].dim == 20


def test_generator_name_order():
    algebra, _ = b("QHa", 3)
    assert algebra.names == [
        "J_12", "J_13", "J_23",
        "G_1", "G_2", "G_3", "F_1", "F_2", "F_3",
        "Q_1", "Q_2", "Q_3", "P_1", "P_2", "P_3",
        "R", "E", "T", "L", "A", "M",
    ]
    assert sorted(algebra.levi) == [0, 1, 2]
    algebra, _ = b("IHa_AL", 3)
    assert algebra.names[-2:] == ["L", "A"]
    algebra, _ = b("Ha", 3)
    assert algebra.names == [
        "J_12", "J_13", "J_23",
        "G_1", "G_2", "G_3", "F_1", "F_2", "F_3", "R",
    ]


def test_which_families_carry_specs():
    for fid in ALL_BUILDS:
        _, spec = build(*fid)
        bare = fid[0] in ("so", "su11", "heisenberg") or (
            fid == ("boson_example", None, 0))
        assert (spec is None) == bare, fid


def bracket(algebra, x, y):
    i, j = algebra.index(x), algebra.index(y)
    return {algebra.names[k]: c
            for k, c in algebra.bracket_basis(i, j).items()}


def test_rotation_and_vector_brackets():
    algebra, _ = b("Ha", 3)
    assert bracket(algebra, "J_12", "J_13") == {"J_23": -1}
    assert bracket(algebra, "J_12", "J_23") == {"J_13": 1}
    assert bracket(algebra, "J_13", "J_23") == {"J_12": -1}
    assert bracket(algebra, "J_12", "G_1") == {"G_2": -1}
    assert bracket(algebra, "J_12", "G_2") == {"G_1": 1}
    assert bracket(algebra, "J_12", "G_3") == {}
    assert bracket(algebra, "G_1", "F_1") == {"R": 1}
    assert bracket(algebra, "G_1", "F_2") == {}
    assert bracket(algebra, "G_1", "G_2") == {}


def test_inhomogeneous_brackets():
    algebra, _ = b("IHa", 3)
    assert bracket(algebra, "G_2", "Q_2") == {"T": 1}
    assert bracket(algebra, "F_3", "P_3") == {"T": 1}
    assert bracket(algebra, "G_1", "E") == {"P_1": 1}
    assert bracket(algebra, "F_1", "E") == {"Q_1": -1}
    assert bracket(algebra, "R", "E") == {"T": -2}
    assert bracket(algebra, "E", "T") == {}
    assert bracket(algebra, "Q_1", "P_1") == {}


def test_extension_brackets():
    algebra, _ = b("QHa", 3)
    assert bracket(algebra, "Q_1", "P_1") == {"L": -1}
    assert bracket(algebra, "E", "T") == {"L": -1}
    assert bracket(algebra, "G_2", "P_2") == {"M": 1}
    assert bracket(algebra, "F_2", "Q_2") == {"A": 1}
    assert bracket(algebra, "Q_1", "P_2") == {}
    for letter in ("L", "A", "M"):
        t = algebra.index(letter)
        assert all(not algebra.bracket_basis(t, s)
                   for s in range(algebra.dim)), letter

    algebra, _ = b("IHa_M", 3)
    assert bracket(algebra, "G_1", "P_1") == {"M": 1}
    assert bracket(algebra, "Q_1", "P_1") == {}
    assert bracket(algebra, "E", "T") == {}

    algebra, _ = b("IHa_L", 3)
    assert bracket(algebra, "Q_1", "P_1") == {"L": -1}
    assert bracket(algebra, "E", "T") == {"L": -1}


def test_su11_brackets():
    algebra, _ = b("su11")
    assert bracket(algebra, "X_1,1", "X_-1,1") == {"X_-1,1": -2}
    assert bracket(algebra, "X_1,1", "X_1,-1") == {"X_1,-1": 2}
    assert bracket(algebra, "X_-1,1", "X_1,-1") == {"X_1,1": 4}


def test_boson_alpha_dependence():
    on = boson_algebra(1)
    off = boson_algebra(0)
    for x, y, expect_on in [
        ("Q_1", "P_1", {"R": 1}),
        ("Q_1", "E", {"G_1": 1}),
        ("P_1", "E", {"F_1": 1}),
        ("E", "T", {"R": -2}),
    ]:
        assert bracket(on, x, y) == expect_on
        assert bracket(off, x, y) == {}
    # the alpha-independent part is shared
    for x, y, expect in [
        ("G_1", "F_1", {"R": 1}),
        ("G_1", "P_1", {"T": 1}),
        ("F_1", "Q_1", {"T": -1}),
        ("G_1", "E", {"Q_1": 1}),
        ("F_1", "E", {"P_1": 1}),
        ("R", "E", {"T": 2}),
    ]:
        assert bracket(on, x, y) == expect
        assert bracket(off, x, y) == expect
    half = boson_algebra(Fraction(1, 2))
    assert half.validate().ok
    assert bracket(half, "Q_1", "P_1") == {"R": Fraction(1, 2)}


def test_contracted_boson_family_is_the_hand_written_one():
    # the family is derived by contract_copy; its bytes match the alpha = 0
    # algebra and the dressing written out by hand
    algebra, spec = b("boson_example_contracted")
    target = boson_algebra(0)
    assert algebra_to_json(algebra) == algebra_to_json(target)
    assert emit_spec(spec) == emit_spec(contracted_boson_dressing(target))


def test_bad_family_ids():
    with pytest.raises(MalformedInputError):
        build("nosuch", 3)
    with pytest.raises(MalformedInputError):
        build("Ha")
    with pytest.raises(MalformedInputError):
        build("Ha", 2)
    with pytest.raises(MalformedInputError):
        build("QHa", 10)
    with pytest.raises(MalformedInputError):
        build("heisenberg", 0)
    with pytest.raises(MalformedInputError, match="takes no --N"):
        build("su11", 3)
    with pytest.raises(MalformedInputError, match="takes no --N"):
        build("boson_example", 3)
    with pytest.raises(MalformedInputError,
                       match="only applies to boson_example"):
        build("Ha", 3, alpha=5)
    assert "QHa" in FAMILIES and "boson_example" in FAMILIES


def test_perturbed_hamilton_breaks_jacobi():
    # flipping the sign of [J_12, J_13] must surface in validate();
    # the violations involve the vectors the rotations act on
    algebra, _ = b("Ha", 3)
    rows = {key: dict(terms) for key, terms in algebra.brackets.items()}
    rows[(0, 1)] = {2: Fraction(1)}
    broken = LieAlgebra(algebra.names, rows, levi=algebra.levi)
    report = broken.validate()
    assert not report.ok
    triples = {tuple(t) for t in report.to_json()["jacobi_violations"]}
    assert ("J_12", "J_13", "G_2") in triples
    assert ("J_12", "J_13", "G_3") in triples
    assert ("J_12", "J_13", "F_2") in triples
    assert ("J_12", "J_13", "F_3") in triples
    assert ("J_12", "J_13", "J_23") not in triples


def test_quadratic_casimir_helpers():
    so3 = so_algebra(3)
    C = levi_quadratic_casimir(so3)
    assert C.terms == {(t, t): Fraction(1) for t in range(3)}
    for t in range(3):
        assert not derivation(C, ad_images(so3, t, -1))

    su, _ = b("su11")
    C = su11_quadratic_casimir(su)
    for t in range(3):
        assert not derivation(C, ad_images(su, t, -1))

    ha, _ = b("Ha", 4)
    C = levi_quadratic_casimir(ha)
    assert set(C.support()) == set(ha.levi)

    with pytest.raises(MalformedInputError):
        levi_quadratic_casimir(b("heisenberg", 1)[0])
