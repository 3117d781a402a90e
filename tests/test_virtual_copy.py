import re
from fractions import Fraction

import pytest

import liecas.virtual_copy
from liecas.catalog import build
from liecas.enveloping import PBWElement, ad_images, derivation, u_mul
from liecas.errors import (
    MalformedInputError,
    PreconditionError,
)
from liecas.lie_core import LieAlgebra
from liecas.virtual_copy import (
    CONDITIONS,
    build_operators,
    emit_spec,
    make_spec,
    parse_spec,
    verify,
)

from property_suites import (
    copy_residual_agreement,
    failing_specs,
    normal_order_footprint,
)
from table_oracles import (
    commutator_direct,
    levi_quadratic_casimir,
    lift_casimir,
)


def b(name, N=None):
    return build(name, N)


def so3_with_center():
    return LieAlgebra(
        ["X_1", "X_2", "X_3", "Z"],
        {(0, 1): {2: Fraction(1)},
         (0, 2): {1: Fraction(-1)},
         (1, 2): {0: Fraction(1)}},
        levi=[0, 1, 2])


def trivial_spec(algebra):
    z = PBWElement.generator(algebra, algebra.index("Z"))
    return make_spec(z, {})


# ---- make_spec -----------------------------------------------------------------


def test_make_spec_shape():
    algebra, spec = b("Ha", 3)
    assert spec.k == 2
    assert sorted(spec.P) == sorted(algebra.levi)
    assert spec.f.terms == {(algebra.index("R"),): Fraction(1)}

    algebra, spec = b("QHa", 3)
    assert spec.k == 3
    ix = algebra.name_index
    assert spec.f.terms == {
        (ix["T"], ix["T"]): Fraction(1),
        (ix["R"], ix["L"]): Fraction(1),
        (ix["A"], ix["M"]): Fraction(-1),
    }


def test_make_spec_rejections():
    algebra = so3_with_center()
    z = PBWElement.generator(algebra, algebra.index("Z"))
    x = PBWElement.generator(algebra, 0)
    for f, P, message in (
            (PBWElement(algebra), {}, "f must be nonzero"),
            (x, {}, "f touches non-radical generators ['X_1']"),
            (z + u_mul(z, z), {}, "f is not homogeneous (word lengths [1, 2])"),
            (z, {"Z": z}, "P is keyed by 'Z', which is not a Levi generator"),
            (z, {0: u_mul(x, z)},
             "P[X_1] touches non-radical generators ['X_1']"),
            (z, {0: u_mul(u_mul(z, z), z)},
             "P[X_1] has top degree 3, expected 2")):
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            make_spec(f, P)


def test_filtration_terms_below_top_degree_are_allowed():
    algebra, spec = b("boson_example")
    p = spec.P[algebra.index("X_1,1")]
    lengths = {len(w) for w in p.terms}
    assert lengths == {2, 3} and p.degree() == spec.k == 3


# ---- verify --------------------------------------------------------------------


@pytest.mark.parametrize("fid", [
    ("Ha", 3), ("IHa", 3), ("QHa", 3),
    ("IHa_L", 3), ("IHa_M", 3), ("IHa_A", 3),
    ("IHa_AM", 3), ("IHa_AL", 3), ("IHa_LM", 3),
    ("weyl_quesne", 1), ("weyl_quesne", 2),
    ("boson_example", None), ("boson_example_contracted", None),
], ids=lambda fid: "%s-%s" % fid)
def test_catalog_specs_verify(fid):
    algebra, spec = build(*fid)
    report = verify(spec)
    assert report.passed, report.describe()
    assert report.f_is_radical_invariant
    assert report.factor_identity_ok
    doc = report.to_json()
    assert doc["passed"] and doc["radical_residuals"] == []


def test_report_is_one_map_per_condition():
    # f = G_1 is a radical generator that neither commutes with the
    # radical nor with the Levi part
    algebra, spec = failing_specs()["f=G_1-boson"]
    f = spec.f
    report = verify(spec)
    assert report.names == algebra.names
    assert list(report.residuals) == [name for name, _line in CONDITIONS]
    for name in ("f_radical_residuals", "f_levi_residuals"):
        for (y,), residual in report.residuals[name].items():
            assert residual == commutator_direct(
                f, PBWElement.generator(algebra, y))
    assert report.residuals["f_radical_residuals"]
    assert report.residuals["f_levi_residuals"]
    assert not (report.passed or report.f_is_radical_invariant
                or report.f_is_g_invariant)
    doc = report.to_json()
    lines = report.describe().splitlines()
    for name, _line in CONDITIONS:
        assert len(doc[name]) == len(report.residuals[name])
    assert len(lines) == sum(map(len, report.residuals.values()))


def test_trivial_central_dressing_verifies():
    algebra = so3_with_center()
    report = verify(trivial_spec(algebra))
    assert report.passed
    assert report.f_is_g_invariant


def test_dropping_a_dressing_block_fails_with_nonzero_residual():
    # IHa(3) with every P term that touches R dropped
    algebra, spec = failing_specs()["stripped-IHa3"]
    report = verify(spec)
    assert not report.passed
    radical = report.residuals["radical_residuals"]
    assert radical
    residual = radical[min(radical)]
    assert residual
    # the f-side checks cannot see the P mutilation
    assert report.f_is_radical_invariant


def test_literal_product_order_misses_su11_closure_by_4f():
    # same dressed su(1,1) generators with the noncommuting products taken
    # left to right instead of symmetrized: every radical check still
    # passes (the difference is central), but the Levi-side identities
    # miss by exactly 4f on the pair bracketing onto X_1,1
    algebra, spec = failing_specs()["literal-boson"]
    report = verify(spec)
    assert not report.passed
    residuals = report.residuals
    assert not residuals["radical_residuals"]
    y, z = algebra.index("X_-1,1"), algebra.index("X_1,-1")
    assert residuals["adjoint_residuals"][(y, z)] == spec.f.scale(4)
    assert residuals["equivariance_residuals"][(y, z)] == spec.f.scale(4)
    assert (residuals["factor_residuals"][(y, z)]
            == u_mul(spec.f, spec.f).scale(4))


# ---- lift_casimir --------------------------------------------------------------


def test_lift_through_trivial_dressing():
    algebra = so3_with_center()
    spec = trivial_spec(algebra)
    C = PBWElement(algebra, {(t, t): Fraction(1) for t in range(3)})
    lifted = lift_casimir(algebra, spec, C)
    z = algebra.index("Z")
    assert lifted.terms == {(t, t, z, z): Fraction(1) for t in range(3)}
    for t in range(algebra.dim):
        assert not derivation(lifted, ad_images(algebra, t, -1))


def test_lift_keeps_scalar_layers():
    algebra = so3_with_center()
    spec = trivial_spec(algebra)
    C = PBWElement(algebra, {(t, t): Fraction(1) for t in range(3)})
    five = PBWElement.from_terms(algebra, {(): 5})
    shifted = lift_casimir(algebra, spec, C + five)
    assert shifted == lift_casimir(algebra, spec, C) + five


def test_lifted_hamilton_casimir_is_central():
    algebra, spec = b("Ha", 3)
    lifted = lift_casimir(algebra, spec, levi_quadratic_casimir(algebra))
    for t in range(algebra.dim):
        assert not derivation(lifted, ad_images(algebra, t, -1))


def test_su11_lift_matches_the_symmetric_arrangement():
    algebra, spec = b("boson_example")
    lifted = lift_casimir(algebra, spec, levi_quadratic_casimir(algebra))
    ops = build_operators(spec)
    h, y, z = (ops[algebra.index(m)] for m in ("X_1,1", "X_-1,1", "X_1,-1"))
    direct = u_mul(h, h) - (u_mul(y, z) + u_mul(z, y)).scale(Fraction(1, 2))
    assert lifted == direct
    for t in range(algebra.dim):
        assert not derivation(lifted, ad_images(algebra, t, -1))


def test_lift_preconditions():
    algebra, spec = b("Ha", 3)
    with pytest.raises(PreconditionError):
        lift_casimir(algebra, spec, PBWElement.generator(algebra, 0))
    with pytest.raises(PreconditionError):
        lift_casimir(algebra, spec,
                     PBWElement.generator(algebra, algebra.index("R")))
    other, other_spec = b("Ha", 3)
    with pytest.raises(MalformedInputError):
        lift_casimir(algebra, spec, PBWElement.generator(other, 0))
    # a spec that does not verify cannot lift anything
    broken = make_spec(spec.f, {i: PBWElement(algebra) for i in algebra.levi})
    with pytest.raises(PreconditionError):
        lift_casimir(algebra, broken, levi_quadratic_casimir(algebra))


# ---- JSON round-trips ----------------------------------------------------------


@pytest.mark.parametrize("fid", [
    ("QHa", 3), ("boson_example", None), ("weyl_quesne", 2),
], ids=lambda fid: "%s-%s" % fid)
def test_spec_round_trip(fid):
    algebra, spec = build(*fid)
    doc = emit_spec(spec)
    again = parse_spec(algebra, doc)
    assert again.f == spec.f
    assert again.k == spec.k
    assert again.P == spec.P


def test_parse_spec_rejects_malformed_documents():
    algebra, spec = b("Ha", 3)
    with pytest.raises(MalformedInputError):
        parse_spec(algebra, ["not", "a", "dict"])
    with pytest.raises(MalformedInputError):
        parse_spec(algebra, {"P": {}})
    doc = emit_spec(spec)
    doc["P"] = [["J_12"]]
    with pytest.raises(MalformedInputError):
        parse_spec(algebra, doc)


# ---- every residual from the two commutator tables ------------------------------


def test_copy_residuals_match_direct_products():
    # 12 dressed families at their least N, 3 failing specs, one leaking
    # Levi bracket, 25 perturbations over five families
    assert copy_residual_agreement(seed=8, cases=25) == 41


def test_verify_takes_two_commutator_tables(monkeypatch):
    # [f, X_t] and [P_i, X_t] once each over the 36 generators of QHa(5)
    # and its 10 Levi generators: 36 + 10 * 36 = 396 derivations by the
    # images of [., X_t], where checking each condition on its own took
    # 496 brackets.  Each image table is built once per generator, and no
    # dressed generator is built
    algebra, spec = b("QHa", 5)
    tables, calls = [], []

    def built(*args):
        tables.append(ad_images(*args))
        return tables[-1]

    def counted(elem, images):
        calls.append(any(images is table for table in tables))
        return derivation(elem, images)

    def no_operators(*args):
        raise AssertionError("verify built the dressed generators")

    monkeypatch.setattr(liecas.virtual_copy, "ad_images", built)
    monkeypatch.setattr(liecas.virtual_copy, "derivation", counted)
    monkeypatch.setattr(liecas.virtual_copy, "build_operators", no_operators)
    assert verify(spec).passed
    assert len(tables) == algebra.dim
    assert calls.count(True) == algebra.dim * (1 + len(algebra.levi)) == 396


def test_verify_footprint_on_qha5():
    # the two commutator tables and the Leibniz derivation of the factor
    # condition take about 2,700 _normal_word calls; checking each
    # condition on its own took about 4,000, and two full products per
    # commutator about 33,000.  Normal forms live for one call: a
    # per-algebra cache of them kept about 180 KB
    algebra, spec = b("QHa", 5)

    def check():
        assert verify(spec).passed

    calls, retained = normal_order_footprint(check)
    assert calls < 3200
    assert retained < 64 * 1024
