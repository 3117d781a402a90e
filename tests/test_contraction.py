from fractions import Fraction

import pytest

from liecas.catalog import boson_algebra, build
from liecas.contraction import (
    ContractionWeights,
    contract_algebra,
    contract_copy,
    weighted_leading_part,
)
from liecas.enveloping import PBWElement, u_mul
from liecas.errors import (
    LimitDoesNotExistError,
    MalformedInputError,
    PreconditionError,
)
from liecas.lie_core import LieAlgebra
from liecas.virtual_copy import build_operators, make_spec, verify

from table_oracles import (
    contracted_boson_dressing,
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


# ---- weights -------------------------------------------------------------------


def test_weights_default_to_zero():
    algebra, _ = b("Ha", 3)
    w = ContractionWeights(algebra)
    assert all(w.of(t) == 0 for t in range(algebra.dim))
    assert w.describe() == {}


def test_weights_refuse_a_nonzero_levi_weight():
    algebra, _ = b("Ha", 3)
    for n in (5, -1):
        with pytest.raises(MalformedInputError, match="'J_12'"):
            ContractionWeights(algebra, {"J_12": n, "R": 2})
    w = ContractionWeights(algebra, {"J_12": 0, "R": 2})
    assert w.of(algebra.index("J_12")) == 0
    assert w.of(algebra.index("R")) == 2
    assert w.describe() == {"R": 2}


def test_weights_reject_bad_tables():
    algebra, _ = b("Ha", 3)
    with pytest.raises(MalformedInputError):
        ContractionWeights(algebra, {"nope": 1})
    with pytest.raises(MalformedInputError):
        ContractionWeights(algebra, {"R": True})
    with pytest.raises(MalformedInputError):
        ContractionWeights(algebra, {"R": 1.5})
    with pytest.raises(MalformedInputError):
        ContractionWeights(algebra, {"R": "2"})


def test_word_weight_sums_letters():
    algebra = b("heisenberg", 1)[0]
    w = ContractionWeights(algebra, {"P_1": 1, "Q_1": 1, "Z": -2})
    p, q, z = (algebra.index(n) for n in ("P_1", "Q_1", "Z"))
    assert w.word_weight(()) == 0
    assert w.word_weight((p, q)) == 2
    assert w.word_weight((p, q, z, z)) == -2
    assert w.describe() == {"P_1": 1, "Q_1": 1, "Z": -2}


# ---- contracting the bracket table ----------------------------------------------


def test_zero_weight_bracket_survives():
    algebra = b("heisenberg", 1)[0]
    w = ContractionWeights(algebra, {"P_1": 1, "Q_1": 1, "Z": 2})
    prime = contract_algebra(algebra, w)
    assert prime.brackets == algebra.brackets
    assert prime.names == algebra.names


def test_positive_weight_bracket_is_dropped():
    algebra = b("heisenberg", 1)[0]
    w = ContractionWeights(algebra, {"Z": -1})
    prime = contract_algebra(algebra, w)
    assert prime.brackets == {}


def test_negative_weight_has_no_limit():
    algebra = b("heisenberg", 1)[0]
    w = ContractionWeights(algebra, {"P_1": 1, "Q_1": 1, "Z": 3})
    with pytest.raises(LimitDoesNotExistError) as err:
        contract_algebra(algebra, w)
    assert err.value.payload == {"triple": ["P_1", "Q_1", "Z"], "weight": -1}


def test_oscillator_pair_contraction_matches_catalog():
    # the weighting turns off exactly the alpha brackets
    algebra, _ = b("boson_example")
    w = ContractionWeights(algebra, {"Q_1": 1, "P_1": 1, "E": 1, "T": 1})
    prime = contract_algebra(algebra, w)
    target = boson_algebra(0)
    assert prime.names == target.names
    assert prime.brackets == target.brackets
    assert prime.levi == target.levi


# ---- leading parts -----------------------------------------------------------------


def test_weighted_leading_part_slices_top_weight():
    algebra = b("heisenberg", 1)[0]
    w = ContractionWeights(algebra, {"P_1": 1, "Q_1": 1})
    p = PBWElement.generator(algebra, "P_1")
    q = PBWElement.generator(algebra, "Q_1")
    elem = p + u_mul(p, q).scale(Fraction(3))
    top, lead = weighted_leading_part(elem, w)
    assert top == 2
    assert lead.terms == {(0, 1): Fraction(3)}


# ---- contracting a dressed copy --------------------------------------------------


def test_oscillator_pair_copy_contraction_end_to_end():
    algebra, spec = b("boson_example")
    w = ContractionWeights(algebra, {"Q_1": 1, "P_1": 1, "E": 1, "T": 1})
    outcome = contract_copy(algebra, spec, w)

    assert outcome.M0 == 2
    assert set(outcome.Mi.values()) == {2}
    assert set(outcome.Ni.values()) == {2}
    assert outcome.copy_compatible

    target = boson_algebra(0)
    target_spec = contracted_boson_dressing(target)
    prime = outcome.algebra_prime
    assert prime.brackets == target.brackets

    assert outcome.spec_prime.f.terms == target_spec.f.terms
    for i in sorted(prime.levi):
        assert outcome.spec_prime.P[i].terms == target_spec.P[i].terms

    displayed = build_operators(target, target_spec)
    for i in sorted(prime.levi):
        assert outcome.operators_prime[i].terms == displayed[i].terms

    assert outcome.verify_report is not None
    assert outcome.verify_report.passed


def test_contracted_casimir_is_the_leading_part():
    algebra, spec = b("boson_example")
    w = ContractionWeights(algebra, {"Q_1": 1, "P_1": 1, "E": 1, "T": 1})
    outcome = contract_copy(algebra, spec, w)

    lifted = lift_casimir(algebra, spec, levi_quadratic_casimir(algebra))
    top, lead = weighted_leading_part(lifted, w)
    assert top == 4

    prime = outcome.algebra_prime
    lifted_prime = lift_casimir(prime, outcome.spec_prime,
                                levi_quadratic_casimir(prime))
    # the contracted algebra keeps the index order, so the words match
    assert lead.terms == lifted_prime.terms


def test_skew_weighting_is_reported_incompatible():
    algebra, spec = b("IHa", 3)
    w = ContractionWeights(algebra, {"T": 3})
    with pytest.raises(LimitDoesNotExistError) as err:
        contract_copy(algebra, spec, w)

    assert err.value.payload == {
        "triple": ["G_1", "Q_1", "T"], "weight": -3, "f_top_weight": 6,
        "p_top_weights": {"J_12": 3, "J_13": 3, "J_23": 3},
        "copy_compatible": False}

    # dropping the completion terms, as the skew scaling would, breaks
    # the commutation with the radical
    naive = make_spec(algebra, spec.f, {})
    report = verify(algebra, naive)
    assert not report.passed
    radical = report.residuals["radical_residuals"]
    assert radical
    assert all(not r.is_zero() for r in radical.values())


def test_incompatible_copy_with_a_limit_keeps_the_leading_parts():
    # M0 = 0 while every P_ij is G_i F_j - G_j F_i of weight 1, so each
    # contracted operator is P0 alone, its terms read over the contraction
    algebra, spec = b("Ha", 3)
    w = ContractionWeights(algebra, {"G_1": 1, "G_2": 1, "G_3": 1})
    outcome = contract_copy(algebra, spec, w)

    assert outcome.M0 == 0
    assert set(outcome.Mi.values()) == {1}
    assert not outcome.copy_compatible
    prime = outcome.algebra_prime
    assert prime is not None
    for i in sorted(algebra.levi):
        assert outcome.operators_prime[i] == PBWElement(prime,
                                                        outcome.P0[i].terms)
    assert outcome.spec_prime is None and outcome.verify_report is None


def test_all_zero_weights_change_nothing():
    algebra, spec = b("Ha", 3)
    outcome = contract_copy(algebra, spec, ContractionWeights(algebra))
    assert outcome.M0 == 0
    assert set(outcome.Mi.values()) == {0}
    assert outcome.copy_compatible
    assert outcome.algebra_prime.brackets == algebra.brackets
    assert outcome.spec_prime.f.terms == spec.f.terms
    for i in sorted(algebra.levi):
        assert outcome.spec_prime.P[i].terms == spec.P[i].terms
    assert outcome.verify_report.passed


def test_zero_completion_rides_along_with_f():
    algebra = so3_with_center()
    spec = make_spec(algebra, PBWElement.generator(algebra, "Z"), {})
    w = ContractionWeights(algebra, {"Z": 1})
    outcome = contract_copy(algebra, spec, w)
    assert outcome.M0 == 1
    assert outcome.Mi == {0: 1, 1: 1, 2: 1}
    assert all(p.is_zero() for p in outcome.P0.values())
    assert outcome.copy_compatible
    z = algebra.index("Z")
    for i in sorted(algebra.levi):
        assert outcome.operators_prime[i].terms == {(i, z): Fraction(1)}
    assert outcome.verify_report.passed


def test_contract_copy_preconditions():
    algebra = so3_with_center()
    z = PBWElement.generator(algebra, "Z")
    broken = make_spec(algebra, z, {0: u_mul(z, z)})
    w = ContractionWeights(algebra, {"Z": 1})
    with pytest.raises(PreconditionError):
        contract_copy(algebra, broken, w)
