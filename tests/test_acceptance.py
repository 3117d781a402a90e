"""The nine acceptance criteria, one test each, all exact.

Each test is self-contained: it rebuilds what it needs through the
public API and asserts with zero tolerance.  conftest.py turns the
outcomes into one pass/fail line per criterion at the end of the run.
"""

import random
from fractions import Fraction

import pytest

from liecas.casimir_gen import casimir_set
from liecas.catalog import FAMILIES, boson_algebra, build
from liecas.contraction import (
    ContractionWeights,
    contract_copy,
    transplant,
    weighted_leading_part,
)
from liecas.enveloping import PBWElement, ad_images, derivation
from liecas.errors import LimitDoesNotExistError
from liecas.invariants import invariant_count, structure_matrix
from liecas.polynomial import CommPoly
from liecas.virtual_copy import build_operators, make_spec, verify

from property_suites import ALL_SUITES, roster
from table_oracles import (
    QUADRATIC_ROWS,
    boson_table,
    contracted_boson_dressing,
    engine_bracket,
    environments,
    functionally_independent,
    instantiate,
    is_invariant,
    levi_quadratic_casimir,
    lift_casimir,
    pencil_matrix,
    rhs_terms,
)

SINGLE_EXTENSIONS = ("IHa_L", "IHa_M", "IHa_A")
DOUBLE_EXTENSIONS = ("IHa_AM", "IHa_AL", "IHa_LM")
N_FAMILIES = ("Ha", "IHa", "QHa") + SINGLE_EXTENSIONS + DOUBLE_EXTENSIONS


def _algebra(name, N=None):
    algebra, _ = build(name, N)
    return algebra


def _variable(algebra, name):
    return CommPoly.variable(algebra.dim, algebra.name_index[name])


def test_criterion_1():
    # exact invariant counts through the matrix-rank route
    cases = []
    for N in (3, 4, 5, 6):
        cases.append(("Ha", N, N // 2 + 1))
        cases.append(("IHa", N, N // 2 + 1))
    for N in (3, 4, 5):
        cases.append(("QHa", N, N // 2 + 4))
    for N in (3, 4):
        for fam in SINGLE_EXTENSIONS:
            cases.append((fam, N, N // 2 + 2))
        for fam in DOUBLE_EXTENSIONS:
            cases.append((fam, N, N // 2 + 3))
    assert len(cases) == 23
    for fam, N, expected in cases:
        report = invariant_count(_algebra(fam, N), method="bb")
        assert report.count == expected, (fam, N, report.count)


def test_criterion_2():
    # the 2-form pencil route must land on the same counts everywhere
    targets = [(fam, N) for fam in N_FAMILIES for N in (3, 4, 5)]
    targets += [("so", N) for N in (3, 4, 5)]
    targets += [("heisenberg", N) for N in (3, 4, 5)]
    targets += [("weyl_quesne", n) for n in (1, 2)]
    targets += [("su11", None), ("boson_example", None),
                ("boson_example_contracted", None)]
    for fid in targets:
        algebra, _ = build(*fid)
        bb = invariant_count(algebra, method="bb")
        bb1 = invariant_count(algebra, method="bb1")
        assert bb1.count == algebra.dim - bb1.generic_rank
        assert bb1.count == bb.count, (fid, bb.count, bb1.count)
    # pinned pairing half-ranks: j0 = 8 for both 3-dimensional members
    for fam in ("IHa", "QHa"):
        report = invariant_count(_algebra(fam, 3), method="bb1")
        assert report.generic_rank == 16, (fam, report.generic_rank)
    # both routes rank one matrix: at seeded a, the alternating matrix of
    # sum_k a_k d w_k, read off the structure 2-forms through the wedge
    # oracle, is A(a) entry for entry
    rng = random.Random(1729)
    for name, family in FAMILIES.items():
        algebra = _algebra(name, family.least)
        a = [rng.randint(-10 ** 4, 10 ** 4) for _ in range(algebra.dim)]
        assert pencil_matrix(algebra, a) == structure_matrix(algebra, a), name


def test_criterion_3():
    # every shipped dressing verifies with residuals exactly zero
    fids = [(fam, N) for fam in N_FAMILIES for N in (3, 4)]
    fids += [("weyl_quesne", n) for n in (1, 2)]
    fids += [("boson_example", None)]
    for fid in fids:
        algebra, spec = build(*fid)
        assert spec is not None, fid
        report = verify(algebra, spec)
        assert report.passed, (fid, report.describe())


def test_criterion_4():
    # the transcribed bracket tables, corrected rows, full index sweeps
    for fam, N in (("QHa", 3), ("QHa", 4), ("IHa", 3), ("IHa", 4)):
        algebra = _algebra(fam, N)
        for row in QUADRATIC_ROWS:
            label, lhs = row[0], row[1]
            terms = rhs_terms(row)
            for env in environments(N, lhs[0]):
                want = instantiate(algebra, terms, env)
                assert want is not None, label
                assert engine_bracket(algebra, lhs, env) == want, (fam, label)
    for alpha in (0, 1):
        algebra = boson_algebra(Fraction(alpha))
        table = boson_table(Fraction(alpha))
        names = algebra.names
        for s, a in enumerate(names):
            for b in names[s + 1:]:
                want = PBWElement(algebra)
                for m, c in table.get((a, b), {}).items():
                    want = want + PBWElement.generator(algebra, m).scale(c)
                got = derivation(PBWElement.generator(algebra, b),
                                 ad_images(algebra, algebra.index(a)))
                assert got == want, (alpha, a, b)


def test_criterion_5():
    # generated coefficients are invariants; with the central generators
    # (and, where independent, the dressing function) they form a full
    # functionally independent set
    central = {"Ha": ("R",), "IHa": ("T",), "QHa": ("L", "A", "M")}
    for fam in ("Ha", "IHa", "QHa"):
        algebra, spec = build(fam, 3)
        cs = casimir_set(algebra, spec)
        polys = []
        for l in sorted(cs.coefficients):
            poly = cs.coefficients[l]
            flag, violations = is_invariant(algebra, poly)
            assert flag and not violations, (fam, l)
            polys.append(poly)
        for name in central[fam]:
            polys.append(_variable(algebra, name))
        if fam == "QHa":
            polys.append(spec.f.commutative_image())
        assert len(polys) == invariant_count(algebra, method="bb").count
        assert functionally_independent(algebra, polys), fam
    # the symmetrized quadratic lift is central in the enveloping algebra
    algebra, spec = build("Ha", 3)
    lifted = lift_casimir(algebra, spec, levi_quadratic_casimir(algebra))
    assert algebra.dim == 10
    for i in range(algebra.dim):
        assert derivation(lifted, ad_images(algebra, i, -1)).is_zero(), \
            algebra.names[i]


def test_criterion_6():
    # no generated invariant of the full extension involves x_E
    algebra, spec = build("QHa", 3)
    cs = casimir_set(algebra, spec)
    polys = [cs.coefficients[l] for l in sorted(cs.coefficients)]
    polys.append(spec.f.commutative_image())
    for name in ("L", "A", "M"):
        polys.append(_variable(algebra, name))
    e = algebra.name_index["E"]
    for poly in polys:
        assert all(e not in w for w in poly.terms)


def test_criterion_7():
    # end to end: weighting the oscillator pair by one carries algebra,
    # dressing, operators, and Casimir onto the alpha = 0 member, whose
    # brackets and dressing are written out by hand
    algebra, spec = build("boson_example")
    w = ContractionWeights(algebra, {"Q_1": 1, "P_1": 1, "E": 1, "T": 1})
    outcome = contract_copy(algebra, spec, w)

    assert outcome.copy_compatible

    target = boson_algebra(0)
    target_spec = contracted_boson_dressing(target)
    prime = outcome.algebra_prime
    assert prime.names == target.names
    assert prime.brackets == target.brackets
    assert prime.levi == target.levi

    assert outcome.spec_prime.f.terms == target_spec.f.terms
    displayed = build_operators(target, target_spec)
    for i in sorted(prime.levi):
        assert outcome.spec_prime.P[i].terms == target_spec.P[i].terms
        assert outcome.operators_prime[i].terms == displayed[i].terms

    assert outcome.verify_report is not None
    assert outcome.verify_report.passed

    lifted = lift_casimir(algebra, spec, levi_quadratic_casimir(algebra))
    top, lead = weighted_leading_part(lifted, w)
    assert top == 4
    lifted_prime = lift_casimir(prime, outcome.spec_prime,
                                levi_quadratic_casimir(prime))
    assert transplant(lead, prime).terms == lifted_prime.terms


def test_criterion_8():
    # a weighting that skews the dressing against its completions is
    # refused with its top weights, and forcing it anyway breaks the
    # radical commutation
    algebra, spec = build("IHa", 3)
    with pytest.raises(LimitDoesNotExistError) as err:
        contract_copy(algebra, spec, ContractionWeights(algebra, {"T": 3}))

    assert err.value.triple == ("G_1", "Q_1", "T")
    assert err.value.weight == -3
    assert err.value.payload == {
        "f_top_weight": 6,
        "p_top_weights": {"J_12": 3, "J_13": 3, "J_23": 3},
        "copy_compatible": False}

    naive = make_spec(algebra, spec.f, {})
    report = verify(algebra, naive)
    assert not report.passed
    radical = report.residuals["radical_residuals"]
    assert radical
    assert all(not r.is_zero() for r in radical.values())


def test_criterion_9():
    # the seven randomized suites, 100 seeded cases each, zero failures
    algebras = roster()
    assert len(ALL_SUITES) == 7
    for suite in ALL_SUITES:
        assert suite(algebras, seed=1729, cases=100) == 100
