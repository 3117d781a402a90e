import random
from fractions import Fraction

import pytest

import liecas.casimir_gen
from liecas.casimir_gen import (
    CasimirSet,
    build_so_matrix,
    casimir_set,
    char_poly_coefficients,
    check_covariance,
    rotation_block,
)
from liecas.catalog import FAMILIES, build, so_algebra
from liecas.enveloping import (
    DEGREE_CAP,
    PBWElement,
    ad_images,
    derivation,
    u_mul,
)
from liecas.errors import (
    DegreeOverflowError,
    InternalConsistencyError,
    NotApplicableError,
    PreconditionError,
)
from liecas.lie_core import LieAlgebra
from liecas.polynomial import CommPoly
from liecas.virtual_copy import make_spec

from property_suites import normal_order_footprint
from table_oracles import (
    char_poly_cofactor,
    evaluate,
    functionally_independent,
    is_invariant,
    levi_quadratic_casimir,
    lift_casimir,
    partial,
)


def b(name, N=None):
    return build(name, N)


# the families whose Levi part is a dressed rotation block J_ij
ROTATION_FAMILIES = tuple(name for name, fam in FAMILIES.items()
                          if fam.dressed and fam.parameter == "N")


def x(nvars, i):
    return CommPoly.monomial(nvars, (i,))


def fraction_det(rows):
    """Plain Fraction determinant by Gaussian elimination, for oracles."""
    n = len(rows)
    work = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if work[r][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        det *= work[k][k]
        inv = 1 / work[k][k]
        for r in range(k + 1, n):
            factor = work[r][k] * inv
            if factor:
                work[r] = [a - factor * bb for a, bb in zip(work[r], work[k])]
    return det


# ---- block detection -----------------------------------------------------------


def test_rotation_block_size():
    assert rotation_block(so_algebra(2)) == (2, {(0, 1): 0})
    assert rotation_block(so_algebra(5))[0] == 5
    ha4 = b("Ha", 4)[0]
    N, block = rotation_block(ha4)
    assert N == 4
    assert block == {(a, b): ha4.index("J_%d%d" % (a + 1, b + 1))
                     for a in range(4) for b in range(a + 1, 4)}
    assert rotation_block(b("heisenberg", 2)[0]) == (1, {})
    with pytest.raises(NotApplicableError,
                       match="'X_-1,1' is not of the J_ij form"):
        rotation_block(b("su11")[0])
    gappy = LieAlgebra(["J_12", "J_13"], {}, levi=[0, 1])
    with pytest.raises(NotApplicableError,
                       match="not a full rotation block"):
        rotation_block(gappy)
    backwards = LieAlgebra(["J_21"], {}, levi=[0])
    with pytest.raises(NotApplicableError, match="bad rotation label"):
        rotation_block(backwards)


def test_rotation_block_refuses_another_sign_convention():
    # so(3) with every J_ij negated: [J_12, J_13] = +J_23 where so(3) in
    # naming.rotation_relations has -J_23, and the first pair is named
    so3 = so_algebra(3)
    negated = LieAlgebra(so3.names, {ij: {k: -c for k, c in row.items()}
                                     for ij, row in so3.brackets.items()},
                         levi=sorted(so3.levi))
    with pytest.raises(NotApplicableError) as err:
        rotation_block(negated)
    assert str(err.value) == (
        "Levi bracket [J_12, J_13] is not the so(3) bracket of its labels, "
        "[J_ij, J_jk] = J_ik, [J_ij, J_ik] = -J_jk and [J_ik, J_jk] = -J_ij "
        "for i < j < k")
    # so(2) has no bracket to compare, and commuting rotations are not so(3)
    assert rotation_block(LieAlgebra(["J_12"], {}, levi=[0])) == (
        2, {(0, 1): 0})
    with pytest.raises(NotApplicableError, match=r"\[J_12, J_13\]"):
        rotation_block(LieAlgebra(so3.names, {}, levi=[0, 1, 2]))


# ---- closed forms --------------------------------------------------------------


def test_char_poly_2x2():
    coeffs = char_poly_coefficients(2, {(0, 1): x(1, 0)}, 1)
    assert coeffs == {1: x(1, 0) * x(1, 0)}


def test_char_poly_3x3():
    a, bb, c = x(3, 0), x(3, 1), x(3, 2)
    coeffs = char_poly_coefficients(3, {(0, 1): a, (0, 2): bb, (1, 2): c}, 3)
    assert coeffs == {1: a * a + bb * bb + c * c}


def test_char_poly_4x4_pfaffian():
    a12, a13, a14 = x(6, 0), x(6, 1), x(6, 2)
    a23, a24, a34 = x(6, 3), x(6, 4), x(6, 5)
    coeffs = char_poly_coefficients(4, {
        (0, 1): a12, (0, 2): a13, (0, 3): a14,
        (1, 2): a23, (1, 3): a24, (2, 3): a34}, 6)
    assert coeffs[1] == (a12 * a12 + a13 * a13 + a14 * a14
                         + a23 * a23 + a24 * a24 + a34 * a34)
    pf = a12 * a34 - a13 * a24 + a14 * a23
    assert coeffs[2] == pf * pf


def test_char_poly_reads_the_entries_above_the_diagonal_alone():
    # an entry left out is zero, and a key below the diagonal is never read
    a, bb = x(2, 0), x(2, 1)
    zero = CommPoly(2)
    assert char_poly_coefficients(3, {(1, 2): a}, 2) == {1: a * a}
    assert char_poly_coefficients(4, {(0, 1): a, (2, 3): bb}, 2) == {
        1: a * a + bb * bb, 2: a * a * bb * bb}
    assert char_poly_coefficients(2, {(1, 0): a}, 2) == {1: zero}
    assert char_poly_coefficients(1, {}, 2) == {}


# ---- Pfaffian expansion against independent references --------------------------


@pytest.mark.parametrize("name,N", [("Ha", 3), ("Ha", 4), ("IHa", 3),
                                    ("QHa", 3)])
def test_pfaffian_matches_cofactor_expansion(name, N):
    algebra, spec = b(name, N)
    size, upper = build_so_matrix(algebra, spec)
    coeffs = char_poly_coefficients(size, upper, algebra.dim)
    reference = char_poly_cofactor(size, upper, algebra.dim)
    by_power = {}
    for w, c in reference.terms.items():
        # T is the last variable, so its letters close each sorted word
        power = w.count(algebra.dim)
        by_power.setdefault(power, {})[w[:len(w) - power]] = c
    for l, poly in coeffs.items():
        assert CommPoly(algebra.dim, by_power.get(N - 2 * l, {})) == poly


@pytest.mark.parametrize("name,N", [("Ha", 4), ("QHa", 3), ("Ha", 5),
                                    ("IHa", 4), ("QHa", 4)])
def test_char_poly_at_random_points(name, N):
    algebra, spec = b(name, N)
    size, upper = build_so_matrix(algebra, spec)
    assert size == N
    coeffs = char_poly_coefficients(N, upper, algebra.dim)
    # the premise of the up-front degree-cap refusal in casimir_set
    assert all(p.degree() == 2 * l * spec.k for l, p in coeffs.items())
    rng = random.Random(99)
    for _ in range(5):
        point = [Fraction(rng.randint(-20, 20)) for _ in range(algebra.dim)]
        t0 = Fraction(rng.randint(-9, 9))
        a = {ij: evaluate(entry, point) for ij, entry in upper.items()}
        numeric = [[t0 if i == j else -a[(i, j)] if i < j else a[(j, i)]
                    for j in range(N)] for i in range(N)]
        det = fraction_det(numeric)
        recomputed = t0 ** N + sum(evaluate(p, point) * t0 ** (N - 2 * l)
                                   for l, p in coeffs.items())
        assert det == recomputed


# ---- full generation on the catalog ---------------------------------------------


def test_casimir_set_hamilton_3():
    algebra, spec = b("Ha", 3)
    cs = casimir_set(algebra, spec)
    assert isinstance(cs, CasimirSet)
    assert cs.N == 3
    assert {l: p.degree() for l, p in cs.coefficients.items()} == {1: 4}
    assert cs.checked == {1: True}
    flag, violations = is_invariant(algebra, cs.coefficients[1])
    assert flag and not violations
    sym = cs.symmetrized[1]
    for t in range(algebra.dim):
        assert not derivation(sym, ad_images(algebra, t))
    assert (sym.commutative_image().monomials()[0]
            == cs.coefficients[1].monomials()[0])


def test_casimir_set_inhomogeneous_3():
    algebra, spec = b("IHa", 3)
    cs = casimir_set(algebra, spec)
    assert {l: p.degree() for l, p in cs.coefficients.items()} == {1: 6}
    # degree 6 is exactly UCHECK_DEGREE_CAP, so the centrality check runs
    assert cs.checked == {1: True}
    ix = algebra.name_index
    # dressing is built from T and R only; the three extension letters
    # are absent and E never appears in an invariant
    used = {v for w, _ in cs.coefficients[1].monomials() for v in w}
    assert ix["E"] not in used
    assert not partial(cs.coefficients[1], ix["E"])


def test_casimir_set_footprint_on_qha3():
    # symmetrizing through per-group averages and checking each [X_t, C]
    # as a derivation against the 7 generators of a Lie generating set
    # take about 10,600 _normal_word calls; against all 21 generators,
    # about 20,700, and with two full products per check about 91,000.
    # Normal forms live for one call: a per-algebra cache of them kept
    # about 4.8 MB
    algebra, spec = b("QHa", 3)
    calls, retained = normal_order_footprint(lambda: casimir_set(algebra, spec))
    assert calls < 12000
    assert retained < 64 * 1024


@pytest.mark.parametrize("name", ROTATION_FAMILIES)
def test_casimir_set_refuses_a_symmetrization_that_is_not_central(
        name, monkeypatch):
    # F_1 added to the symmetrized C_2 fails to commute with J_12, the
    # first generator of the generating set the check runs over
    algebra, spec = b(name, FAMILIES[name].least)
    symmetrize = liecas.casimir_gen.symmetrize
    monkeypatch.setattr(
        liecas.casimir_gen, "symmetrize",
        lambda algebra, poly: (symmetrize(algebra, poly)
                               + PBWElement.generator(algebra, "F_1")))
    with pytest.raises(InternalConsistencyError) as err:
        casimir_set(algebra, spec)
    assert str(err.value) == "symmetrized C_2 fails to commute with J_12"


def test_casimir_set_checks_the_spec_first():
    algebra, spec = b("Ha", 3)
    hollow = make_spec(algebra, spec.f,
                       {i: PBWElement(algebra) for i in algebra.levi})
    with pytest.raises(PreconditionError):
        casimir_set(algebra, hollow)
    with pytest.raises(PreconditionError):
        build_so_matrix(algebra, hollow)
    # a failing dressing keeps its answer where the Levi part is not a
    # rotation block at all
    boson, boson_spec = b("boson_example")
    hollow = make_spec(boson, boson_spec.f, {})
    with pytest.raises(PreconditionError):
        casimir_set(boson, hollow)


def test_casimir_set_refuses_an_over_cap_rotation_block(monkeypatch):
    # IHa dresses with k = 3, so C_6 of the 6 x 6 block has degree 18 > 12;
    # the refusal comes before any char-poly work
    algebra, spec = b("IHa", 6)

    def no_char_poly(*matrix):
        raise AssertionError("char-poly computed for an over-cap block")

    monkeypatch.setattr(liecas.casimir_gen, "char_poly_coefficients",
                        no_char_poly)
    with pytest.raises(DegreeOverflowError) as err:
        casimir_set(algebra, spec)
    assert str(err.value) == "word of length 18 exceeds the degree cap 12"


@pytest.mark.parametrize("name", ROTATION_FAMILIES)
def test_casimir_set_refuses_a_matrix_that_fails_covariance(name, monkeypatch):
    # x_r^k added to A_12 (and taken from A_21) leaves [K_t, A]_12 as it
    # was for every t, so entry (1, 2) fails first, at the first generator
    # that moves x_r; the refusal comes before any char-poly work
    algebra, spec = b(name, FAMILIES[name].least)
    N, upper = build_so_matrix(algebra, spec)
    r = min(r for r in algebra.radical
            if any(algebra.bracket_basis(t, r) for t in range(algebra.dim)))
    upper[(0, 1)] = upper[(0, 1)] + CommPoly.monomial(algebra.dim,
                                                      (r,) * spec.k)

    def no_char_poly(*matrix):
        raise AssertionError("char-poly computed before the covariance check")

    monkeypatch.setattr(liecas.casimir_gen, "build_so_matrix",
                        lambda algebra, spec: (N, upper))
    monkeypatch.setattr(liecas.casimir_gen, "char_poly_coefficients",
                        no_char_poly)
    with pytest.raises(InternalConsistencyError) as err:
        casimir_set(algebra, spec)
    mover = next(t for t in range(algebra.dim) if algebra.bracket_basis(t, r))
    assert str(err.value) == (
        "dressed matrix entry (1, 2) fails covariance against %s"
        % algebra.names[mover])


def test_every_dressed_matrix_casimirs_accepts_is_covariant():
    # each rotation family from its least N up to the degree cap; the
    # dressed matrix of QHa(5) is certified in milliseconds, where
    # differentiating its C_2l took about 21 s under a profiler
    certified = []
    for name in ROTATION_FAMILIES:
        N = FAMILIES[name].least
        while True:
            algebra, spec = b(name, N)
            if 2 * (N // 2) * spec.k > DEGREE_CAP:
                break
            images = [ad_images(algebra, t) for t in range(algebra.dim)]
            check_covariance(algebra, build_so_matrix(algebra, spec)[1],
                             images)
            certified.append((name, N))
            N += 1
    assert len(certified) == 29
    assert ("Ha", 7) in certified and ("QHa", 5) in certified


@pytest.mark.parametrize("name", ROTATION_FAMILIES)
def test_oracle_finds_every_coefficient_invariant(name):
    # the covariance check replaces differentiating each C_2l; the slow
    # oracle still agrees at each family's least N
    algebra, spec = b(name, FAMILIES[name].least)
    coeffs = char_poly_coefficients(*build_so_matrix(algebra, spec),
                                    algebra.dim)
    assert coeffs
    for l, poly in coeffs.items():
        assert is_invariant(algebra, poly) == (True, []), (name, l)


@pytest.mark.parametrize("name", ROTATION_FAMILIES)
def test_lifted_levi_casimir_matches_the_symmetrized_c2(name):
    # the paper's lift of sum J_ij^2 and casimirs' symmetrized C_2 are both
    # central of degree 2k with one top symbol, so they differ by a central
    # element of lower degree
    algebra, spec = b(name, FAMILIES[name].least)
    lifted = lift_casimir(algebra, spec, levi_quadratic_casimir(algebra))
    assert lifted.degree() == 2 * spec.k
    diff = lifted - casimir_set(algebra, spec).symmetrized[1]
    assert diff.degree() < 2 * spec.k
    for t in range(algebra.dim):
        assert not derivation(diff, ad_images(algebra, t, -1)), \
            algebra.names[t]


def test_build_so_matrix_shape():
    algebra, spec = b("Ha", 3)
    N, upper = build_so_matrix(algebra, spec)
    assert N == 3 and sorted(upper) == [(0, 1), (0, 2), (1, 2)]
    for (a, bb), entry in upper.items():
        name = "J_%d%d" % (a + 1, bb + 1)
        assert entry == (u_mul(PBWElement.generator(algebra, name), spec.f)
                         + spec.P[algebra.index(name)]).commutative_image()


def test_one_by_one_block_is_trivial():
    algebra, _ = b("heisenberg", 1)
    spec = make_spec(algebra, PBWElement.generator(algebra, "Z"), {})
    assert build_so_matrix(algebra, spec) == (1, {})
    cs = casimir_set(algebra, spec)
    assert cs.coefficients == {} and cs.symmetrized == {} and cs.checked == {}


@pytest.mark.parametrize("name,N", [("Ha", 3), ("Ha", 4), ("IHa", 3), ("IHa", 4)])
def test_f_image_and_coefficients_independent(name, N):
    algebra, spec = b(name, N)
    coeffs = char_poly_coefficients(*build_so_matrix(algebra, spec),
                                    algebra.dim)
    polys = [spec.f.commutative_image()] + [coeffs[l] for l in sorted(coeffs)]
    assert functionally_independent(algebra, polys)
