"""Randomized property suites shared between unit tests and the acceptance
module.  Each suite takes a list of algebras (rank_agreement, on plain
matrices, takes none), a seed, and a case count, asserts every case, and
returns the number of cases exercised.  normal_order_footprint measures
the normal-ordering work and the memory a call leaves behind, for the
footprint guards.  Imports of package modules happen inside the
functions so this file can be imported before the whole package exists
at collection time.
"""

import copy
import random
from fractions import Fraction

from liecas.lie_core import LieAlgebra


def roster():
    """Small algebras with different flavors: semisimple, nilpotent, mixed."""
    sl2 = LieAlgebra(
        ["H", "E", "F"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        levi=[0, 1, 2])
    h2 = LieAlgebra(
        ["P_1", "P_2", "Q_1", "Q_2", "Z"],
        {(0, 2): {4: 1}, (1, 3): {4: 1}},
        levi=[])
    so3_z = LieAlgebra(
        ["e1", "e2", "e3", "Z"],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        levi=[0, 1, 2], radical=[3])
    # solvable non-nilpotent: [A, X] = X, [A, Y] = 2Y
    sol = LieAlgebra(
        ["A", "X", "Y"],
        {(0, 1): {1: 1}, (0, 2): {2: 2}},
        levi=[])
    return [sl2, h2, so3_z, sol]


def random_fraction(rng):
    num = rng.randint(-9, 9)
    return Fraction(num if num else 1, rng.randint(1, 4))


def random_pbw(algebra, rng, max_len=2, max_terms=3):
    from liecas.enveloping import PBWElement
    raw = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_len)
        word = tuple(rng.randrange(algebra.dim) for _ in range(length))
        raw[word] = raw.get(word, 0) + random_fraction(rng)
    return PBWElement.from_terms(algebra, raw)


def random_poly(nvars, rng, max_deg=3, max_terms=4):
    from liecas.polynomial import CommPoly
    p = CommPoly(nvars)
    for _ in range(rng.randint(1, max_terms)):
        word = [rng.randrange(nvars) for _ in range(rng.randint(0, max_deg))]
        mono = CommPoly.monomial(nvars, word, random_fraction(rng))
        p = p + mono
    return p


def random_form(algebra, rng, grade, max_terms=4):
    from table_oracles import ExteriorElement
    n = algebra.dim
    if grade > n:
        grade = n
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = tuple(sorted(rng.sample(range(n), grade)))
        terms[idx] = terms.get(idx, 0) + random_fraction(rng)
    terms = {k: Fraction(v) for k, v in terms.items() if v}
    return ExteriorElement(n, terms)


# ---- the seven suites -------------------------------------------------------


def pbw_associativity(algebras, seed, cases):
    from liecas.enveloping import u_mul
    rng = random.Random(seed)
    for t in range(cases):
        g = algebras[t % len(algebras)]
        a = random_pbw(g, rng)
        b = random_pbw(g, rng)
        c = random_pbw(g, rng)
        assert u_mul(u_mul(a, b), c) == u_mul(a, u_mul(b, c)), \
            "associativity failed in %r at case %d" % (g, t)
    return cases


def ug_jacobi(algebras, seed, cases):
    from table_oracles import commutator_direct as bracket
    rng = random.Random(seed)
    for t in range(cases):
        g = algebras[t % len(algebras)]
        a = random_pbw(g, rng)
        b = random_pbw(g, rng)
        c = random_pbw(g, rng)
        total = (bracket(bracket(a, b), c) + bracket(bracket(b, c), a)
                 + bracket(bracket(c, a), b))
        assert not total, "U(g) Jacobi failed in %r at case %d" % (g, t)
    return cases


def exterior_leibniz(algebras, seed, cases):
    from table_oracles import differential, wedge
    rng = random.Random(seed)
    for t in range(cases):
        g = algebras[t % len(algebras)]
        p = rng.choice((1, 2))
        q = rng.choice((1, 2))
        alpha = random_form(g, rng, p)
        beta = random_form(g, rng, q)
        lhs = differential(g, wedge(alpha, beta))
        rhs = wedge(differential(g, alpha), beta)
        sign_term = wedge(alpha, differential(g, beta)).scale((-1) ** p)
        assert lhs == rhs + sign_term, \
            "Leibniz failed in %r at case %d" % (g, t)
    return cases


def derivation_law(algebras, seed, cases):
    from liecas.casimir_gen import xhat
    from liecas.enveloping import ad_images
    rng = random.Random(seed)
    for t in range(cases):
        g = algebras[t % len(algebras)]
        images = ad_images(g, rng.randrange(g.dim))
        f = random_poly(g.dim, rng)
        h = random_poly(g.dim, rng)
        lhs = xhat(f * h, images)
        rhs = xhat(f, images) * h + f * xhat(h, images)
        assert lhs == rhs, "derivation law failed in %r at case %d" % (g, t)
    return cases


def representation_property(algebras, seed, cases):
    from liecas.casimir_gen import xhat
    from liecas.enveloping import ad_images
    from liecas.polynomial import CommPoly
    rng = random.Random(seed)
    for t in range(cases):
        g = algebras[t % len(algebras)]
        i = rng.randrange(g.dim)
        j = rng.randrange(g.dim)
        f = random_poly(g.dim, rng)

        def apply(k, poly):
            return xhat(poly, ad_images(g, k))

        lhs = apply(i, apply(j, f)) - apply(j, apply(i, f))
        rhs = CommPoly(g.dim)
        for k, c in g.bracket_basis(i, j).items():
            rhs = rhs + apply(k, f).scale(c)
        assert lhs == rhs, \
            "representation property failed in %r at case %d" % (g, t)
    return cases


def d_squared_zero(algebras, seed, cases):
    from table_oracles import differential
    rng = random.Random(seed)
    for t in range(cases):
        g = algebras[t % len(algebras)]
        omega = random_form(g, rng, rng.choice((1, 2)))
        dd = differential(g, differential(g, omega))
        assert not dd, "d^2 != 0 in %r at case %d" % (g, t)
    return cases


def wedge_rank_agreement(algebras, seed, cases):
    from liecas.linalg import rank
    from table_oracles import (P61, alternating_matrix, upper_entries,
                               wedge_rank_slow)
    rng = random.Random(seed)
    for t in range(cases):
        g = algebras[t % len(algebras)]
        omega = random_form(g, rng, 2)
        assert rank(upper_entries(alternating_matrix(omega)), P61) \
            == 2 * wedge_rank_slow(omega), \
            "wedge rank mismatch in %r at case %d" % (g, t)
    return cases


def mixed_denominators(rng):
    """A small rational whose denominator is any of 1..12."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def halves(rng):
    """A small integer or half."""
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2)))


def prime_power_denominators(rng):
    """A rational over a product of a small prime and a prime square, so
    one matrix mixes denominators whose lcm is large."""
    return Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 5, 7, 11, 13))
                    * rng.choice((1, 4, 9, 25, 49, 121)))


def random_alternating(rng, n, density, entry):
    """An n x n alternating matrix with entry(rng) at about `density` of
    the places above the diagonal."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                m[i][j] = entry(rng)
                m[j][i] = -m[i][j]
    return m


def congruent(m, b):
    """B M B^T: alternating when M is, of rank at most that of M and at
    most the number of columns of B."""
    bm = [[sum((x * m[k][j] for k, x in enumerate(row)), Fraction(0))
           for j in range(len(m))] for row in b]
    return [[sum((x * y for x, y in zip(left, right)), Fraction(0))
             for right in b] for left in bm]


def shuffled(rng, m):
    """m with one permutation applied to its rows and to its columns, which
    keeps it alternating and keeps its rank."""
    order = rng.sample(range(len(m)), len(m))
    return [[m[i][j] for j in order] for i in order]


def rank_agreement(seed, cases):
    """linalg.rank, on the entries above the diagonal, against the rank
    over Q of the dense matrix by Gaussian elimination over Fraction and
    by Bareiss elimination.  The matrices are alternating, and the cases
    cycle through: a dense one with mixed denominators; a congruence
    B J B^T of the standard symplectic J of size 2k below n, so rank
    deficient; either of those with row-and-column pairs zeroed; a sparse
    one up to 20 x 20 with a null vector hidden by congruences; a
    block-diagonal one; a 0 x 0, 1 x 1 or 2 x 2 one; a denser one whose
    denominators have a large lcm; and a sparse one extended by a row and
    column that combine two others.  All but the first and the smallest
    have one shuffle applied to their rows and their columns, so no zero
    pattern lines up with the index order.  Not in ALL_SUITES: it takes
    no algebras.  Each case is ranked mod its own random 61-bit prime,
    drawn as invariant_count draws them."""
    from liecas.invariants import _prime
    from liecas.linalg import rank
    from table_oracles import (alternating_from_upper, rank_bareiss,
                               rank_fraction, upper_entries)
    rng, primes = random.Random(seed), random.Random("%d:p" % seed)
    for t in range(cases):
        kind = t % 8
        n = rng.randint(2, 10)
        if kind == 0:
            m = random_alternating(rng, n - 1, 0.8, mixed_denominators)
        elif kind in (1, 2):
            k = rng.randint(1, (n - 1) // 2 or 1)
            j = [[Fraction(0)] * (2 * k) for _ in range(2 * k)]
            for s in range(0, 2 * k, 2):
                j[s][s + 1], j[s + 1][s] = Fraction(1), Fraction(-1)
            b = [[mixed_denominators(rng) for _ in range(2 * k)]
                 for _ in range(n)]
            m = congruent(j, b)
            if kind == 2:
                if rng.random() < 0.5:
                    m = random_alternating(rng, n, 0.8, mixed_denominators)
                for i in rng.sample(range(n), rng.randint(1, n - 1)):
                    m[i] = [Fraction(0)] * n
                    for row in m:
                        row[i] = Fraction(0)
            m = shuffled(rng, m)
        elif kind == 3:
            n = rng.randint(2, 20)
            m = random_alternating(rng, n - 1, 0.15, halves)
            m = [row + [Fraction(0)] for row in m] + [[Fraction(0)] * n]
            # X -> E^T X E with E = 1 + c e_i e_j^T keeps X alternating and
            # its rank, and moves the null vector e_n off the basis
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-3, 3)
                for row in m:
                    row[j] += c * row[i]
                m[j] = [a + c * b for a, b in zip(m[j], m[i])]
            m = shuffled(rng, m)
        elif kind == 4:
            blocks = [random_alternating(rng, rng.randint(1, 6),
                                         rng.choice((0.3, 0.7)), halves)
                      for _ in range(rng.randint(2, 4))]
            n = sum(len(b) for b in blocks)
            m, left = [], 0
            for b in blocks:
                right = n - left - len(b)
                m += [[Fraction(0)] * left + row + [Fraction(0)] * right
                      for row in b]
                left += len(b)
            m = shuffled(rng, m)
        elif kind == 5:
            m = random_alternating(rng, rng.randint(0, 2), 0.7,
                                   mixed_denominators)
        elif kind == 6:
            m = random_alternating(rng, n + 2, 0.6, prime_power_denominators)
            m = shuffled(rng, m)
        else:
            n = rng.randint(8, 20)
            m = random_alternating(rng, n, 0.2, halves)
            i, j = rng.sample(range(n), 2)
            b = [[Fraction(int(c == r)) for c in range(n)] for r in range(n)]
            b.append([Fraction((c == i) + 2 * (c == j)) for c in range(n)])
            m = shuffled(rng, congruent(m, b))
        upper = upper_entries(m)
        assert alternating_from_upper(upper, len(m)) == m, \
            "case %d is not alternating: %r" % (t, m)
        want = rank_fraction(m)
        assert rank_bareiss(m) == want, "Bareiss rank of %r is not %d" % (m, want)
        p = _prime(primes)
        assert rank(upper, p) == want, \
            "rank of %r mod %d is %d, got %d" \
            % (upper, p, want, rank(upper, p))
    return cases


def catalog_algebras(every_n=False):
    """Every catalog family built at its least N and least N + 1, or at
    every N it supports; the parameterless families once, boson_example
    at its default alpha."""
    from liecas.catalog import FAMILIES, build
    algebras = []
    for name, family in FAMILIES.items():
        if family.least is None:
            ns = [None]
        elif every_n:
            ns = range(family.least, family.most + 1)
        else:
            ns = (family.least, family.least + 1)
        algebras += [build(name, n)[0] for n in ns]
    return algebras


def structure_rank_agreement(algebras, seed, points):
    """linalg.rank on invariants.structure_matrix against
    table_oracles.rank_bareiss on the dense matrix built from the same
    entries, at `points` seeded integer points per algebra, drawn from the
    range invariant_count samples, each ranked mod a random prime drawn as
    invariant_count draws them; returns the number of matrices ranked.
    Not in ALL_SUITES: it ranks whole catalog algebras, which is slow."""
    from liecas.invariants import _HIGH, _LOW, _prime, structure_matrix
    from liecas.linalg import rank
    from table_oracles import alternating_from_upper, rank_bareiss
    rng, primes = random.Random(seed), random.Random("%d:p" % seed)
    for a, g in enumerate(algebras):
        for t in range(points):
            point = [rng.randint(_LOW, _HIGH) for _ in range(g.dim)]
            upper = structure_matrix(g, point)
            want = rank_bareiss(alternating_from_upper(upper, g.dim))
            p = _prime(primes)
            assert rank(upper, p) == want, \
                "algebra %d %r, point %d, mod %d: rank %d, got %d" \
                % (a, g, t, p, want, rank(upper, p))
    return len(algebras) * points


def failing_specs():
    """{label: (algebra, spec)} for three dressings that do not verify:
    IHa(3) with every P term touching R dropped, boson_example with its
    X_1,1 dressing in literal left-to-right order (misses su(1,1) closure
    by 4f), and f = G_1 on boson_example (f commutes with neither part)."""
    from liecas.catalog import build
    from liecas.enveloping import PBWElement
    from liecas.virtual_copy import make_spec
    algebra, good = build("IHa", 3)
    r = algebra.index("R")
    stripped = {i: PBWElement(algebra, {w: c for w, c in p.terms.items()
                                        if r not in w})
                for i, p in good.P.items()}
    out = {"stripped-IHa3": (algebra, make_spec(good.f, stripped))}
    algebra, good = build("boson_example")
    G, F, Q, P, R, T = (algebra.index(m)
                        for m in ("G_1", "F_1", "Q_1", "P_1", "R", "T"))
    literal = dict(good.P)
    literal[algebra.index("X_1,1")] = PBWElement.from_terms(algebra, {
        (T, Q, F): Fraction(1), (T, G, P): Fraction(1),
        (R, G, F): Fraction(-1), (R, Q, P): Fraction(-1)})
    out["literal-boson"] = (algebra, make_spec(good.f, literal))
    out["f=G_1-boson"] = (
        algebra, make_spec(PBWElement.generator(algebra, G), {}))
    return out


def perturbed_spec(algebra, spec, rng):
    """spec with one coefficient of f or of one nonzero P_i shifted by a
    random rational; the word is one of its own, or a random radical word
    of its top degree, so degrees and radical support are kept."""
    from liecas.enveloping import PBWElement
    from liecas.virtual_copy import make_spec
    target = rng.choice([None] + [i for i, p in sorted(spec.P.items()) if p])
    elem = spec.f if target is None else spec.P[target]
    if rng.random() < 0.5:
        word = rng.choice(sorted(elem.terms))
    else:
        word = tuple(sorted(rng.choice(sorted(algebra.radical))
                            for _ in range(elem.degree())))
    terms = dict(elem.terms)
    old = terms.get(word, 0)
    terms[word] = old
    while terms[word] == old or not terms[word]:
        terms[word] = old + random_fraction(rng)
    elem = PBWElement(algebra, terms)
    if target is None:
        return make_spec(elem, spec.P)
    return make_spec(spec.f, {**spec.P, target: elem})


def copy_residual_agreement(seed, cases):
    """verify's residuals, each derived from the tables [f, X_t] and
    [P_i, X_t], against table_oracles.residuals_direct, which multiplies
    every bracket out on the dressed generators.  Runs every dressed
    catalog family at its least N, the three failing_specs, an sl2 whose
    declared Levi part is not closed, then `cases` seeded perturbed_spec
    cases cycling through the specs of Ha(3), IHa(3), QHa(3),
    boson_example and weyl_quesne(2); returns the number of specs checked.
    Every condition must be nonzero on some spec.  Not in ALL_SUITES: it
    takes no algebras."""
    from liecas.catalog import FAMILIES, build
    from liecas.enveloping import PBWElement
    from liecas.virtual_copy import CONDITIONS, make_spec, verify
    from table_oracles import residuals_direct
    rng = random.Random(seed)
    specs = []
    for name, family in FAMILIES.items():
        if family.dressed:
            algebra, spec = build(name, family.least)
            specs.append(("%s(%s)" % (name, family.least), algebra, spec))
    specs.extend((label, algebra, spec)
                 for label, (algebra, spec) in failing_specs().items())
    # sl2 acting on C^2 with only {E, F} declared Levi: [E, F] = H leaks
    # into the radical, so E_EF holds the plain generator H
    leaky = LieAlgebra(
        ["H", "E", "F", "v1", "v2"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}, (0, 3): {3: 1},
         (0, 4): {4: -1}, (1, 4): {3: 1}, (2, 3): {4: 1}},
        levi=[1, 2])
    v1 = PBWElement.generator(leaky, leaky.index("v1"))
    specs.append(("leaky-sl2", leaky, make_spec(v1, {})))
    bases = [("Ha", 3), ("IHa", 3), ("QHa", 3),
             ("boson_example", None), ("weyl_quesne", 2)]
    for t in range(cases):
        fid = bases[t % len(bases)]
        algebra, spec = build(*fid)
        specs.append(("perturbed %s(%s) #%d" % (*fid, t), algebra,
                      perturbed_spec(algebra, spec, rng)))
    nonzero = dict.fromkeys((name for name, _line in CONDITIONS), 0)
    for label, algebra, spec in specs:
        want = residuals_direct(algebra, spec)
        assert verify(spec).residuals == want, \
            "residuals differ on %s" % label
        for name, found in want.items():
            nonzero[name] += bool(found)
    assert all(nonzero.values()), "a condition never fails: %r" % nonzero
    return len(specs)


def derivation_agreement(seed, cases):
    """enveloping.derivation by ad_images(g, t, c) (c not 0 or 1) against
    the explicit ab - ba of table_oracles.commutator_direct, with the
    generator c X_t on the left, and by ad_images(g, t, -c) with it on the
    right.  The other factor is a seeded random element of degree at most
    6 that is not itself a scaled generator; the cases cycle through
    every catalog family at its least N.  Not in ALL_SUITES: it takes no
    algebras."""
    from liecas.catalog import FAMILIES, build
    from liecas.enveloping import PBWElement, ad_images, derivation
    from table_oracles import commutator_direct
    rng = random.Random(seed)
    algebras = [build(name, family.least)[0]
                for name, family in FAMILIES.items()]
    for t in range(cases):
        g = algebras[t % len(algebras)]
        c = random_fraction(rng)
        while c == 1:
            c = random_fraction(rng)
        s = rng.randrange(g.dim)
        x = PBWElement.generator(g, s).scale(c)
        b = random_pbw(g, rng, max_len=6, max_terms=4)
        while len(b.terms) == 1 and len(next(iter(b.terms))) == 1:
            b = random_pbw(g, rng, max_len=6, max_terms=4)
        assert derivation(b, ad_images(g, s, c)) == commutator_direct(x, b), \
            "[c X_t, b] differs in %r at case %d" % (g, t)
        assert derivation(b, ad_images(g, s, -c)) == \
            commutator_direct(b, x), \
            "[b, c X_t] differs in %r at case %d" % (g, t)
    return cases


def xhat_agreement(seed, cases):
    """casimir_gen.xhat by ad_images(g, t) against
    table_oracles.xhat_direct, the sum of C_tj^k x_k dF/dx_j through
    table_oracles.partial, on seeded random polynomials of degree at most
    5 with 1-4 terms; the cases cycle through every catalog family at its
    least N.  Each polynomial's letters come from two random generators
    and two that fail to commute with X_t, so letters repeat and most
    cases move.  Not in ALL_SUITES: it takes no algebras."""
    from liecas.casimir_gen import xhat
    from liecas.catalog import FAMILIES, build
    from liecas.enveloping import ad_images
    from liecas.polynomial import CommPoly
    from table_oracles import xhat_direct
    rng = random.Random(seed)
    algebras = [build(name, family.least)[0]
                for name, family in FAMILIES.items()]
    moved = 0
    for t in range(cases):
        g = algebras[t % len(algebras)]
        s = rng.randrange(g.dim)
        images = ad_images(g, s)
        pool = (rng.sample(range(g.dim), min(g.dim, 2))
                + rng.sample(sorted(images), min(len(images), 2)))
        p = CommPoly(g.dim)
        for _ in range(rng.randint(1, 4)):
            word = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
            p = p + CommPoly.monomial(g.dim, word, random_fraction(rng))
        want = xhat_direct(g, p, s)
        assert xhat(p, images) == want, \
            "Xhat_t differs in %r at case %d" % (g, t)
        moved += bool(want)
    assert moved > cases // 2, "too few cases with Xhat_t F != 0"
    return cases


def perturbed_algebra(algebra, rng):
    """algebra with 1-3 bracket coefficients added or shifted by a random
    rational, each in a random stored row or, one time in four, in a
    random pair's row; the names and the declared split are kept."""
    rows = {key: dict(row) for key, row in algebra.brackets.items()}
    for _ in range(rng.randint(1, 3)):
        if rows and rng.random() < 0.75:
            key = rng.choice(sorted(rows))
        else:
            key = tuple(sorted(rng.sample(range(algebra.dim), 2)))
        row = rows.setdefault(key, {})
        k = rng.randrange(algebra.dim)
        row[k] = row.get(k, 0) + random_fraction(rng)
    return LieAlgebra(algebra.names, rows, levi=algebra.levi,
                      radical=algebra.radical)


def jacobi_agreement(seed, cases):
    """validate's Jacobi residuals, report document and text against
    table_oracles.jacobi_direct, the term-by-term sum over every triple.
    Runs every catalog family at its least N, then `cases` seeded
    perturbed_algebra cases cycling through those of dimension at least
    3; returns the number of algebras checked.  Not in ALL_SUITES: it
    takes no algebras."""
    from liecas.catalog import FAMILIES, build
    from liecas.lie_core import ValidationReport
    from table_oracles import jacobi_direct
    rng = random.Random(seed)
    bases = [build(name, family.least)[0]
             for name, family in FAMILIES.items()]
    # a Jacobi triple needs three generators, so(2) has one
    triples = [g for g in bases if g.dim >= 3]
    algebras = bases + [perturbed_algebra(triples[t % len(triples)], rng)
                        for t in range(cases)]
    failing = 0
    for g in algebras:
        report = g.validate()
        want = ValidationReport(g.names, jacobi_direct(g),
                                report.levi_closure, report.radical_ideal)
        assert report.jacobi == want.jacobi, "Jacobi residuals differ on %r" % g
        assert report.to_json() == want.to_json()
        assert report.describe() == want.describe()
        failing += bool(want.jacobi)
    assert failing > cases // 2, "too few tables that fail Jacobi"
    return len(algebras)


def normal_order_agreement(seed, cases):
    """PBWElement.from_terms (through table_oracles.pbw_normalize), u_mul
    and the [c X_t, .] derivation by ad_images against
    table_oracles.normal_word_bubble, on seeded random words of length at
    most 6 over the roster algebras: NF(w) is the bubble of w,
    NF(u) NF(v) that of u v, and [c X_t, NF(w)] that of c (t w - w t),
    with the generator on either side.  Not in ALL_SUITES: it takes no
    algebras."""
    from liecas.enveloping import ad_images, derivation, u_mul
    from table_oracles import normal_word_bubble as bubble, pbw_normalize
    rng = random.Random(seed)
    algebras = roster()
    for t in range(cases):
        g = algebras[t % len(algebras)]
        word = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 6)))
        c = random_fraction(rng)
        nf = pbw_normalize(g, word, c)
        assert nf == bubble(g, word, c), \
            "normal form differs in %r at case %d" % (g, t)
        cut = rng.randint(0, len(word))
        assert u_mul(bubble(g, word[:cut], c), bubble(g, word[cut:])) == nf, \
            "product differs in %r at case %d" % (g, t)
        x, d = rng.randrange(g.dim), random_fraction(rng)
        want = bubble(g, (x,) + word, c * d) - bubble(g, word + (x,), c * d)
        assert derivation(nf, ad_images(g, x, d)) == want, \
            "[c X_t, b] differs in %r at case %d" % (g, t)
        assert derivation(nf, ad_images(g, x, -d)) == -want, \
            "[b, c X_t] differs in %r at case %d" % (g, t)
    return cases


def symmetrize_agreement(seed, cases):
    """symmetrize against table_oracles.symmetrize_arrangements, the
    average of the products of each word's generators over its distinct
    orderings, on seeded random polynomials of degree at most 5 with 1-3
    terms; the cases cycle through the roster algebras, Ha(3), IHa(3),
    QHa(3), boson_example and weyl_quesne(2).  Not in ALL_SUITES: it
    takes no algebras."""
    from liecas.catalog import build
    from liecas.enveloping import symmetrize
    from table_oracles import symmetrize_arrangements
    rng = random.Random(seed)
    algebras = roster() + [build(name, N)[0] for name, N in (
        ("Ha", 3), ("IHa", 3), ("QHa", 3), ("boson_example", None),
        ("weyl_quesne", 2))]
    for t in range(cases):
        g = algebras[t % len(algebras)]
        p = random_poly(g.dim, rng, max_deg=5, max_terms=3)
        assert symmetrize(g, p) == symmetrize_arrangements(g, p), \
            "symmetrization differs in %r at case %d" % (g, t)
    return cases


def normal_order_footprint(call):
    """(calls, retained): the enveloping._normal_word calls made by
    call(), recursive ones included, and the bytes tracemalloc still
    counts once call() has returned and its result is dropped."""
    import gc
    import tracemalloc
    import liecas.enveloping as enveloping
    kernel, calls = enveloping._normal_word, [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    enveloping._normal_word = counted
    gc.collect()
    tracemalloc.start()
    try:
        call()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        enveloping._normal_word = kernel
    return calls[0], retained


def _levi_blocks(algebra):
    """The radical generators as blocks joined by the Levi brackets: Y and
    Y' share a block when [X_i, Y] has a Y' term for some Levi i."""
    block = {y: frozenset([y]) for y in algebra.radical}
    for (i, j), terms in algebra.brackets.items():
        if (i in algebra.levi) != (j in algebra.levi):
            for k in terms:
                merged = block[i if j in algebra.levi else j] | block[k]
                block.update(dict.fromkeys(merged, merged))
    return sorted(set(block.values()), key=min)


def _plain(value):
    """value with every PBWElement, also inside a dict, replaced by its
    terms, so two results over different algebra objects compare."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return getattr(value, "terms", value)


def contraction_agreement(seed, cases):
    """contraction.contract_copy, which reads every limit as a top-weight
    slice, against table_oracles.contraction_by_cases, the case-by-case
    formula it replaced.  Two fixed cases that no catalog dressing
    reaches come first: M_i < M0, on [H, A] = B and [A, B] = Z over the
    abelian Levi part {H}, dressed by f = Z and P_H = B^2 / 2 and
    weighted A = 2, Z = 1; and a zero P_i, on roster's so(3) + Z dressed
    by f = Z alone and weighted Z = 1.  Then `cases` cases cycle through
    every dressed catalog family at its least N and least N + 1 (once
    when it takes no N); each draws seeded weightings, one weight in
    -2..3 per block of _levi_blocks, until one has a limit, and a draw
    with none must raise the oracle's payload.  Every slice must live on
    the contracted algebra, and every copy-compatible limit dressing must
    verify.  Returns the counts {"limits", "no_limit", "below", "above",
    "compatible"}: the weightings with and without a limit, and among
    those with one, the weightings with some M_i < M0, with some
    M_i > M0, and copy-compatible.  Not in ALL_SUITES: it takes no
    algebras."""
    from liecas.catalog import FAMILIES, build
    from liecas.contraction import ContractionWeights, contract_copy
    from liecas.enveloping import PBWElement
    from liecas.errors import LimitDoesNotExistError
    from liecas.virtual_copy import make_spec
    from table_oracles import contraction_by_cases
    counts = dict.fromkeys(
        ("limits", "no_limit", "below", "above", "compatible"), 0)

    def has_limit(algebra, spec, table):
        weights = ContractionWeights(algebra, table)
        try:
            want = contraction_by_cases(algebra, spec, weights)
        except LimitDoesNotExistError as err:
            try:
                contract_copy(spec, weights)
            except LimitDoesNotExistError as got:
                assert got.payload == err.payload, (table, got.payload)
                counts["no_limit"] += 1
                return False
            raise AssertionError("%r has no limit, yet contract_copy "
                                 "answered" % table)
        got = contract_copy(spec, weights)
        assert {name: _plain(getattr(got, name)) for name in want} \
            == _plain(want), table
        prime = got.algebra_prime
        assert all(p.algebra is prime for p in (
            got.f0, *got.P0.values(), *got.operators_prime.values()))
        assert not got.copy_compatible or got.verify_report.passed, table
        counts["limits"] += 1
        counts["below"] += any(m < got.M0 for m in got.Mi.values())
        counts["above"] += any(m > got.M0 for m in got.Mi.values())
        counts["compatible"] += got.copy_compatible
        return True

    abelian_h = LieAlgebra(["H", "A", "B", "Z"],
                           {(0, 1): {2: 1}, (1, 2): {3: 1}}, levi=[0])
    spec = make_spec(PBWElement.generator(abelian_h, 3),
                     {0: PBWElement(abelian_h, {(2, 2): Fraction(1, 2)})})
    assert has_limit(abelian_h, spec, {"A": 2, "Z": 1})
    so3_z = roster()[2]
    spec = make_spec(PBWElement.generator(so3_z, 3), {})
    assert has_limit(so3_z, spec, {"Z": 1})
    dressed = []
    for name, family in FAMILIES.items():
        if family.dressed:
            for n in ([None] if family.least is None
                      else [family.least, family.least + 1]):
                algebra, spec = build(name, n)
                dressed.append((algebra, spec, _levi_blocks(algebra)))
    rng = random.Random(seed)
    for t in range(cases):
        algebra, spec, blocks = dressed[t % len(dressed)]
        while True:
            table = {algebra.names[y]: n for block in blocks
                     for n in [rng.randint(-2, 3)] for y in block}
            if has_limit(algebra, spec, table):
                break
    return counts


def _mutated(doc, rng):
    """(label, path, copy of doc with one seeded mutation at path): drop a
    key, rename a key to an unknown name, retype a value, swap an unknown
    name in for a string, zero or scale a coefficient (an int, or a
    string that reads as a rational), or truncate a list.  The label is
    drawn first, then a depth among its sites, so the few shallow sites
    weigh as much as the many deep ones, then a site; the root itself may
    be retyped."""
    box = [copy.deepcopy(doc)]
    sites = []

    def walk(parent, key, path):
        node = parent[key]
        sites.append(("retype", path, parent, key))
        if isinstance(node, dict):
            for k in list(node):
                sites.append(("drop-key", path + (k,), node, k))
                sites.append(("unknown-key", path + (k,), node, k))
                walk(node, k, path + (k,))
        elif isinstance(node, list):
            if node:
                sites.append(("truncate", path, parent, key))
            for k in range(len(node)):
                walk(node, k, path + (k,))
        elif isinstance(node, str):
            sites.append(("unknown-name", path, parent, key))
            try:
                Fraction(node)
            except ValueError:
                pass
            else:
                sites.append(("coefficient", path, parent, key))
        elif type(node) is int:
            sites.append(("coefficient", path, parent, key))

    walk(box, 0, ())
    label = rng.choice(sorted({site[0] for site in sites}))
    sites = [site for site in sites if site[0] == label]
    depth = rng.choice(sorted({len(site[1]) for site in sites}))
    _label, path, parent, key = rng.choice(
        [site for site in sites if len(site[1]) == depth])
    node = parent[key]
    if label == "drop-key":
        del parent[key]
    elif label == "unknown-key":
        parent["nope"] = parent.pop(key)
    elif label == "unknown-name":
        parent[key] = "nope"
    elif label == "retype":
        parent[key] = rng.choice([v for v in (None, True, 1.5, "x", [], {}, 7)
                                  if type(v) is not type(node)])
    elif label == "coefficient":
        integral = type(node) is int
        value = Fraction(node) * rng.choice(
            (0, -1, 2, 3) if integral else (0, -1, 2, Fraction(1, 2)))
        parent[key] = int(value) if integral else str(value)
    else:
        parent[key] = node[:rng.randrange(len(node))]
    return label, path, box[0]


def cli_fuzz(seed, cases):
    """The command line on seeded mutations of its inputs.  Each case
    takes a base in turn, the catalog dump {"algebra", "spec"} of Ha(3),
    IHa(3), boson_example or weyl_quesne(2) with its limit weights from
    output_sweep.limit_weights, and a seeded command among validate,
    count, mc, verify-copy, casimirs and contract.  One _mutated mutation
    goes into the algebra, the spec or, for contract, the --weights
    table; the spec rides in the dump or, on a coin flip, in its own
    --spec file.  The request runs in this process through cli.main with
    --format json, stdout and stderr captured.  No exception may escape
    main, stderr must stay empty and stdout must be one JSON document,
    exiting 0, or 1 with a failing validate or verify report, or with
    exactly the status that the class of its error kind declares.
    Returns the count of each outcome, "ok", "failing-report" or the
    error kind, and asserts that successes and refusals both occur.  Not
    in ALL_SUITES: it takes no algebras."""
    import contextlib
    import io
    import json
    import os
    import tempfile

    from liecas import errors
    from liecas.catalog import build
    from liecas.cli import main
    from liecas.lie_core import algebra_to_json
    from liecas.virtual_copy import emit_spec
    from output_sweep import limit_weights
    status = {cls.kind: cls.status for cls in vars(errors).values()
              if isinstance(cls, type) and hasattr(cls, "kind")}
    bases = []
    for name, n in (("Ha", 3), ("IHa", 3), ("boson_example", None),
                    ("weyl_quesne", 2)):
        algebra, spec = build(name, n)
        bases.append({"algebra": algebra_to_json(algebra),
                      "spec": emit_spec(spec),
                      "weights": json.loads(limit_weights(name, n))})
    commands = ("validate", "count", "mc", "verify-copy", "casimirs",
                "contract")
    rng = random.Random(seed)
    counts = {}
    with tempfile.TemporaryDirectory() as folder:
        for case in range(cases):
            # fresh files each case: truncating a file just written can
            # wait on the disk
            dump = os.path.join(folder, "dump%d.json" % case)
            spec_file = os.path.join(folder, "spec%d.json" % case)
            parts = dict(bases[case % len(bases)])
            command = rng.choice(commands)
            target = rng.choice(("algebra", "spec", "weights")
                                if command == "contract"
                                else ("algebra", "spec"))
            label, path, parts[target] = _mutated(parts[target], rng)
            argv = [command, "--algebra", dump, "--format", "json"]
            if command in ("verify-copy", "casimirs", "contract") \
                    and rng.random() < 0.5:
                files = {dump: parts["algebra"], spec_file: parts["spec"]}
                argv += ["--spec", spec_file]
            else:
                files = {dump: {"algebra": parts["algebra"],
                                "spec": parts["spec"]}}
            if command == "contract":
                argv += ["--weights", json.dumps(parts["weights"])]
            for file, doc in files.items():
                with open(file, "w") as fh:
                    json.dump(doc, fh)
            where = "case %d: %s at %s %r, %s" % (
                case, label, target, path, command)
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
            except Exception as exc:
                raise AssertionError("%s raised %r" % (where, exc)) from exc
            assert not err.getvalue(), (where, err.getvalue())
            try:
                doc = json.loads(out.getvalue())
            except ValueError as exc:
                raise AssertionError("%s printed no single JSON document: "
                                     "%r" % (where, out.getvalue())) from exc
            assert isinstance(doc, dict), (where, doc)
            if "error" in doc:
                outcome = doc["error"]
                assert code == status.get(outcome), (where, code, doc)
            elif code == 0:
                outcome = "ok"
            else:
                # a failing validate or verify report, alone or as the
                # check of contract's contracted dressing
                outcome = "failing-report"
                assert code == 1 and False in (
                    doc.get("ok"), doc.get("passed"),
                    (doc.get("verify") or {}).get("passed")), (where, doc)
            counts[outcome] = counts.get(outcome, 0) + 1
    assert counts.get("ok") and set(counts) - {"ok", "failing-report"}, \
        counts
    return counts


ALL_SUITES = (
    pbw_associativity,
    ug_jacobi,
    exterior_leibniz,
    derivation_law,
    representation_property,
    d_squared_zero,
    wedge_rank_agreement,
)
