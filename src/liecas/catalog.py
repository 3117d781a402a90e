"""Constructors for the algebra families the package ships with.

Every family comes with its generator names, its bracket table, a declared
Levi/radical split, and (where one is known) the virtual-copy spec that
dresses the Levi generators.  Generator naming follows the conventions
used throughout: rotations J_ij, vector pairs G_k/F_k and Q_k/P_k, the
central or quasi-central R, E, T, and central extension letters L, A, M.

Families:

    so              so(N), rotations alone (N >= 2)
    su11            the 3-dim algebra spanned by X_1,1  X_-1,1  X_1,-1
    heisenberg      h_N: P_k, Q_k, Z with [P_k, Q_k] = Z
    weyl_quesne     gl(n) acting on the boson algebra w(n); spec f = I,
                    P_{E_ij} = -bd_i b_j
    Ha              so(N) over the Heisenberg radical {G, F, R};
                    spec f = R, P_{J_ij} = G_i F_j - G_j F_i
    IHa             the inhomogeneous extension {G, F, Q, P, R, E, T};
                    spec f = T^2, P_{J_ij} = T(G_i Q_j - G_j Q_i)
                    + T(F_i P_j - F_j P_i) + R(P_i Q_j - P_j Q_i)
    IHa_L IHa_A IHa_M IHa_AL IHa_LM IHa_AM
                    central extensions of IHa by the listed letters,
                    each with its own f (T^2, T^2+RL, or T^2-AM)
    QHa             the full three-letter extension; spec
                    f = T^2 + RL - AM
    boson_example   the 10-dim boson realization with su(1,1) Levi part,
                    parameterized by alpha (spec only at alpha = 1,
                    f = R^2 - T^2)
    boson_example_contracted
                    its alpha = 0 contraction carrying the contracted
                    spec f0 = -T^2

The Hamilton families need N >= 3 and all J_ij naming stops at N = 9.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .enveloping import PBWElement, symmetrize, u_mul
from .errors import InternalConsistencyError, MalformedInputError
from .lie_core import LieAlgebra
from .polynomial import CommPoly
from .sparse import accumulate, exact
from .virtual_copy import make_spec


@dataclass(frozen=True)
class Family:
    parameter: str | None     # "N", "n", "alpha", or None for a fixed algebra
    least: int | None         # bounds of an integer parameter
    most: int | None
    dressed: bool             # the family carries a virtual-copy spec
    about: str
    builder: object           # parameter value (None when fixed) -> (algebra, spec)


@dataclass
class FamilyId:
    name: str
    N: int | None = None
    params: dict = field(default_factory=dict)


def build(fid):
    """(algebra, spec-or-None) for a family id."""
    family = FAMILIES.get(fid.name)
    if family is None:
        raise MalformedInputError("unknown family %r" % (fid.name,))
    if family.parameter == "alpha":
        value = exact(fid.params.get("alpha", 1))
    elif family.parameter is None:
        value = None
    elif fid.N is None:
        raise MalformedInputError("family %r needs N" % (fid.name,))
    elif not family.least <= fid.N <= family.most:
        raise MalformedInputError(
            "family %r supports N in %d..%d, got %r"
            % (fid.name, family.least, family.most, fid.N))
    else:
        value = fid.N
    return family.builder(value)


def _check_dim(algebra, dim):
    if algebra.dim != dim:
        raise InternalConsistencyError(
            "built %d generators, the family has %d" % (algebra.dim, dim))
    return algebra


# ---- rotation block ----------------------------------------------------------


def _so_pairs(N):
    return [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]


def _j_name(i, j):
    return "J_%d%d" % (i, j)


def _rotation_brackets(pairs, index):
    """[J_ij, J_kl] = d_il J_jk + d_jk J_il - d_jl J_ik - d_ik J_jl,
    with J_vu = -J_uv and J_uu = 0, into an i<j-keyed table."""
    out = {}
    for a_pos, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a_pos + 1:]:
            terms = {}
            accumulate(terms, (
                (index[_j_name(min(u, v), max(u, v))],
                 sgn if u < v else -sgn)
                for (u, v), sgn in (((j, k), 1 if i == l else 0),
                                    ((i, l), 1 if j == k else 0),
                                    ((i, k), -1 if j == l else 0),
                                    ((j, l), -1 if i == k else 0))
                if sgn and u != v))
            if terms:
                out[(index[_j_name(i, j)], index[_j_name(k, l)])] = terms
    return out


def _vector_action(pairs, index, letter, N):
    """[J_ij, V_k] = -d_ik V_j + d_kj V_i for a vector family V_1..V_N."""
    out = {}
    for (i, j) in pairs:
        a = index[_j_name(i, j)]
        # only V_i and V_j move: [J_ij, V_i] = -V_j, [J_ij, V_j] = V_i
        for k, t, c in ((i, j, -1), (j, i, 1)):
            b = index["%s_%d" % (letter, k)]
            out[(a, b) if a < b else (b, a)] = {
                index["%s_%d" % (letter, t)]: c if a < b else -c}
    return out


def so_algebra(N):
    pairs = _so_pairs(N)
    names = [_j_name(i, j) for (i, j) in pairs]
    index = {n: t for t, n in enumerate(names)}
    return _check_dim(LieAlgebra(names, _rotation_brackets(pairs, index),
                                 levi=range(len(names))), N * (N - 1) // 2)


# ---- Heisenberg and the Quesne boson family -----------------------------------


def heisenberg_algebra(N):
    names = (["P_%d" % k for k in range(1, N + 1)]
             + ["Q_%d" % k for k in range(1, N + 1)] + ["Z"])
    brackets = {(k, N + k): {2 * N: 1} for k in range(N)}
    return _check_dim(LieAlgebra(names, brackets, levi=[]), 2 * N + 1)


def weyl_quesne(n):
    e_names = ["E_%d%d" % (i, j)
               for i in range(1, n + 1) for j in range(1, n + 1)]
    names = (e_names + ["bd_%d" % k for k in range(1, n + 1)]
             + ["b_%d" % k for k in range(1, n + 1)] + ["I"])
    index = {m: t for t, m in enumerate(names)}
    brackets = {}

    def canon(a, b, terms):
        if a == b or not terms:
            return
        key, sign = ((a, b), 1) if a < b else ((b, a), -1)
        accumulate(brackets.setdefault(key, {}), terms.items(), sign)

    # [E_ij, E_kl] = d_jk E_il - d_li E_kj
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = index["E_%d%d" % (i, j)]
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    b = index["E_%d%d" % (k, l)]
                    if b <= a:
                        continue
                    terms = {}
                    if j == k:
                        terms[index["E_%d%d" % (i, l)]] = 1
                    if l == i:
                        # E_kj differs from E_il since b != a
                        terms[index["E_%d%d" % (k, j)]] = -1
                    canon(a, b, terms)
            # [E_ij, bd_k] = d_jk bd_i ;  [E_ij, b_k] = -d_ik b_j
            canon(a, index["bd_%d" % j], {index["bd_%d" % i]: 1})
            canon(a, index["b_%d" % i], {index["b_%d" % j]: -1})
    # [b_i, bd_j] = d_ij I
    for i in range(1, n + 1):
        canon(index["b_%d" % i], index["bd_%d" % i], {index["I"]: 1})

    algebra = _check_dim(
        LieAlgebra(names, {key: val for key, val in brackets.items() if val},
                   levi=[index[m] for m in e_names]), n * n + 2 * n + 1)

    f = PBWElement.generator(algebra, "I")
    P = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            P["E_%d%d" % (i, j)] = PBWElement.from_terms(
                algebra, {(index["bd_%d" % i], index["b_%d" % j]): -1})
    return algebra, make_spec(algebra, f, P)


# ---- Hamilton families ---------------------------------------------------------


def hamilton(N, inhomogeneous=False, extension=""):
    """Ha(N) (rotations over {G, F, R}), IHa(N) (adds Q, P, E, T), and the
    central extensions of IHa(N) by any subset of {L, A, M}."""
    if extension and not inhomogeneous:
        raise MalformedInputError("central extensions live over IHa")
    ext = set(extension)
    if not ext <= {"L", "A", "M"}:
        raise MalformedInputError("unknown extension letters %r" % (extension,))

    pairs = _so_pairs(N)
    names = [_j_name(i, j) for (i, j) in pairs]
    names += ["G_%d" % k for k in range(1, N + 1)]
    names += ["F_%d" % k for k in range(1, N + 1)]
    if inhomogeneous:
        names += ["Q_%d" % k for k in range(1, N + 1)]
        names += ["P_%d" % k for k in range(1, N + 1)]
    names += ["R"]
    if inhomogeneous:
        names += ["E", "T"]
    names += [letter for letter in "LAM" if letter in ext]
    index = {m: t for t, m in enumerate(names)}

    brackets = _rotation_brackets(pairs, index)
    brackets.update(_vector_action(pairs, index, "G", N))
    brackets.update(_vector_action(pairs, index, "F", N))
    if inhomogeneous:
        brackets.update(_vector_action(pairs, index, "Q", N))
        brackets.update(_vector_action(pairs, index, "P", N))
    for k in range(1, N + 1):
        # [G_k, F_k] = R
        brackets[(index["G_%d" % k], index["F_%d" % k])] = {index["R"]: 1}
        if inhomogeneous:
            # [G_k, Q_k] = T and [F_k, P_k] = T
            brackets[(index["G_%d" % k], index["Q_%d" % k])] = {index["T"]: 1}
            brackets[(index["F_%d" % k], index["P_%d" % k])] = {index["T"]: 1}
            # [E, G_k] = -P_k and [E, F_k] = Q_k, stored from the other side
            brackets[(index["G_%d" % k], index["E"])] = {index["P_%d" % k]: 1}
            brackets[(index["F_%d" % k], index["E"])] = {index["Q_%d" % k]: -1}
        if "L" in ext:
            # [P_k, Q_k] = L
            brackets[(index["Q_%d" % k], index["P_%d" % k])] = {index["L"]: -1}
        if "M" in ext:
            # [G_k, P_k] = M
            brackets[(index["G_%d" % k], index["P_%d" % k])] = {index["M"]: 1}
        if "A" in ext:
            # [F_k, Q_k] = A
            brackets[(index["F_%d" % k], index["Q_%d" % k])] = {index["A"]: 1}
    if inhomogeneous:
        # [E, R] = 2T, stored as [R, E] = -2T
        brackets[(index["R"], index["E"])] = {index["T"]: -2}
        if "L" in ext:
            # [E, T] = -L
            brackets[(index["E"], index["T"])] = {index["L"]: -1}

    # rotations, two N-vectors and R; IHa adds two more vectors, E and T
    algebra = _check_dim(
        LieAlgebra(names, brackets,
                   levi=[index[m] for m in names if m.startswith("J_")]),
        N * (N - 1) // 2 + (4 * N + 3 if inhomogeneous else 2 * N + 1)
        + len(ext))

    return algebra, _hamilton_spec(algebra, N, inhomogeneous, ext)


def _antisym(ix, i, j, x, y, lead=()):
    """{lead x_i y_j: 1, lead x_j y_i: -1} as index words."""
    def word(a, b):
        return tuple(ix[m] for m in (*lead, "%s_%d" % (x, a), "%s_%d" % (y, b)))
    return {word(i, j): 1, word(j, i): -1}


def _hamilton_spec(algebra, N, inhomogeneous, ext):
    ix = algebra.name_index
    pairs = _so_pairs(N)

    if not inhomogeneous:
        # f = R, P_{J_ij} = G_i F_j - G_j F_i
        f = PBWElement.generator(algebra, "R")
        words = {(i, j): _antisym(ix, i, j, "G", "F") for (i, j) in pairs}
        return make_spec(algebra, f, _collect(algebra, words))

    # f = T^2, P_{J_ij} = T(G_i Q_j - G_j Q_i) + T(F_i P_j - F_j P_i)
    #                  + R(P_i Q_j - P_j Q_i)
    # plus one extra block per extension letter, and an f of its own
    f_words = {(ix["T"], ix["T"]): 1}
    blocks = [("T", "G", "Q"), ("T", "F", "P"), ("R", "P", "Q")]
    blocks += [block for block in (("L", "G", "F"), ("M", "Q", "F"),
                                   ("A", "P", "G")) if block[0] in ext]
    words = {}
    for (i, j) in pairs:
        words[(i, j)] = {}
        for lead, x, y in blocks:
            words[(i, j)].update(_antisym(ix, i, j, x, y, lead=(lead,)))
    if "L" in ext:
        f_words[(ix["R"], ix["L"])] = 1
    if {"A", "M"} <= ext:
        f_words[(ix["A"], ix["M"])] = -1
    return make_spec(algebra, PBWElement.from_terms(algebra, f_words),
                     _collect(algebra, words))


def _collect(algebra, words):
    return {_j_name(i, j): PBWElement.from_terms(algebra, terms)
            for (i, j), terms in words.items()}


# ---- su(1,1) and the boson example ---------------------------------------------


def su11_algebra():
    return LieAlgebra(
        ["X_1,1", "X_-1,1", "X_1,-1"],
        {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: 4}},
        levi=[0, 1, 2])


_BOSON_NAMES = ["X_1,1", "X_-1,1", "X_1,-1",
                "G_1", "F_1", "Q_1", "P_1", "R", "E", "T"]


def boson_algebra(alpha):
    """The 10-dim algebra of creation/annihilation bilinears, with the
    deformation parameter alpha switching the Q/P/E/T brackets on."""
    alpha = exact(alpha)
    brackets = {
        (0, 1): {1: -2},      # [X_1,1, X_-1,1] = -2 X_-1,1
        (0, 2): {2: 2},       # [X_1,1, X_1,-1] = 2 X_1,-1
        (1, 2): {0: 4},       # [X_-1,1, X_1,-1] = 4 X_1,1
        (0, 3): {3: -1},      # [X_1,1, G_1] = -G_1
        (0, 4): {4: 1},       # [X_1,1, F_1] = F_1
        (0, 5): {5: -1},      # [X_1,1, Q_1] = -Q_1
        (0, 6): {6: 1},       # [X_1,1, P_1] = P_1
        (1, 4): {3: 2},       # [X_-1,1, F_1] = 2 G_1
        (1, 6): {5: 2},       # [X_-1,1, P_1] = 2 Q_1
        (2, 3): {4: -2},      # [X_1,-1, G_1] = -2 F_1
        (2, 5): {6: -2},      # [X_1,-1, Q_1] = -2 P_1
        (3, 4): {7: 1},       # [G_1, F_1] = R
        (3, 6): {9: 1},       # [G_1, P_1] = T
        (3, 8): {5: 1},       # [G_1, E] = Q_1
        (4, 5): {9: -1},      # [F_1, Q_1] = -T
        (4, 8): {6: 1},       # [F_1, E] = P_1
        (7, 8): {9: 2},       # [R, E] = 2T
    }
    if alpha:
        brackets[(5, 6)] = {7: alpha}         # [Q_1, P_1] = alpha R
        brackets[(5, 8)] = {3: alpha}         # [Q_1, E] = alpha G_1
        brackets[(6, 8)] = {4: alpha}         # [P_1, E] = alpha F_1
        brackets[(8, 9)] = {7: -2 * alpha}    # [E, T] = -2 alpha R
    return _check_dim(LieAlgebra(list(_BOSON_NAMES), brackets, levi=[0, 1, 2]),
                      10)


def _sym_words(algebra, terms):
    """Symmetrized-product reading of a {letter word: coeff} table.

    Each word stands for the equal-weight average over the orderings of
    its letters, not for the left-to-right operator product.  The two
    differ only on words with noncommuting letter pairs (Q_1 F_1, G_1 P_1,
    G_1 F_1, Q_1 P_1 here); taking the products as symmetric is what makes
    the dressed su(1,1) generators close correctly, and it also keeps the
    whole family invariant under reversing every factor order.
    """
    return symmetrize(algebra, sum((CommPoly.monomial(algebra.dim, w, c)
                                    for w, c in terms.items()),
                                   CommPoly.zero(algebra.dim)))


def boson_example(alpha=1):
    alpha = exact(alpha)
    algebra = boson_algebra(alpha)
    if alpha != 1:
        return algebra, None
    ix = algebra.name_index
    G, F, Q, P, R, T = (ix[m] for m in ("G_1", "F_1", "Q_1", "P_1", "R", "T"))
    f = PBWElement.from_terms(algebra, {(R, R): 1, (T, T): -1})
    P_map = {
        # T(Q_1 F_1 + G_1 P_1) - R(G_1 F_1 + Q_1 P_1)
        "X_1,1": _sym_words(algebra, {
            (T, Q, F): 1, (T, G, P): 1, (R, G, F): -1, (R, Q, P): -1}),
        # 2 T G_1 Q_1 - R G_1^2 - R Q_1^2
        "X_-1,1": _sym_words(algebra, {
            (T, G, Q): 2, (R, G, G): -1, (R, Q, Q): -1}),
        # 2 T F_1 P_1 - R F_1^2 - R P_1^2
        "X_1,-1": _sym_words(algebra, {
            (T, F, P): 2, (R, F, F): -1, (R, P, P): -1}),
    }
    return algebra, make_spec(algebra, f, P_map)


def boson_example_contracted():
    algebra = boson_algebra(0)
    ix = algebra.name_index
    G, F, Q, P, R, T = (ix[m] for m in ("G_1", "F_1", "Q_1", "P_1", "R", "T"))
    f0 = PBWElement.from_terms(algebra, {(T, T): -1})
    P_map = {
        # T(Q_1 F_1 + G_1 P_1) - R Q_1 P_1
        "X_1,1": _sym_words(algebra, {
            (T, Q, F): 1, (T, G, P): 1, (R, Q, P): -1}),
        # 2 T G_1 Q_1 - R Q_1^2
        "X_-1,1": _sym_words(algebra, {
            (T, G, Q): 2, (R, Q, Q): -1}),
        # 2 T F_1 P_1 - R P_1^2
        "X_1,-1": _sym_words(algebra, {
            (T, F, P): 2, (R, P, P): -1}),
    }
    return algebra, make_spec(algebra, f0, P_map)


# ---- Levi Casimir helpers -------------------------------------------------------


def so_quadratic_casimir(algebra):
    """sum J_ij^2 over the (all J-named) Levi part."""
    out = PBWElement(algebra)
    for i in sorted(algebra.levi):
        if not algebra.names[i].startswith("J_"):
            raise MalformedInputError(
                "Levi part is not a rotation block (found %s)"
                % algebra.names[i])
        gen = PBWElement.generator(algebra, i)
        out = out + u_mul(gen, gen)
    return out


def su11_quadratic_casimir(algebra):
    """X_1,1^2 - (X_-1,1 X_1,-1 + X_1,-1 X_-1,1)/2 over the X-named Levi."""
    a = PBWElement.generator(algebra, "X_1,1")
    b = PBWElement.generator(algebra, "X_-1,1")
    c = PBWElement.generator(algebra, "X_1,-1")
    return (u_mul(a, a)
            - (u_mul(b, c) + u_mul(c, b)).scale(Fraction(1, 2)))


def levi_quadratic_casimir(algebra):
    """Whichever of the two hard-coded quadratic Casimirs fits the Levi part."""
    levi_names = [algebra.names[i] for i in sorted(algebra.levi)]
    if levi_names and all(m.startswith("J_") for m in levi_names):
        return so_quadratic_casimir(algebra)
    if levi_names == ["X_1,1", "X_-1,1", "X_1,-1"]:
        return su11_quadratic_casimir(algebra)
    raise MalformedInputError(
        "no hard-coded Casimir for Levi part %s" % (levi_names,))


# ---- the family registry -------------------------------------------------------


def _iha(extension):
    return lambda N: hamilton(N, inhomogeneous=True, extension=extension)


FAMILIES = {
    "so": Family("N", 2, 9, False, "the rotation block so(N) alone",
                 lambda N: (so_algebra(N), None)),
    "su11": Family(None, None, None, False,
                   "the three-generator split real rank-one algebra",
                   lambda _: (su11_algebra(), None)),
    "heisenberg": Family("N", 1, 9, False,
                         "N coordinate/momentum pairs over one center",
                         lambda N: (heisenberg_algebra(N), None)),
    "weyl_quesne": Family("n", 1, 9, True,
                          "gl(n) over n boson pairs and a unit",
                          weyl_quesne),
    "Ha": Family("N", 3, 9, True,
                 "so(N) acting on two N-vectors with one central charge",
                 hamilton),
    "IHa": Family("N", 3, 9, True,
                  "Ha extended by a generator mixing the vector pairs and a "
                  "second central charge", _iha("")),
    "QHa": Family("N", 3, 9, True,
                  "IHa closed off by the three central charges L, A, M",
                  _iha("LAM")),
    "IHa_L": Family("N", 3, 9, True,
                    "IHa with the central extension L alone", _iha("L")),
    "IHa_M": Family("N", 3, 9, True,
                    "IHa with the central extension M alone", _iha("M")),
    "IHa_A": Family("N", 3, 9, True,
                    "IHa with the central extension A alone", _iha("A")),
    "IHa_AM": Family("N", 3, 9, True,
                     "IHa with the central extensions A and M", _iha("AM")),
    "IHa_AL": Family("N", 3, 9, True,
                     "IHa with the central extensions A and L", _iha("AL")),
    "IHa_LM": Family("N", 3, 9, True,
                     "IHa with the central extensions L and M", _iha("LM")),
    "boson_example": Family("alpha", None, None, True,
                            "rank-one Levi over two oscillator pairs and "
                            "three more directions; dressing at alpha = 1",
                            boson_example),
    "boson_example_contracted": Family(None, None, None, True,
                                       "the alpha = 0 limit of "
                                       "boson_example, with its contracted "
                                       "dressing",
                                       lambda _: boson_example_contracted()),
}

FAMILY_NAMES = tuple(FAMILIES)
