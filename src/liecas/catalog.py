"""Constructors for the algebra families the package ships with.

Every family comes with its generator names, its brackets, a declared
Levi/radical split, and (where one is known) the virtual-copy spec that
dresses the Levi generators.  Generator naming follows the conventions
used throughout: rotations J_ij, vector pairs G_k/F_k and Q_k/P_k, the
central or quasi-central R, E, T, and central extension letters L, A, M.
Brackets are stated by name as relations (a, b, k, c), each adding c k
to [a, b], with a and b in whichever order reads naturally;
lie_core.bracket_table folds them into the stored i < j table.

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
                    its alpha = 0 contraction and contracted spec
                    (f0 = -T^2), derived by contraction.contract_copy

The Hamilton families need N >= 3 and all J_ij naming stops at N = 9.
"""

from collections import namedtuple
from itertools import product

from .enveloping import PBWElement, symmetrize
from .errors import MalformedInputError
from .lie_core import LieAlgebra, bracket_table
from .naming import j_name, rotation_relations
from .polynomial import CommPoly
from .sparse import exact
from .virtual_copy import make_spec

# parameter is "N", "n", "alpha", or None for a fixed algebra; least and
# most bound an integer parameter; dressed says the family carries a
# virtual-copy spec; builder maps the parameter value (None when fixed)
# to (algebra, spec-or-None)
Family = namedtuple("Family", "parameter least most dressed about builder")


def build(name, N=None, alpha=None):
    """(algebra, spec-or-None) for a family, its size N or, for
    boson_example alone, its rational alpha."""
    family = FAMILIES.get(name)
    if family is None:
        raise MalformedInputError("unknown family %r" % (name,))
    if alpha is not None and family.parameter != "alpha":
        raise MalformedInputError("--alpha only applies to boson_example")
    if N is not None and family.most is None:
        raise MalformedInputError("family %r takes no --N" % (name,))
    if family.parameter == "alpha":
        value = exact(1 if alpha is None else alpha)
    elif family.parameter is None:
        value = None
    elif N is None:
        raise MalformedInputError("family %r needs N" % (name,))
    elif not family.least <= N <= family.most:
        raise MalformedInputError(
            "family %r supports N in %d..%d, got %r"
            % (name, family.least, family.most, N))
    else:
        value = N
    return family.builder(value)


# ---- named relations --------------------------------------------------------


def _algebra(names, relations, levi):
    """The algebra on names with the given relations and Levi names."""
    ix = {m: t for t, m in enumerate(names)}
    return LieAlgebra(names, bracket_table(
        (ix[a], ix[b], ((ix[k], c),)) for a, b, k, c in relations),
        levi=[ix[m] for m in levi])


def _so_pairs(N):
    return [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]


def _vector_relations(N, letter):
    """[J_ij, V_i] = -V_j and [J_ij, V_j] = V_i for a vector V_1..V_N."""
    for i, j in _so_pairs(N):
        vi, vj = "%s_%d" % (letter, i), "%s_%d" % (letter, j)
        yield from ((j_name(i, j), vi, vj, -1), (j_name(i, j), vj, vi, 1))


def so_algebra(N):
    names = [j_name(i, j) for (i, j) in _so_pairs(N)]
    return _algebra(names, rotation_relations(N), names)


# ---- Heisenberg and the Quesne boson family -----------------------------------


def heisenberg_algebra(N):
    P = ["P_%d" % k for k in range(1, N + 1)]
    Q = ["Q_%d" % k for k in range(1, N + 1)]
    return _algebra(P + Q + ["Z"], [(p, q, "Z", 1) for p, q in zip(P, Q)],
                    [])


def weyl_quesne(n):
    ns = range(1, n + 1)

    def E(i, j):
        return "E_%d%d" % (i, j)

    def relations():
        # [E_ij, E_kl] = d_jk E_il - d_li E_kj: each term is [E_ij, E_jl]
        # = E_il, read from one side or the other
        for i, j, l in product(ns, repeat=3):
            if not i == j == l:
                yield E(i, j), E(j, l), E(i, l), 1
        for i, j in product(ns, repeat=2):
            # [E_ij, bd_k] = d_jk bd_i ;  [E_ij, b_k] = -d_ik b_j
            yield from ((E(i, j), "bd_%d" % j, "bd_%d" % i, 1),
                        (E(i, j), "b_%d" % i, "b_%d" % j, -1))
        for i in ns:
            yield "b_%d" % i, "bd_%d" % i, "I", 1     # [b_i, bd_j] = d_ij I

    e_names = [E(i, j) for i in ns for j in ns]
    names = (e_names + ["bd_%d" % k for k in ns] + ["b_%d" % k for k in ns]
             + ["I"])
    algebra = _algebra(names, relations(), e_names)
    f = PBWElement.generator(algebra, "I")
    ix = algebra.name_index
    P = {E(i, j): PBWElement.from_terms(
            algebra, {(ix["bd_%d" % i], ix["b_%d" % j]): -1})
         for i in ns for j in ns}
    return algebra, make_spec(algebra, f, P)


# ---- Hamilton families ---------------------------------------------------------


def hamilton(N, inhomogeneous=False, extension=""):
    """Ha(N) (rotations over {G, F, R}), IHa(N) (adds Q, P, E, T), and the
    central extensions of IHa(N) by any subset of {L, A, M}."""
    ext = set(extension)
    vectors = "GFQP" if inhomogeneous else "GF"

    def relations():
        yield from rotation_relations(N)
        for letter in vectors:
            yield from _vector_relations(N, letter)
        for k in range(1, N + 1):
            G, F, Q, P = ("%s_%d" % (letter, k) for letter in "GFQP")
            yield G, F, "R", 1
            if inhomogeneous:
                yield from ((G, Q, "T", 1), (F, P, "T", 1),
                            ("E", G, P, -1), ("E", F, Q, 1))
            for letter, a, b in (("L", P, Q), ("M", G, P), ("A", F, Q)):
                if letter in ext:
                    yield a, b, letter, 1
        if inhomogeneous:
            yield "E", "R", "T", 2
        if "L" in ext:
            yield "E", "T", "L", -1

    rotations = [j_name(i, j) for (i, j) in _so_pairs(N)]
    names = list(rotations)
    for letter in vectors:
        names += ["%s_%d" % (letter, k) for k in range(1, N + 1)]
    names += ["R", "E", "T"] if inhomogeneous else ["R"]
    names += [letter for letter in "LAM" if letter in ext]
    algebra = _algebra(names, relations(), rotations)
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
    return {j_name(i, j): PBWElement.from_terms(algebra, terms)
            for (i, j), terms in words.items()}


# ---- su(1,1) and the boson example ---------------------------------------------


_SU11_NAMES = ["X_1,1", "X_-1,1", "X_1,-1"]
_SU11_RELATIONS = [("X_1,1", "X_-1,1", "X_-1,1", -2),
                   ("X_1,1", "X_1,-1", "X_1,-1", 2),
                   ("X_-1,1", "X_1,-1", "X_1,1", 4)]


def su11_algebra():
    return _algebra(_SU11_NAMES, _SU11_RELATIONS, _SU11_NAMES)


def boson_algebra(alpha):
    """The 10-dim algebra of creation/annihilation bilinears, with the
    deformation parameter alpha switching the Q/P/E/T brackets on."""
    alpha = exact(alpha)
    H, X, Y = _SU11_NAMES
    G, F, Q, P = "G_1", "F_1", "Q_1", "P_1"
    relations = _SU11_RELATIONS + [
        (H, G, G, -1), (H, F, F, 1), (H, Q, Q, -1), (H, P, P, 1),
        (X, F, G, 2), (X, P, Q, 2), (Y, G, F, -2), (Y, Q, P, -2),
        (G, F, "R", 1), (G, P, "T", 1), (G, "E", Q, 1), (F, Q, "T", -1),
        (F, "E", P, 1), ("R", "E", "T", 2),
        (Q, P, "R", alpha), (Q, "E", G, alpha), (P, "E", F, alpha),
        ("E", "T", "R", -2 * alpha)]
    names = _SU11_NAMES + [G, F, Q, P, "R", "E", "T"]
    return _algebra(names, relations, _SU11_NAMES)


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
                                   CommPoly(algebra.dim)))


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
    """boson_example's alpha = 0 limit and its dressing, as contract_copy
    derives them from the weighting Q_1 = P_1 = E = T = 1."""
    from .contraction import ContractionWeights, contract_copy
    algebra, spec = boson_example(1)
    weights = ContractionWeights(algebra,
                                 {"Q_1": 1, "P_1": 1, "E": 1, "T": 1})
    outcome = contract_copy(algebra, spec, weights)
    return outcome.algebra_prime, outcome.spec_prime


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
