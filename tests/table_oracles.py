"""Hand-transcribed bracket tables used as independent oracles.

QUADRATIC_ROWS lists the brackets of the degree-two words in G, F, Q, P
(against each other, against the rotations J_ij, against the vector
generators, and against E) over the fully extended inhomogeneous
algebra.  Dropping every term that mentions a central letter the
algebra lacks reduces a row to any smaller member of the family, so the
same data drives QHa(N), IHa(N), and the partial extensions.

Each row is (label, lhs, printed, fixed).  `printed` transcribes the
reference table verbatim, defects included; `fixed` is None when that
text is already correct, otherwise the repaired right side (re-derived
by hand; the engine tests pin both variants).  A term is
(conds, coeff, word): `conds` gates the term behind index equalities
("jk" meaning j == k, comma-separated when there are several), `word`
is the product as written, token "Gi" for an indexed letter and "T" for
a bare one.  One printed row uses the index letter v that the left side
never binds; instantiating it returns None by design.

boson_table gives the full bracket table of the ten-generator boson
realization, with the deformation parameter alpha left symbolic, and
contracted_boson_dressing the dressing of its alpha = 0 contraction.

The last sections hold slow, independent references that the package
itself does not need: the forms on the dual (a SparseTerms subclass)
and the structure equations as 2-forms, the wedge product and the
antiderivation d on the exterior algebra of the dual, the half-rank of
a 2-form by wedge powers, the characteristic polynomial by cofactor
expansion, the formal partial derivative, the coadjoint action Xhat_i
on S(g) and the invariance of a polynomial under it by one product per
bracket term, the rank over Q by Gaussian elimination over Fraction and
by fraction-free (Bareiss) elimination, the passage between a dense
alternating matrix and its entries above the diagonal, which
linalg.rank takes, the normal form of a word in U(g) by unmemoized
bubbling, the product of a sequence of elements of U(g) one factor at a
time, the commutator in U(g) as two full products, the conditions of a
virtual copy with every bracket of the dressed generators multiplied
out in full, and the Jacobi sums of a bracket table over every index
triple.

The last section holds the paper's other route to the Casimirs of the
full algebra, which no request takes: the quadratic Casimirs of the two
Levi parts the catalog uses, the standalone Levi subalgebra, the lift of
a Levi Casimir through a verified copy, and a test of functional
independence by the rank of the Jacobian at random points.  The
acceptance tests read the paper's lifting route from it, and the
char-poly Casimirs of casimir_gen are checked against the lift.
pbw_normalize and evaluate are small helpers that the tests share.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from math import lcm

from liecas.enveloping import (
    PBWElement,
    _orderings,
    ad_images,
    derivation,
    symmetrize,
    u_mul,
)
from liecas.errors import (
    InternalConsistencyError,
    MalformedInputError,
    PreconditionError,
)
from liecas.invariants import _HIGH, _LOW
from liecas.lie_core import LieAlgebra
from liecas.polynomial import CommPoly
from liecas.sparse import SparseTerms, accumulate, exact
from liecas.virtual_copy import (
    CONDITIONS,
    build_operators,
    make_spec,
    require_verified,
)

_VECTOR_LETTERS = "GFQP"
_INDEX_SLOTS = "ijklv"


def t(conds, coeff, *tokens):
    """One right-hand-side term: delta conditions, coefficient, word."""
    pairs = tuple(tuple(c) for c in conds.split(",") if c)
    word = []
    for tok in tokens:
        if len(tok) == 2 and tok[0] in _VECTOR_LETTERS and tok[1] in _INDEX_SLOTS:
            word.append((tok[0], tok[1]))
        else:
            word.append((tok, None))
    return (pairs, coeff, tuple(word))


def _j_row(a, b):
    return [t("jk", 1, a + "i", b + "l"), t("ik", -1, a + "j", b + "l"),
            t("jl", 1, a + "k", b + "i"), t("il", -1, a + "k", b + "j")]


# Row order follows the reference table, left column first.  The FP,QF
# row is printed twice there with the same content (one copy writes its
# last condition as k=i, the other as i=k); it is encoded once.
QUADRATIC_ROWS = [
    ("J,GQ", ("J", "G", "Q"), _j_row("G", "Q"), None),
    ("J,FP", ("J", "F", "P"), _j_row("F", "P"), None),
    ("J,GF", ("J", "G", "F"), _j_row("G", "F"), None),
    ("J,PQ", ("J", "P", "Q"), _j_row("P", "Q"), None),
    ("J,QF", ("J", "Q", "F"), _j_row("Q", "F"), None),
    ("J,PG", ("J", "P", "G"), _j_row("P", "G"), None),

    ("GQ,GQ", ("QQ", "G", "Q", "G", "Q"),
     [t("il", 1, "T", "Gk", "Qj"), t("kj", -1, "T", "Gi", "Ql")], None),
    # printed with the A-term missing
    ("GQ,FP", ("QQ", "G", "Q", "F", "P"),
     [t("ik", 1, "R", "Qj", "Pl"), t("lj", -1, "L", "Gi", "Fk"),
      t("il", 1, "M", "Fk", "Qj"), t("ki,jl", 1, "R", "L")],
     [t("ik", 1, "R", "Qj", "Pl"), t("lj", -1, "L", "Gi", "Fk"),
      t("il", 1, "M", "Fk", "Qj"), t("ki,jl", 1, "R", "L"),
      t("kj", -1, "A", "Gi", "Pl")]),
    ("GQ,GF", ("QQ", "G", "Q", "G", "F"),
     [t("il", 1, "R", "Gk", "Qj"), t("jk", -1, "T", "Gi", "Fl"),
      t("lj", -1, "A", "Gi", "Gk")], None),
    ("GQ,PQ", ("QQ", "G", "Q", "P", "Q"),
     [t("il", 1, "T", "Pk", "Qj"), t("jk", -1, "L", "Gi", "Ql"),
      t("ik", 1, "M", "Qj", "Ql")], None),
    # printed with the R-term missing
    ("GQ,QF", ("QQ", "G", "Q", "Q", "F"),
     [t("ik", 1, "T", "Qj", "Fl"), t("jl", -1, "A", "Gi", "Qk"),
      t("ik,jl", 1, "T", "A")],
     [t("ik", 1, "T", "Qj", "Fl"), t("jl", -1, "A", "Gi", "Qk"),
      t("ik,jl", 1, "T", "A"), t("il", 1, "R", "Qk", "Qj")]),
    ("GQ,PG", ("QQ", "G", "Q", "P", "G"),
     [t("ik", 1, "M", "Qj", "Gl"), t("jk", -1, "L", "Gi", "Gl"),
      t("lj", -1, "T", "Gi", "Pk"), t("ki,lj", 1, "M", "T")], None),

    ("FP,FP", ("QQ", "F", "P", "F", "P"),
     [t("il", 1, "T", "Fk", "Pj"), t("kj", -1, "T", "Fi", "Pl")], None),
    # printed with shuffled indices in the T-, M- and R-terms
    ("FP,GF", ("QQ", "F", "P", "G", "F"),
     [t("jl", -1, "T", "Fi", "Gj"), t("jk", -1, "M", "Fi", "Fl"),
      t("kj", -1, "R", "Pj", "Fk"), t("ki,lj", -1, "R", "T")],
     [t("lj", -1, "T", "Fi", "Gk"), t("kj", -1, "M", "Fi", "Fl"),
      t("ki", -1, "R", "Pj", "Fl"), t("ki,lj", -1, "R", "T")]),
    ("FP,PQ", ("QQ", "F", "P", "P", "Q"),
     [t("jl", 1, "L", "Fi", "Pk"), t("ik", 1, "T", "Ql", "Pj"),
      t("il", 1, "A", "Pj", "Pk")], None),
    ("FP,QF", ("QQ", "F", "P", "Q", "F"),
     [t("kj", 1, "L", "Fi", "Fl"), t("lj", -1, "T", "Fi", "Qk"),
      t("ki", 1, "A", "Fl", "Pj")], None),
    ("FP,PG", ("QQ", "F", "P", "P", "G"),
     [t("ki", 1, "T", "Pj", "Gl"), t("lj", -1, "M", "Pk", "Fi"),
      t("li", -1, "R", "Pk", "Pj")], None),

    ("GF,GF", ("QQ", "G", "F", "G", "F"),
     [t("li", 1, "R", "Gk", "Fj"), t("jk", -1, "R", "Gi", "Fl")], None),
    ("GF,PQ", ("QQ", "G", "F", "P", "Q"),
     [t("kj", 1, "T", "Gi", "Ql"), t("jl", 1, "A", "Gi", "Pk"),
      t("ki", 1, "M", "Ql", "Fj"), t("il", 1, "T", "Pk", "Fj")], None),
    ("GF,QF", ("QQ", "G", "F", "Q", "F"),
     [t("kj", 1, "A", "Gi", "Fl"), t("ki", 1, "T", "Fj", "Fl"),
      t("il", 1, "R", "Qk", "Fj")], None),
    ("GF,PG", ("QQ", "G", "F", "P", "G"),
     [t("kj", 1, "T", "Gi", "Gl"), t("lj", -1, "R", "Gi", "Pk"),
      t("ki", 1, "M", "Fj", "Gl"), t("ki,jl", 1, "M", "R")], None),

    ("PQ,PQ", ("QQ", "P", "Q", "P", "Q"),
     [t("li", 1, "L", "Pk", "Qj"), t("kj", -1, "L", "Pi", "Ql")], None),
    ("PQ,QF", ("QQ", "P", "Q", "Q", "F"),
     [t("ki", 1, "L", "Fl", "Qj"), t("lj", -1, "A", "Pi", "Qk"),
      t("li", -1, "T", "Qk", "Qj")], None),
    ("PQ,PG", ("QQ", "P", "Q", "P", "G"),
     [t("kj", -1, "L", "Pi", "Gl"), t("lj", -1, "T", "Pi", "Pk"),
      t("il", -1, "M", "Pk", "Qj")], None),

    # printed with the unbound index v in the second term
    ("QF,QF", ("QQ", "Q", "F", "Q", "F"),
     [t("kj", 1, "A", "Qi", "Fl"), t("li", -1, "A", "Qk", "Fv")],
     [t("kj", 1, "A", "Qi", "Fl"), t("li", -1, "A", "Qk", "Fj")]),
    # printed right side belongs to the neighboring bracket [Q_iF_j, P_kG_l]
    ("QF,PQ", ("QQ", "Q", "F", "P", "Q"),
     [t("kj", 1, "T", "Qi", "Gl"), t("ik", -1, "L", "Fj", "Gl"),
      t("lj", -1, "R", "Pk", "Qi"), t("il", -1, "T", "Pk", "Fj")],
     [t("jk", 1, "T", "Qi", "Ql"), t("jl", 1, "A", "Qi", "Pk"),
      t("ki", -1, "L", "Ql", "Fj")]),

    ("PG,PG", ("QQ", "P", "G", "P", "G"),
     [t("kj", 1, "M", "Pi", "Gl"), t("il", -1, "M", "Pk", "Gj")], None),

    ("GQ|E", ("QE", "G", "Q"), [t("", 1, "Pi", "Qj")], None),
    ("FP|E", ("QE", "F", "P"), [t("", -1, "Qi", "Pj")], None),
    ("GF|E", ("QE", "G", "F"),
     [t("", 1, "Pi", "Fj"), t("", -1, "Gi", "Qj")], None),
    ("QF|E", ("QE", "Q", "F"), [t("", -1, "Qi", "Qj")], None),
    ("PG|E", ("QE", "P", "G"), [t("", 1, "Pi", "Pj")], None),

    ("GQ|G", ("QL", "G", "Q", "G"), [t("jk", -1, "Gi", "T")], None),
    ("GQ|F", ("QL", "G", "Q", "F"),
     [t("jk", -1, "Gi", "A"), t("ik", 1, "Qj", "R")], None),
    ("GQ|Q", ("QL", "G", "Q", "Q"), [t("ki", 1, "Qj", "T")], None),
    ("GQ|P", ("QL", "G", "Q", "P"),
     [t("ik", 1, "Qj", "M"), t("kj", -1, "Gi", "L")], None),
    ("FP|G", ("QL", "F", "P", "G"),
     [t("jk", -1, "Fi", "M"), t("ik", -1, "Pj", "R")], None),
    ("FP|F", ("QL", "F", "P", "F"), [t("kj", -1, "Fi", "T")], None),
    ("FP|Q", ("QL", "F", "P", "Q"),
     [t("ik", 1, "Pj", "A"), t("kj", 1, "Fi", "L")], None),
    ("FP|P", ("QL", "F", "P", "P"), [t("ik", 1, "Pj", "T")], None),
    ("GF|G", ("QL", "G", "F", "G"), [t("kj", -1, "Gi", "R")], None),
    ("GF|F", ("QL", "G", "F", "F"), [t("ik", 1, "Fj", "R")], None),
    ("GF|Q", ("QL", "G", "F", "Q"),
     [t("ik", 1, "Fj", "T"), t("kj", 1, "Gi", "A")], None),
    ("GF|P", ("QL", "G", "F", "P"),
     [t("jk", 1, "Gi", "T"), t("ki", 1, "Fj", "M")], None),
    ("PQ|G", ("QL", "P", "Q", "G"),
     [t("kj", -1, "Pi", "T"), t("ki", -1, "Qj", "M")], None),
    ("PQ|F", ("QL", "P", "Q", "F"),
     [t("jk", -1, "Pi", "A"), t("ik", -1, "Qj", "T")], None),
    ("PQ|Q", ("QL", "P", "Q", "Q"), [t("ik", 1, "Qj", "L")], None),
    ("PQ|P", ("QL", "P", "Q", "P"), [t("jk", -1, "Pi", "L")], None),
    ("QF|G", ("QL", "Q", "F", "G"),
     [t("jk", -1, "Qi", "R"), t("ki", -1, "Fj", "T")], None),
    ("QF|F", ("QL", "Q", "F", "F"), [t("ki", -1, "Fj", "A")], None),
    ("QF|Q", ("QL", "Q", "F", "Q"), [t("kj", 1, "Qi", "A")], None),
    ("QF|P", ("QL", "Q", "F", "P"),
     [t("jk", 1, "Qi", "T"), t("ki", -1, "Fj", "L")], None),
    ("PG|G", ("QL", "P", "G", "G"), [t("ki", -1, "Gj", "M")], None),
    # printed with k=i gating both terms and P_i where P_? should read
    # off the other index
    ("PG|F", ("QL", "P", "G", "F"),
     [t("ki", 1, "Pi", "R"), t("ki", -1, "Gj", "T")],
     [t("jk", 1, "Pi", "R"), t("ki", -1, "T", "Gj")]),
    ("PG|Q", ("QL", "P", "G", "Q"),
     [t("kj", 1, "Pi", "T"), t("ik", 1, "Gj", "L")], None),
    ("PG|P", ("QL", "P", "G", "P"), [t("jk", 1, "Pi", "M")], None),

    ("TGQ|E", ("CUBE", "T", "G", "Q"),
     [t("", 1, "T", "Pi", "Qj"), t("", 1, "L", "Gi", "Qj")], None),
    # printed with the sign of the T-term flipped and the wrong L-word
    ("TFP|E", ("CUBE", "T", "F", "P"),
     [t("", 1, "T", "Qi", "Pj"), t("", 1, "L", "Qi", "Gj")],
     [t("", -1, "T", "Qi", "Pj"), t("", 1, "L", "Fi", "Pj")]),
    ("RPQ|E", ("CUBE", "R", "P", "Q"),
     [t("", -2, "T", "Pi", "Qj")], None),
]

# Labels of the rows whose printed text disagrees with the bracket it
# claims to expand, over the full extension and over the bare
# inhomogeneous algebra.  Three of the defects live entirely in L/A/M
# terms that the bare algebra drops, so its set is smaller.
DEFECT_LABELS_FULL = frozenset(
    {"GQ,FP", "GQ,QF", "FP,GF", "QF,QF", "QF,PQ", "PG|F", "TFP|E"})
DEFECT_LABELS_BARE = frozenset(
    {"GQ,QF", "FP,GF", "QF,PQ", "PG|F", "TFP|E"})


def rhs_terms(row):
    """The row's correct right side (the repaired one when it differs)."""
    _, _, printed, fixed = row
    return printed if fixed is None else fixed


def environments(N, kind):
    """All index bindings a row of the given left-side kind ranges over."""
    if kind in ("QE", "CUBE"):
        slots = "ij"
    elif kind == "QL":
        slots = "ijk"
    else:
        slots = "ijkl"
    envs = [dict(zip(slots, combo))
            for combo in product(range(1, N + 1), repeat=len(slots))]
    if kind == "J":
        envs = [e for e in envs if e["i"] < e["j"]]
    return envs


def instantiate(algebra, terms, env):
    """Normal form of a row's right side at concrete indices.

    Terms whose word needs a generator the algebra lacks are dropped, as
    the reduction prescription demands.  Returns None when a term that
    fires uses an index slot with no binding.
    """
    ix = algebra.name_index
    total = PBWElement(algebra)
    for conds, coeff, word in terms:
        if any(env[a] != env[b] for a, b in conds):
            continue
        indices = []
        alive = True
        for letter, slot in word:
            if slot is None:
                name = letter
            else:
                if slot not in env:
                    return None
                name = "%s_%d" % (letter, env[slot])
            if name not in ix:
                alive = False
                break
            indices.append(ix[name])
        if alive:
            total = total + pbw_normalize(algebra, indices, coeff)
    return total


def lhs_factor_names(lhs, env):
    """Generator-name words of the two bracket factors of a row."""
    kind = lhs[0]
    if kind == "J":
        a, b = lhs[1], lhs[2]
        return (["J_%d%d" % (env["i"], env["j"])],
                ["%s_%d" % (a, env["k"]), "%s_%d" % (b, env["l"])])
    if kind == "QQ":
        a, b, c, d = lhs[1:]
        return (["%s_%d" % (a, env["i"]), "%s_%d" % (b, env["j"])],
                ["%s_%d" % (c, env["k"]), "%s_%d" % (d, env["l"])])
    if kind == "QL":
        a, b, c = lhs[1:]
        return (["%s_%d" % (a, env["i"]), "%s_%d" % (b, env["j"])],
                ["%s_%d" % (c, env["k"])])
    if kind == "QE":
        a, b = lhs[1:]
        return (["%s_%d" % (a, env["i"]), "%s_%d" % (b, env["j"])], ["E"])
    if kind == "CUBE":
        x, a, b = lhs[1:]
        return ([x, "%s_%d" % (a, env["i"]), "%s_%d" % (b, env["j"])], ["E"])
    raise AssertionError("unknown row kind %r" % (kind,))


def engine_bracket(algebra, lhs, env):
    """The engine's bracket of the row's two factors at concrete indices:
    the derivation by ad_images when a factor is one generator, the two
    products of commutator_direct otherwise."""
    ix = algebra.name_index
    left_names, right_names = lhs_factor_names(lhs, env)
    left = pbw_normalize(algebra, [ix[n] for n in left_names])
    right = pbw_normalize(algebra, [ix[n] for n in right_names])
    if len(left_names) == 1:
        return derivation(right, ad_images(algebra, ix[left_names[0]]))
    if len(right_names) == 1:
        return derivation(left, ad_images(algebra, ix[right_names[0]], -1))
    return commutator_direct(left, right)


def printed_matches_engine(algebra, N, row):
    """Whether the row's printed text reproduces the bracket everywhere."""
    _, lhs, printed, _ = row
    for env in environments(N, lhs[0]):
        want = instantiate(algebra, printed, env)
        if want is None or want != engine_bracket(algebra, lhs, env):
            return False
    return True


def printed_defect_labels(algebra, N):
    """Labels of the rows whose printed text fails somewhere."""
    return {row[0] for row in QUADRATIC_ROWS
            if not printed_matches_engine(algebra, N, row)}


# ---- the ten-generator boson realization ------------------------------------


def boson_table(alpha):
    """Full bracket table {(a, b): {name: coeff}} in basis order; pairs
    not listed, and entries whose coefficient vanishes, are zero."""
    a = Fraction(alpha)
    rows = {
        ("X_1,1", "X_-1,1"): {"X_-1,1": Fraction(-2)},
        ("X_1,1", "X_1,-1"): {"X_1,-1": Fraction(2)},
        ("X_1,1", "G_1"): {"G_1": Fraction(-1)},
        ("X_1,1", "F_1"): {"F_1": Fraction(1)},
        ("X_1,1", "Q_1"): {"Q_1": Fraction(-1)},
        ("X_1,1", "P_1"): {"P_1": Fraction(1)},
        ("X_-1,1", "X_1,-1"): {"X_1,1": Fraction(4)},
        ("X_-1,1", "F_1"): {"G_1": Fraction(2)},
        ("X_-1,1", "P_1"): {"Q_1": Fraction(2)},
        ("X_1,-1", "G_1"): {"F_1": Fraction(-2)},
        ("X_1,-1", "Q_1"): {"P_1": Fraction(-2)},
        ("G_1", "F_1"): {"R": Fraction(1)},
        ("G_1", "P_1"): {"T": Fraction(1)},
        ("G_1", "E"): {"Q_1": Fraction(1)},
        ("F_1", "Q_1"): {"T": Fraction(-1)},
        ("F_1", "E"): {"P_1": Fraction(1)},
        ("Q_1", "P_1"): {"R": a},
        ("Q_1", "E"): {"G_1": a},
        ("P_1", "E"): {"F_1": a},
        ("R", "E"): {"T": Fraction(2)},
        ("E", "T"): {"R": -2 * a},
    }
    return {pair: {m: c for m, c in rhs.items() if c}
            for pair, rhs in rows.items()}


def contracted_boson_dressing(algebra):
    """The alpha = 0 dressing of the boson realization, written out by
    hand over the contracted algebra: f0 = -T^2, and each P is the
    symmetrized product of its letters.

        P[X_1,1]  = T(Q_1 F_1 + G_1 P_1) - R Q_1 P_1
        P[X_-1,1] = 2 T G_1 Q_1 - R Q_1^2
        P[X_1,-1] = 2 T F_1 P_1 - R P_1^2
    """
    ix = algebra.name_index
    G, F, Q, P, R, T = (ix[m] for m in ("G_1", "F_1", "Q_1", "P_1", "R", "T"))

    def sym(terms):
        return symmetrize(algebra, sum((CommPoly.monomial(algebra.dim, w, c)
                                        for w, c in terms.items()),
                                       CommPoly(algebra.dim)))

    f0 = PBWElement.from_terms(algebra, {(T, T): -1})
    P_map = {
        "X_1,1": sym({(T, Q, F): 1, (T, G, P): 1, (R, Q, P): -1}),
        "X_-1,1": sym({(T, G, Q): 2, (R, Q, Q): -1}),
        "X_1,-1": sym({(T, F, P): 2, (R, P, P): -1}),
    }
    return make_spec(algebra, f0, P_map)


# ---- exterior algebra on the dual -------------------------------------------


# a form on the dual of an n-dimensional algebra: strictly increasing index
# tuples (the wedge monomials of the dual basis) -> coefficient
class ExteriorElement(SparseTerms):
    __slots__ = ("n",)
    _universe = "n"


def mc_differential(algebra):
    """The structure equations d w_k = sum_{i<j} C_ij^k w_i ^ w_j as a
    list of 2-forms, entry k holding d w_k, so that d^2 = 0 is exactly
    the Jacobi identity: the coefficient of w_i ^ w_j ^ w_l in d(d w_k)
    is the cyclic Jacobi sum.  The opposite overall sign would also
    square to zero; this one matches the structure-equation tables of
    the catalog algebras and the forms `mc` prints."""
    out = [ExteriorElement(algebra.dim) for _ in range(algebra.dim)]
    for (i, j), terms in algebra.brackets.items():
        for k, c in terms.items():
            out[k].terms[(i, j)] = c
    return out


def _merge_sign(idx1, idx2):
    """Concatenate two strictly increasing tuples; return (sorted, sign)
    or (None, 0) when an index repeats."""
    merged = idx1 + idx2
    if len(set(merged)) != len(merged):
        return None, 0
    arr = list(merged)
    # count inversions of the concatenation (tuples are short)
    inv = 0
    for s in range(len(arr)):
        for t in range(s + 1, len(arr)):
            if arr[s] > arr[t]:
                inv += 1
    return tuple(sorted(arr)), -1 if inv % 2 else 1


def wedge(a, b):
    if not isinstance(a, ExteriorElement) or not isinstance(b, ExteriorElement):
        raise MalformedInputError("wedge needs two exterior elements")
    if a.n != b.n:
        raise MalformedInputError("forms over different spaces")
    terms = {}
    for idx1, c1 in a.terms.items():
        row = []
        for idx2, c2 in b.terms.items():
            idx, sign = _merge_sign(idx1, idx2)
            if idx is not None:
                row.append((idx, sign * c2))
        accumulate(terms, row, c1)
    return a._new(terms)


def differential(algebra, elem):
    """Antiderivation extension of the structure equations to any form:

        d(w_{i_1} ^ ... ^ w_{i_p})
            = sum_t (-1)^{t-1} w_{i_1} ^ ... ^ d w_{i_t} ^ ... ^ w_{i_p}
    """
    if elem.n != algebra.dim:
        raise MalformedInputError(
            "form over %d directions against a %d-dim algebra"
            % (elem.n, algebra.dim))
    mc = mc_differential(algebra)
    out = ExteriorElement(algebra.dim)
    for idx, c in elem.terms.items():
        for t, i in enumerate(idx):
            head = ExteriorElement(algebra.dim, {idx[:t]: 1})
            tail = ExteriorElement(algebra.dim, {idx[t + 1:]: 1})
            piece = wedge(head, wedge(mc[i], tail))
            sign = -1 if t % 2 else 1
            out = out + piece.scale(sign * c)
    return out


def _require_two_form(omega):
    for idx in omega.terms:
        if len(idx) != 2:
            raise MalformedInputError("need a pure 2-form")


def alternating_matrix(omega):
    """M[i][j] = the coefficient of omega on w_i ^ w_j, read through the
    wedge of the two basis 1-forms, so antisymmetry comes from the sign
    rule of wedge."""
    _require_two_form(omega)
    n = omega.n
    basis = [ExteriorElement(n, {(i,): 1}) for i in range(n)]
    return [[sum((c * omega.terms.get(idx, 0)
                  for idx, c in wedge(basis[i], basis[j]).terms.items()),
                 Fraction(0))
             for j in range(n)] for i in range(n)]


def pencil_matrix(algebra, coeffs):
    """The alternating matrix of sum_k a_k d w_k."""
    omega = ExteriorElement(algebra.dim)
    for a, two_form in zip(coeffs, mc_differential(algebra)):
        omega = omega + two_form.scale(a)
    return alternating_matrix(omega)


def wedge_rank_slow(omega):
    """The largest j with omega^j != 0, by brute force on wedge powers."""
    _require_two_form(omega)
    j = 0
    power = ExteriorElement(omega.n, {(): 1})
    while True:
        power = wedge(power, omega)
        if power.is_zero():
            return j
        j += 1
        if 2 * j > omega.n:
            raise InternalConsistencyError(
                "nonzero wedge power beyond the dimension")


# ---- characteristic polynomial, invariance and rank -------------------------


def char_poly_cofactor(n, upper, nvars):
    """Reference characteristic polynomial (monic, in the appended last
    variable) by cofactor expansion of the dense n x n antisymmetric
    matrix with the entries `upper` above the diagonal, as
    casimir_gen.char_poly_coefficients takes it; intended for small n."""
    if n > 4:
        raise MalformedInputError("cofactor reference is for n <= 4")
    if any(not 0 <= a < b < n for a, b in upper):
        raise MalformedInputError("entry outside the upper triangle")
    t_var = CommPoly.monomial(nvars + 1, (nvars,))
    zero = CommPoly(nvars + 1)
    dense = [[zero] * n for _ in range(n)]
    for (a, b), entry in upper.items():
        lifted = CommPoly(nvars + 1, dict(entry.terms))
        dense[a][b], dense[b][a] = lifted, -lifted
    rows = [[(t_var if i == j else zero) - dense[i][j]
             for j in range(n)] for i in range(n)]

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = CommPoly(nvars + 1)
        for col in range(len(sub)):
            minor = [row[:col] + row[col + 1:] for row in sub[1:]]
            piece = sub[0][col] * det(minor)
            total = total + (piece if col % 2 == 0 else piece.scale(-1))
        return total

    return det(rows)


def partial(poly, i):
    """Formal derivative d/dx_i, so d(x_i^k)/dx_i = k x_i^(k-1)."""
    if not 0 <= i < poly.nvars:
        raise MalformedInputError("variable index %d out of range" % i)
    # dropping one letter i is injective, so no two terms collide
    out = {}
    for w, c in poly.terms.items():
        if i in w:
            t = w.index(i)
            out[w[:t] + w[t + 1:]] = exact(c * w.count(i))
    return CommPoly(poly.nvars, out)


def xhat_direct(algebra, poly, i):
    """Xhat_i poly = sum_{j,k} C_ij^k x_k dF/dx_j, multiplied out term by
    term through partial."""
    res = CommPoly(poly.nvars)
    for j in range(algebra.dim):
        for k, c in algebra.bracket_basis(i, j).items():
            res = res + (CommPoly.monomial(poly.nvars, (k,))
                         * partial(poly, j)).scale(c)
    return res


def is_invariant(algebra, poly):
    """(flag, violations): violations lists (i, Xhat_i poly) for the
    generators that fail to kill the polynomial, Xhat_i poly taken by
    xhat_direct."""
    violations = []
    for i in range(algebra.dim):
        res = xhat_direct(algebra, poly, i)
        if res:
            violations.append((i, res))
    return (not violations, violations)


def upper_entries(m):
    """{(i, j): m[i][j]} for i < j: an alternating matrix as linalg.rank
    takes it."""
    return {(i, j): row[j] for i, row in enumerate(m)
            for j in range(i + 1, len(row))}


def alternating_from_upper(upper, n):
    """The dense n x n alternating matrix with the entries `upper` above
    the diagonal and zero at every place above it that `upper` lacks."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in upper.items():
        m[i][j], m[j][i] = v, -v
    return m


def rank_fraction(rows):
    """Rank by Gaussian elimination with Fraction arithmetic."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        for i in range(r + 1, nrows):
            if m[i][col]:
                factor = m[i][col] * inv
                for j in range(col, ncols):
                    m[i][j] -= factor * m[r][j]
        r += 1
        if r == nrows:
            break
    return r


def rank_bareiss(rows):
    """Rank over Q by fraction-free (Bareiss) elimination on integer rows:
    each row is first scaled by the lcm of its denominators, which keeps
    the rank, and every later division is exact (Bareiss, Math. Comp. 22,
    1968)."""
    m = []
    for row in rows:
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[col]
        for i in range(r + 1, nrows):
            row = m[i]
            a = row[col]
            # p * row - a * top, divided by the previous pivot: exact
            for j in range(col + 1, ncols):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
        r += 1
        if r == nrows:
            break
    return r


# ---- normal ordering and commutators in U(g) --------------------------------


def normal_word_bubble(algebra, word, coeff=1):
    """coeff * X_{word_1} ... X_{word_p} in normal form, by swapping the
    leftmost out-of-order pair, X_a X_b = X_b X_a + [X_a, X_b] for a > b,
    with no memo; brackets are read from the stored i < j rows.  Every
    word is bubbled afresh, so the work is exponential in the length."""
    out = {}
    pending = [(tuple(word), Fraction(coeff))]
    while pending:
        w, c = pending.pop()
        t = next((s for s in range(len(w) - 1) if w[s] > w[s + 1]), None)
        if t is None:
            accumulate(out, ((w, c),))
            continue
        b, a = w[t], w[t + 1]
        head, tail = w[:t], w[t + 2:]
        pending.append((head + (a, b) + tail, c))
        # [X_b, X_a] = -[X_a, X_b] with a < b
        for k, v in algebra.brackets.get((a, b), {}).items():
            pending.append((head + (k,) + tail, -c * v))
    return PBWElement(algebra, out)


def u_product(algebra, factors):
    """Left-to-right product of a sequence of elements (unit when empty)."""
    return reduce(u_mul, factors, PBWElement.from_terms(algebra, {(): 1}))


def commutator_direct(a, b):
    """[a, b] as the two full products ab - ba, whatever the factors."""
    return u_mul(a, b) - u_mul(b, a)


def symmetrize_arrangements(algebra, poly):
    """Sym(poly) by its definition: each word's generators multiplied in
    every distinct order with u_product, one product at a time with no
    memo shared between them, and the products averaged."""
    out = PBWElement(algebra)
    for word, c in poly.terms.items():
        orders = set(permutations(word))
        for order in orders:
            factors = [PBWElement.generator(algebra, a) for a in order]
            out = out + u_product(algebra, factors).scale(
                Fraction(c, len(orders)))
    return out


# ---- the conditions of a virtual copy --------------------------------------


def residuals_direct(algebra, spec):
    """{condition: {key: nonzero residual}}, keyed like verify's report,
    with every bracket multiplied out in full by commutator_direct:

    radical (i, y)                [X'_i, Y_y]
    adjoint (i, j)                [X'_i, X_j] - E_ij
    f_radical (y,), f_levi (j,)   [f, Y_y], [f, X_j]
    equivariance (i, j)           [P_i, X_j] - sum over Levi k of C_ij^k P_k
    factor (i, j), i < j          [X'_i, X'_j] - f E_ij

    where X'_i = X_i f + P_i comes from build_operators and E_ij is
    sum_k C_ij^k image_k, image_k being X'_k for Levi k and the plain
    generator otherwise."""
    ops = build_operators(algebra, spec)
    gens = {t: PBWElement.generator(algebra, t) for t in range(algebra.dim)}
    image = {**gens, **ops}
    levi, radical = sorted(algebra.levi), sorted(algebra.radical)
    out = {name: {} for name, _line in CONDITIONS}

    def combination(i, j, terms):
        total = PBWElement(algebra)
        for k, c in algebra.bracket_basis(i, j).items():
            if k in terms:
                total = total + terms[k].scale(c)
        return total

    def keep(name, key, residual):
        if residual:
            out[name][key] = residual

    for y in radical:
        keep("f_radical_residuals", (y,), commutator_direct(spec.f, gens[y]))
    for i in levi:
        keep("f_levi_residuals", (i,), commutator_direct(spec.f, gens[i]))
        for y in radical:
            keep("radical_residuals", (i, y),
                 commutator_direct(ops[i], gens[y]))
        for j in levi:
            keep("adjoint_residuals", (i, j),
                 commutator_direct(ops[i], gens[j]) - combination(i, j, image))
            keep("equivariance_residuals", (i, j),
                 commutator_direct(spec.P[i], gens[j])
                 - combination(i, j, spec.P))
            if i < j:
                keep("factor_residuals", (i, j),
                     commutator_direct(ops[i], ops[j])
                     - u_mul(spec.f, combination(i, j, image)))
    return out


# ---- Jacobi over every triple -----------------------------------------------


def jacobi_direct(algebra):
    """[(i, j, k, residual)] over every i < j < k with a nonzero Jacobi sum
    [[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j], in triple order;
    brackets are read from the stored i < j rows, not the adjoint table."""
    def bracket(a, b):
        if a < b:
            return algebra.brackets.get((a, b), {})
        return {k: -c for k, c in algebra.brackets.get((b, a), {}).items()}

    out = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            for k in range(j + 1, algebra.dim):
                # sum_m C_ab^m [X_m, X_c] over the three cyclic orders
                res = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coeff in bracket(a, b).items():
                        accumulate(res, bracket(m, c).items(), coeff)
                if res:
                    out.append((i, j, k, res))
    return out


# ---- small shared helpers -----------------------------------------------------


def pbw_normalize(algebra, word, coeff=1):
    """Normal form of coeff * X_{word_1} ... X_{word_p} as a PBWElement."""
    return PBWElement.from_terms(algebra, {tuple(word): coeff})


def evaluate(poly, point):
    """Exact value of a CommPoly at a rational point (a sequence of length
    nvars), through sparse.exact: an int when it is integral."""
    if len(point) != poly.nvars:
        raise MalformedInputError(
            "point length %d, expected %d" % (len(point), poly.nvars))
    # integral coordinates multiply as ints, far cheaper than Fractions
    point = list(map(exact, point))
    total = 0
    for w, c in poly.terms.items():
        m = 1
        for t in w:
            m *= point[t]
        total += c * m
    return exact(total)


# ---- the lifting route to the Casimirs ----------------------------------------


def subalgebra(algebra, indices):
    """Standalone algebra on a closed subset of generators.

    Names are preserved; the Levi/radical split is inherited by
    intersection.  Raises when a bracket leaves the subset.
    """
    indices = sorted(set(indices))
    for i in indices:
        if not 0 <= i < algebra.dim:
            raise MalformedInputError("generator index %r out of range" % (i,))
    pos = {old: new for new, old in enumerate(indices)}
    table = {}
    for (i, j), row in sorted(algebra.brackets.items()):
        if i not in pos or j not in pos:
            continue
        for k in row:
            if k not in pos:
                raise MalformedInputError(
                    "generators are not closed: [%s, %s] contains %s"
                    % (algebra.names[i], algebra.names[j], algebra.names[k]))
        table[pos[i], pos[j]] = {pos[k]: c for k, c in row.items()}
    return LieAlgebra(
        [algebra.names[i] for i in indices], table,
        levi=[pos[i] for i in indices if i in algebra.levi],
        radical=[pos[i] for i in indices if i in algebra.radical])


def levi_subalgebra(algebra):
    return subalgebra(algebra, algebra.levi)


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


def _symmetric_substitute(algebra, ops, word, sums):
    """Equal-weight average of ops[i1]...ops[ip] over the orderings of the
    sorted word: A(M) / D(M) for its letters M, where A(M), the sum over
    distinct a in M of ops[a] A(M - a), is memoized in sums on the sorted
    letter tuple ({(): unit} to start), as in symmetrize."""
    def arrangements(letters):
        if letters not in sums:
            total = PBWElement(algebra)
            for s, a in enumerate(letters):
                if s == 0 or letters[s - 1] != a:
                    rest = arrangements(letters[:s] + letters[s + 1:])
                    total = total + u_mul(ops[a], rest)
            sums[letters] = total
        return sums[letters]
    return arrangements(word).scale(Fraction(1, _orderings(word)))


def lift_casimir(algebra, spec, casimir):
    """Substitute X_i -> X'_i into a Casimir element of the Levi part.

    The input must be supported on Levi generators and commute with every
    Levi generator inside the standalone Levi subalgebra; the output then
    commutes with every generator of the full algebra.

    The substitution is made through the symmetric presentation: the
    input is peeled top degree first into symmetrizations of commutative
    monomials, and each monomial is replaced by the equal-weight average
    over the orderings of the matching X' product.  Substituting into an
    arbitrary ordering would not be well defined, because normally
    ordering an element uses [X_i, X_j] = C_ij^k X_k while the dressed
    generators only satisfy the f-scaled version of that relation; the
    completion terms then come out undressed and the result misses
    centrality by terms proportional to 1 - f.  The symmetric average is
    the ordering-free choice, and it commutes with the adjoint action
    without ever invoking the bracket, so invariance survives the
    dressing.  A Casimir written as an explicitly symmetric arrangement,
    like the quadratic X_1,1^2 - (X_-1,1 X_1,-1 + X_1,-1 X_-1,1)/2, is
    therefore reproduced with X' in place of X, term for term.
    """
    if casimir.algebra is not algebra:
        raise MalformedInputError("element belongs to a different algebra")
    require_verified(algebra, spec, "nothing can be lifted")
    outside = casimir.support() - algebra.levi
    if outside:
        raise PreconditionError(
            "element touches non-Levi generators %s"
            % sorted(algebra.names[i] for i in outside))
    sub = levi_subalgebra(algebra)
    pos = {old: new for new, old in enumerate(sorted(algebra.levi))}
    # index order is preserved, so words stay normally ordered
    inside = PBWElement(sub, {tuple(pos[i] for i in w): c
                              for w, c in casimir.terms.items()})
    for t in range(sub.dim):
        if derivation(inside, ad_images(sub, t)):
            raise PreconditionError(
                "element is not a Casimir of the Levi subalgebra "
                "(fails against %s)" % sub.names[t])
    ops = build_operators(algebra, spec)
    out = PBWElement(algebra)
    sums = {(): PBWElement.from_terms(algebra, {(): 1})}
    remaining = casimir
    while remaining:
        d = remaining.degree()
        layer = [(w, c) for w, c in remaining.terms.items() if len(w) == d]
        for w, c in layer:
            out = out + _symmetric_substitute(algebra, ops, w, sums).scale(c)
            remaining = remaining - symmetrize(
                algebra, CommPoly.monomial(algebra.dim, w, c))
    return out


def functionally_independent(algebra, polys, trials=3, seed=1729):
    """Whether the Jacobian of the family reaches full row rank at one of
    a few random integer points."""
    polys = list(polys)
    if not polys:
        return True
    for p in polys:
        if p.nvars != algebra.dim:
            raise MalformedInputError(
                "polynomial in %d variables against a %d-dim algebra"
                % (p.nvars, algebra.dim))
    if trials < 1:
        raise MalformedInputError("need at least one trial")
    rng = random.Random(seed)
    grads = [[partial(p, j) for j in range(algebra.dim)] for p in polys]
    for _ in range(trials):
        point = tuple(rng.randint(_LOW, _HIGH) for _ in range(algebra.dim))
        jac = [[evaluate(d, point) for d in row] for row in grads]
        if rank_bareiss(jac) == len(polys):
            return True
    return False
