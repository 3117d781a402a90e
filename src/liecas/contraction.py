"""Contractions of Lie algebras by integer generator weights.

A weighting assigns an integer n_t to each generator (Levi generators sit
at 0).  Scaling X_t by eps^(n_t) multiplies the stored bracket
term C_ij^k by eps^(n_i + n_j - n_k); letting the parameter run off to
its limit keeps terms of total weight zero, kills terms of positive
weight, and has no limit at all when any term comes out negative.  The
contracted bracket table is a Lie algebra again whenever the limit
exists.

The same weighting filters the enveloping algebra by word weight, and
the leading (maximal-weight) part of a dressing spec is the natural
candidate spec for the contracted algebra.  contract_copy() owns every
fact of a dressed contraction: the top weight M0 of f, the top weight
M_i of each P_i, and their per-generator maxima N_i, which are the
normalizations that keep the dressed generators finite in the limit.
When the limit does not exist it raises LimitDoesNotExistError with
these top weights and copy_compatible attached as its payload.  When
every M_i agrees with M0 the leading parts assemble into a dressing of
the contracted algebra (X''_i = X_i f_0 + P_i,0) and it is verified on
the spot; when they disagree the limit operators lose one of their two
halves and no longer have the dressed shape, which is reported as
copy_compatible = False.  The catalog's boson_example_contracted is
this function's answer on boson_example, not a table of its own.

A generator with P_i = 0 puts no constraint of its own on the limit, so
its M_i is taken to be M0 (the f half is still there) and its leading
part stays zero.
"""

from collections import namedtuple

from .errors import (
    InternalConsistencyError,
    LimitDoesNotExistError,
    MalformedInputError,
)
from .lie_core import LieAlgebra

# enveloping and virtual_copy are imported by the dressed path alone, so a
# plain contraction (contract_algebra) loads neither


class ContractionWeights:
    """Integer weight per generator, from a {name: weight} table.

    Names absent from the table sit at weight 0; a Levi name may be
    given weight 0 alone, and any other weight on it is refused.
    """

    def __init__(self, algebra, table=None):
        weights = [0] * algebra.dim
        for name, n in (table or {}).items():
            t = algebra.index(name)
            if isinstance(n, bool) or not isinstance(n, int):
                raise MalformedInputError(
                    "weight of %r must be an integer, got %r" % (name, n))
            if n and t in algebra.levi:
                raise MalformedInputError(
                    "weight of Levi generator %r must be 0, got %r"
                    % (name, n))
            weights[t] = n
        self.algebra = algebra
        self.by_index = tuple(weights)

    def of(self, t):
        return self.by_index[t]

    def word_weight(self, word):
        return sum(self.by_index[t] for t in word)

    def describe(self):
        return {self.algebra.names[t]: n
                for t, n in enumerate(self.by_index) if n}


def contract_algebra(algebra, weights):
    """The weight-zero part of the bracket table, as a new algebra over
    the same named basis and the same declared split."""
    if weights.algebra is not algebra:
        raise MalformedInputError("weights belong to a different algebra")
    rows = {}
    for (i, j), terms in algebra.brackets.items():
        kept = {}
        for k, c in terms.items():
            s = weights.of(i) + weights.of(j) - weights.of(k)
            if s < 0:
                raise LimitDoesNotExistError(algebra.names[i],
                                             algebra.names[j],
                                             algebra.names[k], s)
            if s == 0:
                kept[k] = c
        rows[(i, j)] = kept
    out = LieAlgebra(algebra.names, rows, levi=sorted(algebra.levi))
    report = out.validate()
    if not report.ok:
        raise InternalConsistencyError(
            "contracted bracket table is not a Lie algebra: %s"
            % report.describe())
    return out


def weighted_leading_part(elem, weights):
    """(top weight, top-weight slice) of a nonzero enveloping element."""
    from .enveloping import PBWElement
    if elem.algebra is not weights.algebra:
        raise MalformedInputError("element belongs to a different algebra")
    if elem.is_zero():
        raise MalformedInputError("the zero element has no leading part")
    top = max(weights.word_weight(w) for w in elem.terms)
    kept = {w: c for w, c in elem.terms.items()
            if weights.word_weight(w) == top}
    return top, PBWElement(elem.algebra, kept)


def transplant(elem, target):
    """The same normally ordered terms read over another algebra of equal
    dimension.  Normality of a word is a property of the index order
    alone, so this is always well formed; it is the right move exactly
    when the words' meaning should survive a change of bracket table,
    as it does for leading parts passing to the contraction."""
    from .enveloping import PBWElement
    if target.dim != elem.algebra.dim:
        raise MalformedInputError("algebras have different dimensions")
    return PBWElement(target, dict(elem.terms))


# Everything contract_copy() learns, over a weighting whose limit exists.
# The weight bookkeeping M0, Mi, Ni, f0, P0 and copy_compatible has f0 and
# P0 over the source algebra; algebra_prime is the contracted algebra and
# operators_prime the limits of the dressed generators over it.  A
# copy-compatible contraction also has spec_prime, the contracted
# dressing, and verify_report, its verification; both are None otherwise.
ContractionOutcome = namedtuple(
    "ContractionOutcome",
    "M0 Mi Ni f0 P0 copy_compatible algebra_prime operators_prime "
    "spec_prime verify_report")


def contract_copy(algebra, spec, weights):
    """Contract a dressing along a weighting; the dressing is verified
    here, and a copy-compatible limit dressing is verified in turn.  A
    weighting with no limit raises LimitDoesNotExistError carrying the
    top weights as its payload."""
    from .enveloping import PBWElement, u_mul
    from .virtual_copy import make_spec, require_verified, verify
    if spec.algebra is not algebra:
        raise MalformedInputError("spec belongs to a different algebra")
    if weights.algebra is not algebra:
        raise MalformedInputError("weights belong to a different algebra")
    require_verified(algebra, spec, "contract the raw algebra instead")

    M0, f0 = weighted_leading_part(spec.f, weights)
    Mi, P0 = {}, {}
    for i in sorted(algebra.levi):
        if spec.P[i].is_zero():
            Mi[i] = M0
            P0[i] = PBWElement(algebra)
        else:
            Mi[i], P0[i] = weighted_leading_part(spec.P[i], weights)
    compatible = all(m == M0 for m in Mi.values())

    try:
        prime = contract_algebra(algebra, weights)
    except LimitDoesNotExistError as err:
        err.payload = {"f_top_weight": M0,
                       "p_top_weights": {algebra.names[i]: m
                                         for i, m in Mi.items()},
                       "copy_compatible": compatible}
        raise

    f0p = transplant(f0, prime)
    P0p = {i: transplant(P0[i], prime) for i in P0}
    ops = {}
    for i in sorted(algebra.levi):
        gen = PBWElement.generator(prime, i)
        if Mi[i] < M0:
            ops[i] = u_mul(gen, f0p)
        elif Mi[i] > M0:
            ops[i] = P0p[i]
        else:
            ops[i] = u_mul(gen, f0p) + P0p[i]

    spec_prime = report = None
    if compatible:
        spec_prime = make_spec(prime, f0p, P0p)
        report = verify(prime, spec_prime)
    return ContractionOutcome(
        M0=M0, Mi=Mi, Ni={i: max(M0, m) for i, m in Mi.items()}, f0=f0,
        P0=P0, copy_compatible=compatible, algebra_prime=prime,
        operators_prime=ops, spec_prime=spec_prime, verify_report=report)
