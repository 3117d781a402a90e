"""Contractions of Lie algebras by integer generator weights.

A weighting assigns an integer n_t to each generator (Levi generators sit
at 0).  Scaling X_t by eps^(n_t) multiplies the stored bracket
term C_ij^k by eps^(n_i + n_j - n_k); letting the parameter run off to
its limit keeps terms of total weight zero, kills terms of positive
weight, and has no limit at all when any term comes out negative.  The
contracted bracket table is a Lie algebra again whenever the limit
exists.

The same weighting filters the enveloping algebra by word weight, and
every dressed limit is a top-weight slice: the slice of a normal form
over g at its top weight is the normal form over the contracted algebra
g', which keeps the source's index order, all that makes a word normal.
When the limit exists every bracket term has n_k <= n_i + n_j, so normal
ordering never raises a word's weight and the terms g' drops land
strictly below the top.  contract_copy() owns every fact of a dressed
contraction: the top weight M0 and slice f0 of f, the top weight M_i and
slice P_i,0 of each P_i (M0 and 0 for a zero P_i), and the limit of each
dressed generator X'_i = X_i f + P_i, its slice at top weight
N_i = max(M0, M_i) (the slice is never 0: X_i f0 holds the Levi letter
X_i, which P_i,0 lacks).  When the limit does not exist it raises
LimitDoesNotExistError with these top weights and copy_compatible added
to its payload.  When every M_i agrees with M0 the slices assemble into
a dressing of g' (X''_i = X_i f0 + P_i,0) and it is verified on the
spot; otherwise a limit operator is X_i f0 alone or P_i,0 alone, not of
the dressed shape, which is reported as copy_compatible = False.  The
catalog's boson_example_contracted is this function's answer on
boson_example, not a table of its own.  A weighting and a dressing each
carry their algebra; contract_copy() takes the two over one algebra.
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

    def __init__(self, algebra, table):
        weights = [0] * algebra.dim
        for name, n in table.items():
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

    def word_weight(self, word):
        return sum(self.by_index[t] for t in word)

    def describe(self):
        return {self.algebra.names[t]: n
                for t, n in enumerate(self.by_index) if n}


def contract_algebra(weights):
    """The weight-zero part of the bracket table, as a new algebra over
    the same named basis and the same declared split."""
    algebra, n = weights.algebra, weights.by_index
    rows = {}
    for (i, j), terms in algebra.brackets.items():
        kept = {}
        for k, c in terms.items():
            s = n[i] + n[j] - n[k]
            if s < 0:
                raise LimitDoesNotExistError(algebra.names[i],
                                             algebra.names[j],
                                             algebra.names[k], s)
            if s == 0:
                kept[k] = c
        if kept:
            rows[(i, j)] = kept
    out = LieAlgebra(algebra.names, rows, levi=sorted(algebra.levi))
    report = out.validate()
    if not report.ok:
        raise InternalConsistencyError(
            "contracted bracket table is not a Lie algebra: %s"
            % report.describe())
    return out


def weighted_leading_part(elem, weights, onto, zero_top=None):
    """(top weight, top-weight slice) of an element of U(weights.algebra),
    the slice's normal words read over onto, an algebra on the same
    ordered basis; a zero element has top weight zero_top and slice 0."""
    from .enveloping import PBWElement
    top = max(map(weights.word_weight, elem.terms), default=zero_top)
    return top, PBWElement(onto, {w: c for w, c in elem.terms.items()
                                  if weights.word_weight(w) == top})


# Everything contract_copy() learns, over a weighting whose limit exists:
# algebra_prime is the contracted algebra, and f0, P0 and operators_prime
# are the top-weight slices over it of f, of each P_i and of each dressed
# generator, at top weights M0, Mi and Ni; operators_prime holds the
# limits of the dressed generators.  A copy-compatible contraction also
# has spec_prime, the contracted dressing, and verify_report, its
# verification; both are None otherwise.
ContractionOutcome = namedtuple(
    "ContractionOutcome",
    "M0 Mi Ni f0 P0 copy_compatible algebra_prime operators_prime "
    "spec_prime verify_report")


def contract_copy(spec, weights):
    """Contract a dressing along a weighting; the dressing is verified
    here, and a copy-compatible limit dressing is verified in turn.  A
    weighting with no limit raises LimitDoesNotExistError with the top
    weights added to its payload."""
    from .virtual_copy import (build_operators, make_spec,
                               require_verified, verify)
    require_verified(spec, "contract the raw algebra instead")
    try:
        prime, no_limit = contract_algebra(weights), None
    except LimitDoesNotExistError as err:
        # the payload wants the top weights alone: slice onto the source
        prime, no_limit = spec.algebra, err

    M0, f0 = weighted_leading_part(spec.f, weights, prime)
    Mi, P0 = {}, {}
    for i in sorted(spec.algebra.levi):
        Mi[i], P0[i] = weighted_leading_part(spec.P[i], weights, prime, M0)
    compatible = all(m == M0 for m in Mi.values())
    if no_limit is not None:
        no_limit.payload.update(f_top_weight=M0,
                                p_top_weights={spec.algebra.names[i]: m
                                               for i, m in Mi.items()},
                                copy_compatible=compatible)
        raise no_limit

    Ni, ops = {}, {}
    for i, op in build_operators(spec).items():
        Ni[i], ops[i] = weighted_leading_part(op, weights, prime)
    spec_prime = report = None
    if compatible:
        spec_prime = make_spec(f0, P0)
        report = verify(spec_prime)
    return ContractionOutcome(
        M0=M0, Mi=Mi, Ni=Ni, f0=f0, P0=P0, copy_compatible=compatible,
        algebra_prime=prime, operators_prime=ops, spec_prime=spec_prime,
        verify_report=report)
