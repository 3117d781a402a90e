"""Invariants of the coadjoint action, computed analytically.

Each generator X_i acts on polynomials in the coordinates x_1..x_dim
(dual to the basis) as the first-order operator

    Xhat_i F  =  sum_{j,k} C_ij^k  x_k  dF/dx_j

and a polynomial is an invariant when every Xhat_i kills it.  The number
of functionally independent invariants is

    N(g) = dim g - generic rank of A(g),   A(g)[i][j] = sum_k C_ij^k x_k,

with the generic rank witnessed at random integer points.  The 2-form
pencil sum_k a_k d w_k of the structure equations (which `mc` prints
from the bracket table) has exactly A(a) as its alternating matrix, so
method "bb1" (dim g - 2*j0, j0 the pencil's generic half-rank) is the
same sampling loop with more default trials, and builds no form.
Ranks can only be underestimated, never overestimated, and the max over
a few trials of a dense-open condition is stable in practice.  That
guarantee is the same with linalg.rank taken mod p: the rank mod p at a
point is at most the rank over Q there, which is at most the generic
rank, so the count stays an upper bound that its witness point attains.
A(g) is never built as a dense matrix: linalg.rank takes its entries
above the diagonal, one per stored bracket row, and ranks it as the
alternating matrix it is, two rows and columns per step, so the rank it
returns is even by construction.
"""

import random
from collections import namedtuple

from .errors import MalformedInputError
from .linalg import rank

_LOW, _HIGH = -10 ** 4, 10 ** 4


# a namedtuple, as every record in the package is: a tuple's fields and ==
# are all it needs, and no request pays for loading inspect
InvariantReport = namedtuple("InvariantReport",
                             "count generic_rank witness_point method")


def structure_matrix(algebra, point):
    """A(g) at a point as linalg.rank takes it: the entries above the
    diagonal, {(i, j): sum_k C_ij^k point[k]}, one per stored bracket row
    (i < j).  Every other entry above the diagonal is zero."""
    return {ij: sum(c * point[k] for k, c in terms.items())
            for ij, terms in algebra.brackets.items()}


# default number of sampled points per method
_TRIALS = {"bb": 3, "bb1": 5}


def invariant_count(algebra, trials=None, seed=1729, method="bb"):
    """Number of functionally independent invariants.

    Both methods rank A(g) at random integer points drawn from one rng
    sequence: "bb" reads the point as coordinates (default 3 trials),
    "bb1" as the coefficients of the 2-form pencil (default 5 trials);
    the CLI's --method choices are the two keys of _TRIALS.
    """
    if trials is None:
        trials = _TRIALS[method]
    if trials < 1:
        raise MalformedInputError("need at least one trial")
    rng = random.Random(seed)
    n = algebra.dim
    best, witness = -1, None
    for _ in range(trials):
        point = tuple(rng.randint(_LOW, _HIGH) for _ in range(n))
        r = rank(structure_matrix(algebra, point))
        if r > best:
            best, witness = r, point
    return InvariantReport(count=n - best, generic_rank=best,
                           witness_point=witness, method=method)
