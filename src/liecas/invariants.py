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
the CLI's method "bb1" (dim g - 2*j0, j0 the pencil's generic
half-rank) is this same sampling loop with more trials, and builds no
form.  Ranks can only be underestimated, never overestimated, and the
max over a few trials of a dense-open condition is stable in practice.
That guarantee is the same with linalg.rank taken mod a prime p: the
rank mod p at a point is at most the rank over Q there, which is at
most the generic rank, so the count stays an upper bound that its
witness point attains.

Each trial ranks its point mod a prime of its own, a random odd 61-bit
number that passes Miller-Rabin on the first 12 prime bases, which is
exact below 3.18e23 (Sorenson and Webster, Math. Comp. 86, 2017).  A
fixed prime would miss rank on every point of a table whose constants
it divides.  The primes come from a stream of their own, seeded from
the points' seed, so the points do not depend on them.  A trial misses
the generic rank r only at a zero of a nonzero principal Pfaffian, of
degree r/2, or at a prime that divides its value; over points drawn
from 20,001 integers the first happens with probability at most
r/40,002 (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM 1979).
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
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# a namedtuple, as every record in the package is: a tuple's fields and ==
# are all it needs, and no request pays for loading inspect
InvariantReport = namedtuple("InvariantReport",
                             "count generic_rank witness_point")


def _is_prime(n):
    """Miller-Rabin on _BASES, for odd n > 37."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(rng):
    """A random odd 61-bit prime from rng."""
    while True:
        p = rng.getrandbits(61) | 1 << 60 | 1
        if _is_prime(p):
            return p


def structure_matrix(algebra, point):
    """A(g) at a point as linalg.rank takes it: the entries above the
    diagonal, {(i, j): sum_k C_ij^k point[k]}, one per stored bracket row
    (i < j).  Every other entry above the diagonal is zero."""
    return {ij: sum(c * point[k] for k, c in terms.items())
            for ij, terms in algebra.brackets.items()}


def invariant_count(algebra, trials, seed):
    """Number of functionally independent invariants: dim g less the
    largest rank of A(g) over trials random integer points, drawn from
    one rng sequence, each ranked mod its own random prime."""
    if trials < 1:
        raise MalformedInputError("need at least one trial")
    rng, primes = random.Random(seed), random.Random("%d:p" % seed)
    n = algebra.dim
    best, witness = -1, None
    for _ in range(trials):
        point = tuple(rng.randint(_LOW, _HIGH) for _ in range(n))
        r = rank(structure_matrix(algebra, point), _prime(primes))
        if r > best:
            best, witness = r, point
    return InvariantReport(count=n - best, generic_rank=best,
                           witness_point=witness)
