"""Rank of a rational matrix, taken mod the prime p = 2^61 - 1.

Each row is first scaled by the lcm of its denominators, which keeps the
rank over Q, and its integers are reduced mod p; Gaussian elimination
then runs in GF(p), with one modular inverse per pivot.  No denominator
is ever inverted, so an entry whose denominator p divides cannot raise:
its row is still scaled to integers, and the worst it can do is lower
the rank.

The rank mod p never exceeds the rank over Q, because every minor that
vanishes over Q vanishes mod p.  A full rank mod p therefore certifies a
full rank over Q, and a rank mod p at a random point is the same kind of
lower bound on a generic rank as a rank over Q (Schwartz, J. ACM 27,
1980; Zippel, EUROSAM 1979).
"""

from math import lcm

from .errors import MalformedInputError

P = 2 ** 61 - 1


def rank(rows):
    """Rank mod p of a matrix given as a list of rows of ints and
    Fractions; never above the rank over Q."""
    m = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) % P for v in row])
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    if any(len(row) != ncols for row in m):
        raise MalformedInputError("ragged matrix")
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][col], -1, P)
        tail = m[r][col + 1:]
        for i in range(r + 1, nrows):
            row = m[i]
            a = row[col]
            if a:
                f = a * inv % P
                row[col + 1:] = [(v - f * t) % P
                                 for v, t in zip(row[col + 1:], tail)]
        r += 1
        if r == nrows:
            break
    return r
