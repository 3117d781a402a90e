"""Rank of a rational alternating matrix, taken mod a prime p.

The matrix comes as its entries above the diagonal, {(i, j): A_ij} for
i < j; A_ji = -A_ij and A_ii = 0 are implied.  Every entry is scaled by
one lcm of all the denominators, a single scalar that keeps the matrix
alternating and its rank over Q, and its integer is reduced mod p.  No
denominator is ever inverted, so an entry whose denominator p divides
cannot raise the rank: the scale then holds the factor p and zeroes
every entry whose denominator p does not divide, which can only lower
it.

Elimination then runs in GF(p) on sparse rows, each a {column: nonzero
residue} dict holding both A_ij and A_ji, with zero rows dropped, so a
mostly-zero matrix such as a structure matrix A(g) stays sparse.  An
alternating matrix has a zero diagonal, so each step pivots on a 2 x 2
block instead (Bunch, Math. Comp. 38, 1982): k is a remaining row with
the fewest entries, which limits fill-in, and m is its neighbour with
the fewest entries.  With a = A_km, u = row k and w = row m, rows and
columns k and m are dropped, and over the pairs i < j of S, the union of
the supports of u and w,

    A_ij  +=  (w_i u_j - u_i w_j) / a,    A_ji = -A_ij.

That is the Schur complement of the block [[0, a], [-a, 0]], which is
again alternating and has rank two less, so the rank is 2 x the number
of steps.  The pivot order cannot change the result: each step is a
congruence by an invertible matrix over the field GF(p), which keeps
the rank mod p.

The rank mod p never exceeds the rank over Q, because every minor that
vanishes over Q vanishes mod p.  A full rank mod p therefore certifies a
full rank over Q, and a rank mod p at a random point is the same kind of
lower bound on a generic rank as a rank over Q (Schwartz, J. ACM 27,
1980; Zippel, EUROSAM 1979).
"""

from math import lcm


def rank(upper, p):
    """Rank mod the prime p of the alternating matrix whose entries above
    the diagonal are `upper`, {(i, j): int or Fraction} with i < j; never
    above the rank over Q."""
    scale = lcm(*(v.denominator for v in upper.values()))
    rows = {}
    for (i, j), v in upper.items():
        a = v.numerator * (scale // v.denominator) % p
        if a:
            rows.setdefault(i, {})[j] = a
            rows.setdefault(j, {})[i] = p - a
    steps = 0
    while rows:
        k = min(rows, key=lambda i: len(rows[i]))
        u = rows.pop(k)
        m = min(u, key=lambda j: len(rows[j]))
        w = rows.pop(m)
        inv = pow(u.pop(m), -1, p)
        del w[k]
        for i in u:
            del rows[i][k]
        for i in w:
            del rows[i][m]
        # (w_i u_j - u_i w_j) / a, with u divided by a up front
        u = {j: t * inv % p for j, t in u.items()}
        support = [(i, u.get(i, 0), w.get(i, 0)) for i in u.keys() | w.keys()]
        for n, (i, ui, wi) in enumerate(support, 1):
            row = rows[i]
            for j, uj, wj in support[n:]:
                d = wi * uj - ui * wj
                if d % p:
                    v = (row.get(j, 0) + d) % p
                    if v:
                        row[j], rows[j][i] = v, p - v
                    else:
                        del row[j], rows[j][i]
        for i, _, _ in support:
            if not rows[i]:
                del rows[i]
        steps += 1
    return 2 * steps
