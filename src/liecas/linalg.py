"""Rank of a rational matrix, taken mod the prime p = 2^61 - 1.

Each row is first scaled by the lcm of its denominators, which keeps the
rank over Q, and its integers are reduced mod p.  No denominator is ever
inverted, so an entry whose denominator p divides cannot raise: its row
is still scaled to integers, and the worst it can do is lower the rank.

Elimination then runs in GF(p) on sparse rows, each a {column: nonzero
residue} dict with zero rows dropped, so a mostly-zero matrix such as a
structure matrix A(g) stays sparse.  Each step pivots on a remaining row
with the fewest entries, at its column shared by the fewest remaining
rows, which limits fill-in (Markowitz, Management Science 3, 1957).  It
takes one modular inverse, eliminates the column from every other row
that has it and drops cancelled entries and emptied rows; the rank is
the number of pivots.  The pivot order cannot change the result: row
swaps and adding a multiple of one row to another are invertible over
the field GF(p), so every order ends at an echelon form of one and the
same row space, whose dimension is the rank mod p.

The rank mod p never exceeds the rank over Q, because every minor that
vanishes over Q vanishes mod p.  A full rank mod p therefore certifies a
full rank over Q, and a rank mod p at a random point is the same kind of
lower bound on a generic rank as a rank over Q (Schwartz, J. ACM 27,
1980; Zippel, EUROSAM 1979).
"""

from collections import Counter
from itertools import chain
from math import lcm

from .errors import MalformedInputError

P = 2 ** 61 - 1


def rank(rows):
    """Rank mod p of a matrix given as a list of rows of ints and
    Fractions; never above the rank over Q."""
    live = []
    for row in rows:
        if len(row) != len(rows[0]):
            raise MalformedInputError("ragged matrix")
        scale = lcm(*(v.denominator for v in row))
        entries = {j: residue for j, v in enumerate(row)
                   if (residue := v.numerator * (scale // v.denominator) % P)}
        if entries:
            live.append(entries)
    r = 0
    while live:
        pivot = min(live, key=len)
        shared = Counter(chain.from_iterable(live))
        col = min(pivot, key=shared.__getitem__)
        inv = pow(pivot[col], -1, P)
        rest = []
        for row in live:
            if row is pivot:
                continue
            if col in row:
                f = row[col] * inv % P
                # a fill-in entry is -f * t, never 0 mod p, so only an
                # entry the row already has can cancel
                for j, t in pivot.items():
                    v = (row.get(j, 0) - f * t) % P
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                if not row:
                    continue
            rest.append(row)
        live = rest
        r += 1
    return r
