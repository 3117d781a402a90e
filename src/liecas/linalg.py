"""Exact rank computation over the rationals.

One routine, fraction-free (Bareiss) elimination on integer rows: each
row is first scaled by the lcm of its denominators, which keeps the
rank, and every later division is exact (Bareiss, Math. Comp. 22, 1968).
No pivoting strategy is needed beyond "first nonzero" since there is no
rounding.
"""

from fractions import Fraction
from math import lcm

from .errors import MalformedInputError


def rank(rows):
    """Rank of a matrix given as a list of rows of rationals."""
    m = []
    for row in rows:
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    if any(len(row) != ncols for row in m):
        raise MalformedInputError("ragged matrix")
    r, prev = 0, 1
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][col]:
                pivot = i
                break
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
