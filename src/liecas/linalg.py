"""Exact rank computation over the rationals.

One routine, Gaussian elimination with Fraction arithmetic.  No pivoting
strategy is needed beyond "first nonzero" since there is no rounding.
"""

from fractions import Fraction

from .errors import MalformedInputError


def rank(rows):
    """Rank of a matrix given as a list of rows of rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    if any(len(row) != ncols for row in m):
        raise MalformedInputError("ragged matrix")
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][col]:
                pivot = i
                break
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
