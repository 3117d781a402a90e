"""Exterior algebra on the dual of a Lie algebra.

Forms are stored sparsely: strictly increasing index tuples (the wedge
monomials w_{i_1} ^ ... ^ w_{i_p} of the dual basis) mapping to Fraction
coefficients.  Mixed grades are allowed in an element; the Maurer-Cartan
differential and wedge products extend linearly.

The structure equations used here are

    d w_k = sum_{i<j} C_ij^k  w_i ^ w_j

so that d^2 = 0 is exactly the Jacobi identity: for each 1-form w_k and
every triple i<j<l the coefficient of w_i^w_j^w_l in d(d w_k) is the
cyclic Jacobi sum.  (Checked in the property suites; the opposite overall
sign would also square to zero but breaks the sign of nothing else here,
it is fixed by matching the structure-equation tables of the catalog
algebras.)

Rank counting: a 2-form omega corresponds to the alternating matrix
M[i][j] = coefficient of w_i^w_j, and half its rank equals the largest k
with omega^k != 0.  The generic half-rank j0 over the pencil spanned by
all d w_k gives the invariant count as dim - 2*j0.
"""

import random
from fractions import Fraction

from .errors import InternalConsistencyError, MalformedInputError
from .linalg import rank
from .naming import latex_name, signed_join, signed_term
from .sparse import SparseTerms, accumulate

_ZERO = Fraction(0)


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


class ExteriorElement(SparseTerms):

    __slots__ = ("n",)
    _universe = "n"
    _mismatch = "forms over different spaces"

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for idx, c in terms.items():
                idx = tuple(idx)
                if any(not 0 <= i < n for i in idx):
                    raise MalformedInputError("form index %r out of range" % (idx,))
                if list(idx) != sorted(set(idx)):
                    raise MalformedInputError(
                        "form indices must be strictly increasing, got %r" % (idx,))
                c = Fraction(c)
                if c:
                    clean[idx] = c
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def basis(cls, n, *indices):
        return cls(n, {tuple(indices): Fraction(1)})

    def __repr__(self):
        return "ExteriorElement(%d, %r)" % (self.n, self.terms)

    def grades(self):
        return sorted({len(idx) for idx in self.terms})

    def ordered_terms(self):
        return [(idx, self.terms[idx])
                for idx in sorted(self.terms, key=lambda t: (len(t), t))]

    def render(self, names, latex=False):
        if len(names) != self.n:
            raise MalformedInputError(
                "%d names for %d dual directions" % (len(names), self.n))
        if latex:
            return signed_join(
                signed_term(c, " \\wedge ".join(
                    "\\omega_{%s}" % latex_name(names[i]) for i in idx), True)
                for idx, c in self.ordered_terms())
        return signed_join(
            signed_term(c, "^".join("w_{%s}" % names[i] for i in idx))
            for idx, c in self.ordered_terms())


def wedge(a, b):
    if not isinstance(a, ExteriorElement) or not isinstance(b, ExteriorElement):
        raise MalformedInputError("wedge needs two exterior elements")
    a._check_mate(b)
    terms = {}
    for idx1, c1 in a.terms.items():
        row = []
        for idx2, c2 in b.terms.items():
            idx, sign = _merge_sign(idx1, idx2)
            if idx is not None:
                row.append((idx, sign * c2))
        accumulate(terms, row, c1)
    return a._new(terms)


def mc_differential(algebra):
    """Structure equations as a list of 2-forms, entry k holding d w_k."""
    out = [ExteriorElement(algebra.dim) for _ in range(algebra.dim)]
    for (i, j), terms in algebra.brackets.items():
        for k, c in terms.items():
            # each bracket row holds k once, so no entry is written twice
            out[k].terms[(i, j)] = c
    return out


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
            head = ExteriorElement.basis(algebra.dim, *idx[:t])
            tail = ExteriorElement.basis(algebra.dim, *idx[t + 1:])
            piece = wedge(head, wedge(mc[i], tail))
            sign = -1 if t % 2 else 1
            out = out + piece.scale(sign * c)
    return out


def alternating_matrix(omega):
    """The matrix M with M[i][j] = coefficient of w_i ^ w_j (antisymmetric)."""
    for idx in omega.terms:
        if len(idx) != 2:
            raise MalformedInputError("need a pure 2-form")
    n = omega.n
    mat = [[_ZERO] * n for _ in range(n)]
    for (i, j), c in omega.terms.items():
        mat[i][j] = c
        mat[j][i] = -c
    return mat


def wedge_rank(omega):
    """Half the rank of the 2-form's alternating matrix: the largest j
    with omega^j != 0."""
    r = rank(alternating_matrix(omega))
    if r % 2:
        raise InternalConsistencyError("alternating matrix with odd rank %d" % r)
    return r // 2


def wedge_rank_slow(omega):
    """Same number by brute force on wedge powers."""
    for idx in omega.terms:
        if len(idx) != 2:
            raise MalformedInputError("need a pure 2-form")
    j = 0
    power = ExteriorElement(omega.n, {(): Fraction(1)})
    while True:
        power = wedge(power, omega)
        if power.is_zero():
            return j
        j += 1
        if 2 * j > omega.n:
            raise InternalConsistencyError(
                "nonzero wedge power beyond the dimension")


_LOW, _HIGH = -10 ** 4, 10 ** 4


def j0_estimate_with_witness(algebra, trials=5, seed=1729):
    if trials < 1:
        raise MalformedInputError("need at least one trial")
    rng = random.Random(seed)
    mc = mc_differential(algebra)
    best, witness = -1, None
    for _ in range(trials):
        coeffs = [rng.randint(_LOW, _HIGH) for _ in range(algebra.dim)]
        omega = ExteriorElement(algebra.dim)
        for a, two_form in zip(coeffs, mc):
            omega = omega + two_form.scale(a)
        j = wedge_rank(omega)
        if j > best:
            best, witness = j, coeffs
    return best, witness
