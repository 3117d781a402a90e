"""Exterior algebra on the dual of a Lie algebra: the structure 2-forms
that `mc` prints.

Forms are stored sparsely: strictly increasing index tuples (the wedge
monomials w_{i_1} ^ ... ^ w_{i_p} of the dual basis) mapping to exact
coefficients, ints when integral (sparse.exact).  The structure
equations are

    d w_k = sum_{i<j} C_ij^k  w_i ^ w_j

so that d^2 = 0 is exactly the Jacobi identity: for each 1-form w_k and
every triple i<j<l the coefficient of w_i^w_j^w_l in d(d w_k) is the
cyclic Jacobi sum.  The opposite overall sign would also square to
zero; it is fixed by matching the structure-equation tables of the
catalog algebras.  The wedge product and the extension of d to all
forms, which check d^2 = 0 and Leibniz, are test oracles
(tests/table_oracles.py).

The alternating matrix of the pencil sum_k a_k d w_k is A(a) of the
invariant count, so the half-rank route of `count --method bb1` never
builds a form (see invariants.invariant_count).
"""

from .naming import latex_name, signed_join, signed_term
from .sparse import SparseTerms


class ExteriorElement(SparseTerms):

    __slots__ = ("n",)
    _universe = "n"

    def ordered_terms(self):
        return [(idx, self.terms[idx])
                for idx in sorted(self.terms, key=lambda t: (len(t), t))]

    def render(self, names, latex=False):
        if latex:
            return signed_join(
                signed_term(c, " \\wedge ".join(
                    "\\omega_{%s}" % latex_name(names[i]) for i in idx), True)
                for idx, c in self.ordered_terms())
        return signed_join(
            signed_term(c, "^".join("w_{%s}" % names[i] for i in idx))
            for idx, c in self.ordered_terms())


def mc_differential(algebra):
    """Structure equations as a list of 2-forms, entry k holding d w_k."""
    out = [ExteriorElement(algebra.dim) for _ in range(algebra.dim)]
    for (i, j), terms in algebra.brackets.items():
        for k, c in terms.items():
            # each bracket row holds k once, so no entry is written twice
            out[k].terms[(i, j)] = c
    return out
