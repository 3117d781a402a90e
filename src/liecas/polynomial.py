"""Exact multivariate polynomials over the rationals.

A CommPoly lives in a fixed set of nvars commuting variables x_0..x_{nvars-1}
(in practice the coordinates dual to a Lie algebra basis).  A monomial is
keyed by its sorted index word, the key a PBWElement uses for a normal
word: x_0^2 x_3 is (0, 0, 3) and the constant monomial is ().  Terms are
stored as a map

    sorted index word -> coefficient

where a coefficient is an int when integral and a Fraction otherwise
(sparse.exact), and zero coefficients are never stored, so equality is
plain structural equality (the linear operations come from
sparse.SparseTerms).  The monomial order used for rendering and JSON is
graded lex: compare total degree first, then the exponent vectors
lexicographically; among words of one length the larger exponent vector
is the smaller word.
"""

from .naming import latex_name, render_words
from .sparse import SparseTerms, accumulate, exact


def _grlex(word):
    # sort key for descending graded lexicographic order
    return (-len(word), word)


class CommPoly(SparseTerms):

    __slots__ = ("nvars",)
    _universe = "nvars"

    # ---- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        return cls.monomial(nvars, (), c)

    @classmethod
    def monomial(cls, nvars, word, c=1):
        """c times the product of the word's letters, in any order; c is
        read through sparse.exact, and c = 0 gives the zero polynomial."""
        c = exact(c)
        return cls(nvars, {tuple(sorted(word)): c} if c else {})

    # ---- ring operations ----------------------------------------------

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            accumulate(out, ((tuple(sorted(w1 + w2)), c2)
                             for w2, c2 in other.terms.items()), c1)
        return self._new(out)

    # ---- rendering --------------------------------------------------------

    def monomials(self):
        """Terms in descending graded-lex order, as (word, coeff) pairs."""
        return [(w, self.terms[w]) for w in sorted(self.terms, key=_grlex)]

    def render(self, names, latex=False):
        """Deterministic text like "2*x_{J_12}^2 + x_{R}", or LaTeX with
        latex=True (variable x_i prints as x_{<name>})."""
        return render_words(self.monomials(), [
            "x_{%s}" % (latex_name(n) if latex else n) for n in names], latex)
