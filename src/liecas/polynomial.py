"""Exact multivariate polynomials over the rationals.

A CommPoly lives in a fixed set of nvars commuting variables x_0..x_{nvars-1}
(in practice the coordinates dual to a Lie algebra basis, plus possibly one
extra char-poly variable).  Terms are stored as a map

    exponent tuple (len nvars) -> Fraction coefficient

with zero coefficients never stored, so equality is plain structural equality
(the linear operations come from sparse.SparseTerms).  The monomial order
used for rendering and JSON is graded lex:
compare total degree first, then the exponent tuple lexicographically.
Exponent tuples are dense; dimensions stay small here (at most a few dozen
variables), so a sparse representation would only add bookkeeping.
"""

from fractions import Fraction

from .errors import MalformedInputError
from .naming import latex_name, power_term, signed_join
from .sparse import SparseTerms, accumulate

# Dense exponent tuples are only sensible while they stay short.
MAX_VARIABLES = 64


def _grlex(exps):
    # sort key for graded lexicographic order
    return (sum(exps), exps)


def word_exponents(word, nvars):
    """Exponent tuple of the monomial whose letters are the word's indices."""
    exps = [0] * nvars
    for t in word:
        exps[t] += 1
    return tuple(exps)


class CommPoly(SparseTerms):

    __slots__ = ("nvars",)
    _universe = "nvars"
    _mismatch = "polynomials live in different variable universes ({} vs {})"

    def __init__(self, nvars, terms=None):
        if nvars < 0 or nvars > MAX_VARIABLES:
            raise MalformedInputError(
                "variable count %d outside supported range 0..%d"
                % (nvars, MAX_VARIABLES))
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise MalformedInputError(
                        "bad exponent tuple %r for %d variables" % (exps, nvars))
                c = Fraction(c)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise MalformedInputError("variable index %d out of range" % i)
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): Fraction(c)})

    def __repr__(self):
        if not self.terms:
            return "CommPoly(0)"
        return "CommPoly(%s)" % self.render(
            ["x%d" % i for i in range(self.nvars)])

    # ---- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CommPoly.constant(self.nvars, other)
        return SparseTerms.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_mate(other)
        out = {}
        for e1, c1 in self.terms.items():
            accumulate(out, ((tuple(a + b for a, b in zip(e1, e2)), c2)
                             for e2, c2 in other.terms.items()), c1)
        return self._new(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if n < 0:
            raise MalformedInputError("negative power %d" % n)
        result = CommPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # ---- calculus and evaluation ---------------------------------------

    def partial(self, i):
        """Formal derivative d/dx_i, so d(x_i^k)/dx_i = k x_i^(k-1)."""
        if not 0 <= i < self.nvars:
            raise MalformedInputError("variable index %d out of range" % i)
        # lowering one exponent is injective, so no two terms collide
        return self._new({exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
                          for exps, c in self.terms.items() if exps[i]})

    def eval(self, point):
        """Exact value at a rational point (a sequence of length nvars)."""
        if len(point) != self.nvars:
            raise MalformedInputError(
                "point length %d, expected %d" % (len(point), self.nvars))
        point = [Fraction(v) for v in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    # ---- degree queries -------------------------------------------------

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self):
        """Degree of a homogeneous polynomial (raises on mixed degrees)."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            raise MalformedInputError(
                "polynomial is not homogeneous (degrees %s)" % sorted(degrees))
        return degrees.pop()

    # ---- rendering --------------------------------------------------------

    def monomials(self):
        """Terms in descending graded-lex order, as (exponents, coeff) pairs."""
        return [(e, self.terms[e])
                for e in sorted(self.terms, key=_grlex, reverse=True)]

    def render(self, names, latex=False):
        """Deterministic text like "2*x_{J_12}^2 + x_{R}", or LaTeX with
        latex=True (variable x_i prints as x_{<name>})."""
        if len(names) != self.nvars:
            raise MalformedInputError(
                "%d names for %d variables" % (len(names), self.nvars))
        return signed_join(
            power_term(c, [("x_{%s}" % (latex_name(names[i]) if latex
                                        else names[i]), e)
                           for i, e in enumerate(exps) if e], latex)
            for exps, c in self.monomials())
