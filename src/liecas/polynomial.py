"""Exact multivariate polynomials over the rationals.

A CommPoly lives in a fixed set of nvars commuting variables x_0..x_{nvars-1}
(in practice the coordinates dual to a Lie algebra basis, plus possibly one
extra char-poly variable).  Terms are stored as a map

    exponent tuple (len nvars) -> Fraction coefficient

with zero coefficients never stored, so equality is plain structural equality.
The monomial order used everywhere (leading terms, rendering) is graded lex:
compare total degree first, then the exponent tuple lexicographically.
Exponent tuples are dense; dimensions stay small here (at most a few dozen
variables), so a sparse representation would only add bookkeeping.
"""

from fractions import Fraction

from .errors import MalformedInputError
from .naming import latex_fraction, latex_name

_ZERO = Fraction(0)

# Dense exponent tuples are only sensible while they stay short.
MAX_VARIABLES = 64


def _grlex(exps):
    # sort key for graded lexicographic order
    return (sum(exps), exps)


class CommPoly:

    __slots__ = ("nvars", "terms")

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

    # ---- basic structure ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, CommPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        if not self.terms:
            return "CommPoly(0)"
        return "CommPoly(%s)" % self.render(
            ["x%d" % i for i in range(self.nvars)])

    def copy_terms(self):
        return dict(self.terms)

    def _check_universe(self, other):
        if self.nvars != other.nvars:
            raise MalformedInputError(
                "polynomials live in different variable universes (%d vs %d)"
                % (self.nvars, other.nvars))

    # ---- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CommPoly.constant(self.nvars, other)
        self._check_universe(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, _ZERO) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return CommPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return CommPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CommPoly.constant(self.nvars, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_universe(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return CommPoly(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return CommPoly(self.nvars)
        return CommPoly(self.nvars,
                        {e: c * v for e, v in self.terms.items()})

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
        out = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            e = list(exps)
            e[i] = k - 1
            e = tuple(e)
            s = out.get(e, _ZERO) + c * k
            if s:
                out[e] = s
            else:
                del out[e]
        return CommPoly(self.nvars, out)

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

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise MalformedInputError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

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
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.monomials():
            factors = []
            for i, e in enumerate(exps):
                if not e:
                    continue
                if latex:
                    v = "x_{%s}" % latex_name(names[i])
                    factors.append(v if e == 1 else "%s^{%d}" % (v, e))
                else:
                    v = "x_{%s}" % names[i]
                    factors.append(v if e == 1 else "%s^%d" % (v, e))
            if not factors:
                body = latex_fraction(c) if latex else str(c)
                parts.append((c < 0, body.lstrip("-")))
                continue
            mono = (" " if latex else "*").join(factors)
            mag = abs(c)
            if mag == 1:
                body = mono
            elif latex:
                body = "%s %s" % (latex_fraction(mag), mono)
            else:
                body = "%s*%s" % (mag, mono)
            parts.append((c < 0, body))
        out = []
        for negative, body in parts:
            if not out:
                out.append("-" + body if negative else body)
            else:
                out.append("- " + body if negative else "+ " + body)
        return " ".join(out)


def arith(p, q, op):
    """Dispatch add/mul/scale on polynomials (scale takes a rational q)."""
    if op == "add":
        return p + q
    if op == "mul":
        return p * q
    if op == "scale":
        return p.scale(q)
    raise MalformedInputError("unknown polynomial operation %r" % op)
