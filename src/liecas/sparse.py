"""Sparse exact linear combinations, the shared core of the term classes.

CommPoly and PBWElement, the engine's two term classes, map a sorted
index word to a nonzero coefficient over a fixed universe: a variable
count or an algebra (the test oracles' forms subclass it too).  A
coefficient is an int when it is integral, else a Fraction (see exact);
int and Fraction mix exactly, and both print alike.  Zero coefficients
are never stored, so equality is structural equality of the maps.  The
linear operations and the one constructor live here; a subclass names the
attribute holding its universe.

Outside input is checked once, by the reader that takes it in:
enveloping.parse_pbw and PBWElement.from_terms read each coefficient
through exact, and so does the catalog for the boson example's alpha.
The constructor stores the terms it is given, which its callers in the
package build clean (canonical nonzero coefficients, keys in the
universe), and results of arithmetic are built with _new().  The two
operands of == and + are always of one class over one universe.
"""

from fractions import Fraction

from .errors import MalformedInputError


def exact(c):
    """c as a stored coefficient: its numerator when it is integral, else
    Fraction(c).  A float is refused, being already rounded, and so is
    whatever Fraction cannot read."""
    if isinstance(c, float):
        raise MalformedInputError("inexact coefficient %r" % (c,))
    if not isinstance(c, (int, Fraction)):
        try:
            c = Fraction(c)
        except (TypeError, ValueError, ArithmeticError):
            raise MalformedInputError("bad rational %r" % (c,)) from None
    return c.numerator if c.denominator == 1 else c


def accumulate(terms, items, c=1):
    """terms += c * items, in place, over (key, coefficient) pairs; a key
    whose coefficient cancels is dropped, and an integral sum or product
    is stored as its numerator."""
    scaled = c != 1
    for key, v in items:
        if scaled:
            v = c * v
        old = terms.get(key)
        if old is not None:
            v = old + v
        if v:
            if type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            terms[key] = v
        elif old is not None:
            del terms[key]


class SparseTerms:

    __slots__ = ("terms",)
    _universe = None       # attribute name: "nvars" or "algebra"

    def __init__(self, universe, terms=None):
        """terms as given: nonzero, canonical coefficients (see exact)."""
        setattr(self, self._universe, universe)
        self.terms = {} if terms is None else terms

    def _new(self, terms):
        """Same universe, terms already free of zero coefficients."""
        return type(self)(getattr(self, self._universe), terms)

    def degree(self):
        """Length of the longest key; -1 when there are no terms."""
        return max(map(len, self.terms), default=-1)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (getattr(self, self._universe) == getattr(other, self._universe)
                and self.terms == other.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        accumulate(terms, other.terms.items())
        return self._new(terms)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = exact(c)
        terms = {}
        if c:
            accumulate(terms, self.terms.items(), c)
        return self._new(terms)
