"""The universal enveloping algebra, in PBW normal form.

Elements of U(g) are stored as sparse linear combinations of normally
ordered words: tuples of generator indices with nondecreasing entries,
mapping to Fraction coefficients.  The empty word is the unit.  Ordering
follows the algebra's basis order, so the normal form of a product is
computed by bubbling adjacent out-of-order pairs with

    X_a X_b = X_b X_a + [X_a, X_b]        (a > b)

which terminates because each swap removes an inversion and each bracket
term shortens the word.  Normal forms of words are memoized per algebra.

Word lengths are capped: products whose raw concatenation would exceed
DEGREE_CAP raise DegreeOverflowError rather than silently grinding.
"""

from fractions import Fraction

from .errors import DegreeOverflowError, MalformedInputError
from .naming import latex_name, render_words
from .polynomial import CommPoly
from .sparse import SparseTerms, accumulate

_ONE = Fraction(1)

DEGREE_CAP = 12


def _wkey(word):
    # graded lex on words, mirroring the polynomial monomial order
    return (len(word), word)


def _normal_word(algebra, word):
    """Normal form of a single word as a dict word -> coefficient.

    The result dicts are cached on the algebra and shared; callers must
    treat them as read-only.
    """
    cache = algebra._pbw_cache
    hit = cache.get(word)
    if hit is not None:
        return hit
    t = -1
    for s in range(len(word) - 1):
        if word[s] > word[s + 1]:
            t = s
            break
    if t < 0:
        result = {word: _ONE}
    else:
        a, b = word[t], word[t + 1]
        head, tail = word[:t], word[t + 2:]
        result = dict(_normal_word(algebra, head + (b, a) + tail))
        for k, c in algebra.bracket_basis(a, b).items():
            accumulate(result, _normal_word(algebra, head + (k,) + tail).items(),
                       c)
    cache[word] = result
    return result


class PBWElement(SparseTerms):
    """A finite sum  sum_w  c_w * X_{w_1} ... X_{w_p}  over normal words w."""

    __slots__ = ("algebra",)
    _universe = "algebra"
    _mismatch = "elements live in different algebras"

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {} if terms is None else terms

    # ---- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, algebra):
        return cls(algebra)

    @classmethod
    def unit(cls, algebra, coeff=1):
        coeff = Fraction(coeff)
        return cls(algebra, {(): coeff} if coeff else {})

    @classmethod
    def generator(cls, algebra, ref):
        i = algebra.index(ref) if isinstance(ref, str) else ref
        algebra._check_index(i)
        return cls(algebra, {(i,): _ONE})

    @classmethod
    def from_terms(cls, algebra, raw):
        """Build from a dict of arbitrary (not necessarily ordered) index
        words to coefficients, normalizing as needed."""
        out = cls(algebra)
        for word, c in raw.items():
            out = out + pbw_normalize(algebra, word, c)
        return out

    # ---- structure ---------------------------------------------------------

    def __repr__(self):
        return "PBWElement(%s)" % self.render()

    def degree(self):
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def support(self):
        """Set of generator indices appearing in any word."""
        out = set()
        for w in self.terms:
            out.update(w)
        return out

    # ---- products ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return u_mul(self, other)
        try:
            return self.scale(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except (TypeError, ValueError):
            return NotImplemented

    # ---- views ----------------------------------------------------------------

    def ordered_terms(self):
        """(word, coeff) pairs, highest graded-lex word first."""
        return [(w, self.terms[w])
                for w in sorted(self.terms, key=_wkey, reverse=True)]

    def commutative_image(self):
        """Project onto the symmetric algebra: each normal word is
        already the key of the monomial with its letters."""
        return CommPoly.zero(self.algebra.dim)._new(dict(self.terms))

    def render(self, latex=False):
        return render_words(self.ordered_terms(), [
            latex_name(n) if latex else n for n in self.algebra.names], latex)


def pbw_normalize(algebra, word, coeff=1):
    """Normal form of coeff * X_{word_1} ... X_{word_p} as a PBWElement."""
    word = tuple(word)
    for i in word:
        algebra._check_index(i)
    if len(word) > DEGREE_CAP:
        raise DegreeOverflowError(len(word), DEGREE_CAP)
    coeff = Fraction(coeff)
    if not coeff:
        return PBWElement(algebra)
    return PBWElement(algebra, {w: coeff * c for w, c
                                in _normal_word(algebra, word).items()})


def u_mul(a, b):
    """Product in U(g), renormalized."""
    if not isinstance(a, PBWElement) or not isinstance(b, PBWElement):
        raise MalformedInputError("u_mul needs two enveloping elements")
    a._check_mate(b)
    algebra = a.algebra
    out = {}
    for w1, c1 in a.terms.items():
        ordered = []
        for w2, c2 in b.terms.items():
            if len(w1) + len(w2) > DEGREE_CAP:
                raise DegreeOverflowError(len(w1) + len(w2), DEGREE_CAP)
            if not w1 or not w2 or w1[-1] <= w2[0]:
                # concatenation is already normally ordered
                ordered.append((w1 + w2, c2))
            else:
                accumulate(out, _normal_word(algebra, w1 + w2).items(),
                           c1 * c2)
        accumulate(out, ordered, c1)
    return PBWElement(algebra, out)


def u_commutator(a, b):
    """[a, b] = ab - ba in U(g)."""
    return u_mul(a, b) - u_mul(b, a)


def u_product(algebra, factors):
    """Left-to-right product of a sequence of elements (unit when empty)."""
    out = PBWElement.unit(algebra)
    for f in factors:
        out = u_mul(out, f)
    return out


# ---- symmetrization --------------------------------------------------------


def _distinct_arrangements(letters):
    """All distinct orderings of a sorted letter multiset."""
    if not letters:
        yield ()
        return
    seen = set()
    for t, a in enumerate(letters):
        if a in seen:
            continue
        seen.add(a)
        rest = letters[:t] + letters[t + 1:]
        for tail in _distinct_arrangements(rest):
            yield (a,) + tail


def _letter_components(algebra, letters):
    """Group distinct letters into connected components of the
    "does not commute with" graph."""
    letters = sorted(set(letters))
    parent = {a: a for a in letters}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s, a in enumerate(letters):
        for b in letters[s + 1:]:
            if algebra.bracket_basis(a, b):
                parent[find(a)] = find(b)
    groups = {}
    for a in letters:
        groups.setdefault(find(a), []).append(a)
    return sorted(groups.values())


def _sym_word(algebra, word):
    """Average of a single sorted word over all orderings.

    Averaging over the p! permutations weights each distinct arrangement
    of the multiset equally, so it is enough to enumerate distinct
    arrangements.  Letters from different components of the
    noncommutativity graph commute outright, so the average factors as a
    product of per-component averages; that keeps the enumeration down to
    the sizes of the entangled letter groups.
    """
    out = PBWElement.unit(algebra)
    for group in _letter_components(algebra, word):
        inside = tuple(a for a in word if a in set(group))
        arrangements = list(_distinct_arrangements(inside))
        avg = PBWElement(algebra)
        for arr in arrangements:
            avg = avg + pbw_normalize(algebra, arr)
        out = u_mul(out, avg.scale(Fraction(1, len(arrangements))))
    return out


def symmetrize(algebra, poly):
    """Symmetrization map S(g) -> U(g), extended linearly from

        x^alpha  |->  (1/p!) sum over orderings of the letter word.
    """
    if poly.nvars != algebra.dim:
        raise MalformedInputError(
            "polynomial in %d variables against a %d-dim algebra"
            % (poly.nvars, algebra.dim))
    out = PBWElement(algebra)
    for word, c in poly.terms.items():
        if len(word) > DEGREE_CAP:
            raise DegreeOverflowError(len(word), DEGREE_CAP)
        out = out + _sym_word(algebra, word).scale(c)
    return out


# ---- JSON -------------------------------------------------------------------
#
# An enveloping element travels as a list of terms
#     [{"word": ["G_1", "F_2"], "coeff": "1/2"}, ...]
# with words given by generator names, not necessarily normally ordered.


def parse_pbw(algebra, doc):
    from .lie_core import parse_rational
    if not isinstance(doc, list):
        raise MalformedInputError("enveloping element must be a list of terms")
    out = PBWElement(algebra)
    for term in doc:
        if not isinstance(term, dict) or not {"word", "coeff"} <= set(term):
            raise MalformedInputError("bad enveloping term %r" % (term,))
        if not isinstance(term["word"], list):
            raise MalformedInputError("term word must be a list of names")
        word = tuple(algebra.index(n) for n in term["word"])
        out = out + pbw_normalize(algebra, word, parse_rational(term["coeff"]))
    return out


def emit_pbw(elem):
    names = elem.algebra.names
    return [{"word": [names[i] for i in w], "coeff": str(c)}
            for w, c in elem.ordered_terms()]
