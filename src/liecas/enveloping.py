"""The universal enveloping algebra, in PBW normal form.

Elements of U(g) are stored as sparse linear combinations of normally
ordered words: tuples of generator indices with nondecreasing entries,
mapping to exact coefficients, ints when integral and Fractions otherwise
(sparse.exact).  The empty word is the unit.  Ordering follows the
algebra's basis order, so the normal form of a product is computed by
bubbling adjacent out-of-order pairs with

    X_a X_b = X_b X_a + [X_a, X_b]        (a > b)

which terminates because each swap removes an inversion and each bracket
term shortens the word.  Products, brackets, sums and symmetrization all
add up normal forms through _normalize, with one memo per top-level
operation (a whole symmetrize call is one); nothing outlives the call.

A derivation D of U(g) is fixed by its images D(X_y), and D(b) replaces
each letter of each word of b in turn by its image (substituted), one
normal ordering per image term (derivation).  A bracket with a generator
is one: [c X_t, b] takes the images c [X_t, X_y] of ad_images, and
[b, X_t] takes c = -1.  casimir_gen reads the same letter stream in S(g),
where a word needs only sorting.

Symmetrizing a commutative polynomial sums the orderings of each group
of mutually entangled letters once per call, memoized on the group's
letters, merges the commuting groups and free letters of a word as
sorted words straight into one running total, and divides by the number
of orderings once per term.

Word lengths are capped in _normalize: any word longer than DEGREE_CAP,
a raw product included, raises DegreeOverflowError rather than grinding;
no term of [X_t, w] is longer than w, so a derivation by ad_images
takes w at the cap.
"""

from fractions import Fraction
from itertools import groupby
from math import factorial, prod

from .errors import DegreeOverflowError, MalformedInputError
from .naming import latex_name, plain_number, render_words
from .polynomial import CommPoly
from .sparse import SparseTerms, accumulate, exact

DEGREE_CAP = 12


def _normal_word(algebra, word, memo):
    """Normal form of a single word as a dict word -> coefficient.

    memo maps words to normal forms for one top-level operation, which
    creates it; its result dicts are shared and must stay read-only.  An
    ordered word is its own normal form and is not stored.
    """
    hit = memo.get(word)
    if hit is not None:
        return hit
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            break
    else:
        return {word: 1}
    a, b = word[t], word[t + 1]
    head, tail = word[:t], word[t + 2:]
    result = dict(_normal_word(algebra, head + (b, a) + tail, memo))
    for k, c in algebra.bracket_basis(a, b).items():
        accumulate(result,
                   _normal_word(algebra, head + (k,) + tail, memo).items(),
                   c)
    memo[word] = result
    return result


def _normalize(algebra, pairs, memo):
    """{word: coeff}, the sum of c * NF(word) over a stream of (word, c)
    pairs through memo; each word is checked against DEGREE_CAP first.
    The one caller of _normal_word outside its own recursion."""
    out = {}
    for word, c in pairs:
        if len(word) > DEGREE_CAP:
            raise DegreeOverflowError(len(word), DEGREE_CAP)
        accumulate(out, _normal_word(algebra, word, memo).items(), c)
    return out


def _concatenations(a, b):
    """(w1 w2, c1 c2) over the term pairs of two term dicts."""
    return ((w1 + w2, c1 * c2) for w1, c1 in a.items() for w2, c2 in b.items())


def _normal_sum(algebra, pairs):
    """sum of c * NF(word) over (word, c) pairs whose coefficients are
    outside input, read here through exact; the words' indices come from
    algebra.index (parse_pbw) or from the package itself."""
    return PBWElement(algebra, _normalize(
        algebra, ((tuple(word), exact(c)) for word, c in pairs), {}))


class PBWElement(SparseTerms):
    """A finite sum  sum_w  c_w * X_{w_1} ... X_{w_p}  over normal words w."""

    __slots__ = ("algebra",)
    _universe = "algebra"

    # ---- constructors ------------------------------------------------------

    @classmethod
    def generator(cls, algebra, ref):
        i = algebra.index(ref) if isinstance(ref, str) else ref
        return cls(algebra, {(i,): 1})

    @classmethod
    def from_terms(cls, algebra, raw):
        """Build from a dict of arbitrary (not necessarily ordered) index
        words to coefficients, normalizing as needed."""
        return _normal_sum(algebra, raw.items())

    # ---- structure ---------------------------------------------------------

    def support(self):
        """Set of generator indices appearing in any word."""
        return set().union(*self.terms)

    # ---- views ----------------------------------------------------------------

    def ordered_terms(self):
        """(word, coeff) pairs, highest graded-lex word first."""
        return [(w, self.terms[w]) for w in sorted(
            self.terms, key=lambda w: (len(w), w), reverse=True)]

    def commutative_image(self):
        """Project onto the symmetric algebra: each normal word is
        already the key of the monomial with its letters."""
        return CommPoly(self.algebra.dim, dict(self.terms))

    def render(self, latex=False):
        return render_words(self.ordered_terms(), [
            latex_name(n) if latex else n for n in self.algebra.names], latex)


def u_mul(a, b):
    """Product in U(g): every concatenation of a term of a with a term of
    b, normally ordered through one memo that lives for this call."""
    return PBWElement(a.algebra, _normalize(
        a.algebra, _concatenations(a.terms, b.terms), {}))


def ad_images(algebra, t, c=1):
    """{y: {(k,): c C_ty^k}}, the images c [X_t, X_y] of the derivation
    c ad X_t over the generators y that fail to commute with X_t."""
    images = {}
    for y in range(algebra.dim):
        row = algebra.bracket_basis(t, y)
        if row:
            images[y] = {(k,): c * v for k, v in row.items()}
    return images


def substituted(terms, images):
    """(w[:m] + u + w[m+1:], c v) over the words w of terms, with
    coefficient c, each letter y = w[m] that images covers, and each term
    v u of images[y]: a derivation with D(X_y) = images[y] applied to one
    letter at a time, before any ordering."""
    for w, c in terms.items():
        for m, y in enumerate(w):
            image = images.get(y)
            if image:
                for u, v in image.items():
                    yield w[:m] + u + w[m + 1:], c * v


def derivation(elem, images):
    """D(elem) in U(g), D the derivation with D(X_y) = images[y], a term
    dict (0 where images has no entry), normally ordered through one memo
    that lives for this call."""
    algebra = elem.algebra
    return PBWElement(algebra, _normalize(
        algebra, substituted(elem.terms, images), {}))


# ---- symmetrization --------------------------------------------------------


def _letter_groups(word, neighbours):
    """Split a sorted word into the letters that commute with every other
    letter of it, as one sorted tuple, and the sorted letter tuples of the
    remaining connected components of the "does not commute with" graph;
    bit b of neighbours[a] is set when [X_a, X_b] != 0."""
    present = 0
    for a in word:
        present |= 1 << a
    free, left = [], 0
    for a in word:
        if neighbours[a] & present:
            left |= 1 << a
        else:
            free.append(a)
    groups = []
    while left:
        component = frontier = left & -left
        while frontier:
            a = frontier.bit_length() - 1
            new = neighbours[a] & left & ~component
            component |= new
            frontier = frontier & ~(1 << a) | new
        left &= ~component
        groups.append(tuple(a for a in word if component >> a & 1))
    return tuple(free), groups


def _orderings(letters):
    """D(M) = |M|! / prod of mult(a)!, the number of distinct orderings of
    a sorted letter multiset M."""
    return factorial(len(letters)) // prod(
        factorial(len(list(run))) for _, run in groupby(letters))


def symmetrize(algebra, poly):
    """Symmetrization map S(g) -> U(g), extended linearly from

        x^M  |->  sym(M) = A(M) / D(M),

    A(M) the sum of the words over the D(M) distinct orderings of the
    letter multiset M.  Letters from different components of the "does
    not commute with" graph commute outright, so sym(M) is the product
    of the sym of its letter groups, and a letter commuting with every
    other letter is its own.  Within one call A of each multiset met is
    memoized on its sorted letter tuple, and so is D; a connected one
    goes through

        A(M) = sum over distinct a in M of X_a A(M - a)

    whose sub-multisets M - a split again, and a split one is
    D(M) / prod D(G) times the product of the A(G) of its groups G.  So
    every A has integer coefficients when the structure constants do.
    A word of the polynomial is its free letters times the A(G) of its
    groups over prod D(G).  Every such denominator divides d!, d the
    degree of the polynomial, so each word is added to one running total
    over d!, its free letters merged straight in, and each term of the
    total is divided once.

    The parts are combined by merging sorted words, coefficients
    multiplied, which is exact when every letter of the product so far
    commutes with every letter of the next part; a bracket term can
    leave its group, so otherwise the two are multiplied out, through
    the call's one memo.  The graph is held as int neighbour bitmasks.

    poly lives over the algebra's dim variables, with degree at most
    DEGREE_CAP: casimir_set refuses a larger degree before it calls.
    """
    neighbours = [0] * algebra.dim
    for i, j in algebra.brackets:
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i

    def span(terms):
        # (bitmask of the letters of terms, bitmask of every letter failing
        # to commute with one of them)
        letters = reach = 0
        for a in set().union(*terms):
            letters |= 1 << a
            reach |= neighbours[a]
        return letters, reach

    memo, sums, counts = {}, {}, {}

    def orderings(letters):
        if letters not in counts:
            counts[letters] = _orderings(letters)
        return counts[letters]

    def arrangements(letters):
        # (terms of A(letters), *span of them); letters is sorted
        if letters not in sums:
            free, groups = _letter_groups(letters, neighbours)
            if free or len(groups) != 1:
                terms = {}
                combine(terms, free, groups, orderings(letters)
                        // prod(map(orderings, groups)))
            else:
                terms = _normalize(algebra, steps(letters), memo)
            sums[letters] = (terms, *span(terms))
        return sums[letters]

    def steps(letters):
        # (a w, c) over distinct a in M and terms c w of A(M - a)
        for s, a in enumerate(letters):
            if s == 0 or letters[s - 1] != a:
                rest = arrangements(letters[:s] + letters[s + 1:])[0]
                for w, c in rest.items():
                    yield (a,) + w, c

    def combine(into, free, groups, c):
        # into += c * free * A(group_1) * ... * A(group_n), the last
        # product added straight into into
        product, reach = {free: c}, span((free,))[1]
        last = len(groups) - 1
        for n, group in enumerate(groups):
            terms, more, further = arrangements(group)
            factor, product = product, into if n == last else {}
            if reach & more:
                accumulate(product, _normalize(algebra, _concatenations(
                    factor, terms), memo).items())
                if n < last:
                    reach = span(product)[1]
            else:
                accumulate(product, (
                    (tuple(sorted(w1 + w2)), c1 * c2)
                    for w1, c1 in factor.items() for w2, c2 in terms.items()))
                reach |= further
        if not groups:
            accumulate(into, product.items())

    common = factorial(max(poly.degree(), 0))
    total = {}
    for word, c in poly.terms.items():
        free, groups = _letter_groups(word, neighbours)
        combine(total, free, groups,
                c * (common // prod(map(orderings, groups))))
    out = {}
    for w, v in total.items():
        v = Fraction(v, common)
        out[w] = v.numerator if v.denominator == 1 else v
    # the helpers above refer to each other, so without this the memos
    # would outlive the call until the cyclic collector ran
    sums.clear()
    memo.clear()
    return PBWElement(algebra, out)


# ---- JSON -------------------------------------------------------------------
#
# An enveloping element travels as a list of terms
#     [{"word": ["G_1", "F_2"], "coeff": "1/2"}, ...]
# with words given by generator names, not necessarily normally ordered.


def parse_pbw(algebra, doc):
    if not isinstance(doc, list):
        raise MalformedInputError("enveloping element must be a list of terms")

    def pairs():
        # checked one term at a time, so the first bad term is reported
        for term in doc:
            if not isinstance(term, dict) or not {"word", "coeff"} <= set(term):
                raise MalformedInputError("bad enveloping term %r" % (term,))
            if not isinstance(term["word"], list):
                raise MalformedInputError("term word must be a list of names")
            word = [algebra.index(n) for n in term["word"]]
            if isinstance(term["coeff"], bool):  # exact would read true as 1
                raise MalformedInputError("bad rational %r" % (term["coeff"],))
            # _normal_sum reads the coefficient through sparse.exact
            yield word, term["coeff"]
    return _normal_sum(algebra, pairs())


def emit_pbw(elem):
    names = elem.algebra.names
    return [{"word": [names[i] for i in w], "coeff": plain_number(c)}
            for w, c in elem.ordered_terms()]
