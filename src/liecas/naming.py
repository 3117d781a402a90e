"""Name, coefficient and signed-sum formatting shared by the renderers,
and the naming convention of a rotation block: its generators J_ij and
their so(N) brackets, which catalog builds and casimir_gen checks."""

from itertools import combinations, groupby
from math import log10


def j_name(i, j):
    """The rotation generator J_ij, for 1 <= i < j <= 9."""
    return "J_%d%d" % (i, j)


def rotation_relations(N):
    """The so(N) brackets by name, as (a, b, k, c) adding c k to [a, b]:
    [J_ij, J_jk] = J_ik, [J_ij, J_ik] = -J_jk, [J_ik, J_jk] = -J_ij for
    i < j < k.  Two rotations commute unless they share one index."""
    for i, j, k in combinations(range(1, N + 1), 3):
        ij, ik, jk = j_name(i, j), j_name(i, k), j_name(j, k)
        yield from ((ij, jk, ik, 1), (ij, ik, jk, -1), (ik, jk, ij, -1))


def latex_name(name):
    """LaTeX form of a generator name.

    The part after the first underscore becomes a subscript, so "J_12" gives
    J_{12} and "X_-1,1" gives X_{-1,1}.  Two special cases: "I" is the unit
    operator \\mathbb{I}, and "bd_k" is the raised boson b^{\\dagger}_{k}.
    """
    if name == "I":
        return r"\mathbb{I}"
    if name.startswith("bd_"):
        return r"b^{\dagger}_{%s}" % name[3:]
    if "_" in name:
        head, sub = name.split("_", 1)
        return "%s_{%s}" % (head, sub)
    return name


def plain_number(c):
    """str(c) for an int or a Fraction; a part too long for Python's
    int-string limit is shown by its digit count, as <5000-digit integer>."""
    try:
        return str(c)
    except ValueError:
        if c.denominator != 1:
            return "%s/%s" % (plain_number(c.numerator),
                              plain_number(c.denominator))
        n = abs(c)
        digits = int(log10(n)) + 1
        if 10 ** (digits - 1) > n:
            digits -= 1
        elif 10 ** digits <= n:
            digits += 1
        return "%s<%d-digit integer>" % ("-" if c < 0 else "", digits)


def latex_fraction(c):
    """Render an int or a Fraction for LaTeX, \\frac for a proper one;
    each part goes through plain_number."""
    if c.denominator == 1:
        return plain_number(c.numerator)
    sign = "-" if c.numerator < 0 else ""
    return r"%s\frac{%s}{%s}" % (sign, plain_number(abs(c.numerator)),
                                  plain_number(c.denominator))


def signed_term(c, mono, latex=False):
    """(negative, body) for the term c * mono, where body carries |c|.

    A unit magnitude is left out, an empty mono is the constant |c|, and
    in LaTeX a proper fraction is a \\frac."""
    number = latex_fraction if latex else plain_number
    mag = abs(c)
    if not mono:
        return c < 0, number(mag)
    if mag == 1:
        return c < 0, mono
    return c < 0, ("%s %s" if latex else "%s*%s") % (number(mag), mono)


def power_term(c, powers, latex=False):
    """signed_term of c times a product of (base, exponent) powers, like
    2*x^2*y, or \\frac{1}{2} x^{2} y in LaTeX."""
    if latex:
        mono = " ".join(v if e == 1 else "%s^{%d}" % (v, e) for v, e in powers)
        return signed_term(c, mono, True)
    mono = "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in powers)
    return signed_term(c, mono)


def signed_join(parts):
    """(negative, body) pairs as "a - b + c"; "0" when there are none."""
    out = []
    for negative, body in parts:
        if not out:
            out.append("-" + body if negative else body)
        else:
            out.append("- " + body if negative else "+ " + body)
    return " ".join(out) or "0"


def render_words(items, labels, latex=False):
    """signed_join over (sorted word, coeff) pairs, each word printed as the
    product of labels[t] raised to the multiplicity of its letter t."""
    return signed_join(
        power_term(c, [(labels[t], len(list(run))) for t, run in groupby(w)],
                   latex)
        for w, c in items)
