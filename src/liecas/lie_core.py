"""Lie algebras by structure constants.

A LieAlgebra is a named basis X_0..X_{dim-1}, a sparse bracket table storing
[X_i, X_j] = sum_k c * X_k only for i < j (antisymmetry fills in the rest,
[X_i, X_i] = 0 always), and a declared split of the index set into a Levi
part and a radical.  The split is taken on trust from the caller or the
catalog and only checked for closure (Levi a subalgebra, radical an ideal);
no decomposition algorithm is run.

bracket_table builds that table from rows stated in either order, the
one reader of rows for the JSON loader and the catalog.  The constructor
stores the table as given, keys i < j with nonempty canonical rows, as
bracket_table and contraction.contract_algebra build it.  It checks only
what outside input reaches nowhere else: no names, a name that is no
nonempty string, levi and radical not partitioning the index set;
algebra_from_json checks the rest of a file where it reads it.

The constructor also builds the adjoint table ad[i] = {j: [X_i, X_j]} once,
from the stored rows and their negations, so a bracket is one lookup and
validate() reaches only the triples that a stored row touches.

generating_set() picks a set of generators that generates the algebra as
a Lie algebra, greedily in basis order.

validate() returns a ValidationReport that carries the generator names:
ok, to_json() (the validate document, generators by name), describe()
(one text line per violation) and headline() (the first violation, by
names alone) need nothing else.

Vectors in the algebra are plain dicts index -> coefficient, an int when
integral and a Fraction otherwise (sparse.exact).  The rows that
bracket_basis returns are the table's own, shared between callers: read
them, never mutate them.
"""

from bisect import insort
from fractions import Fraction

from .errors import MalformedInputError
from .naming import plain_number
from .sparse import accumulate, exact

_NO_TERMS = {}      # the shared, read-only [X_i, X_j] = 0


class ValidationReport:
    """Everything validate() found wrong, empty lists when the algebra is fine.

    names is the algebra's generator names.  jacobi holds (i, j, k,
    residual) with the residual of [[X_i,X_j],X_k] + [[X_j,X_k],X_i] +
    [[X_k,X_i],X_j] as a vector dict.  levi_closure holds (i, j, k, c)
    entries where a bracket of two Levi generators leaks a radical term,
    radical_ideal likewise for brackets with a radical factor leaking a
    Levi term.

    to_json() is the document of the validate command, {"ok",
    "jacobi_violations", "levi_closure", "radical_ideal"}, with generators
    by name and coefficients as "p/q" strings; describe() is its text.
    """

    def __init__(self, names, jacobi, levi_closure, radical_ideal):
        self.names = names
        self.jacobi = jacobi
        self.levi_closure = levi_closure
        self.radical_ideal = radical_ideal

    @property
    def ok(self):
        return not (self.jacobi or self.levi_closure or self.radical_ideal)

    def _leaks(self):
        return (("levi_closure", "levi closure", self.levi_closure),
                ("radical_ideal", "radical ideal", self.radical_ideal))

    def to_json(self):
        names = self.names
        doc = {"ok": self.ok,
               "jacobi_violations": [[names[i], names[j], names[k]]
                                     for i, j, k, _res in self.jacobi]}
        for key, _label, entries in self._leaks():
            doc[key] = [[names[i], names[j], names[k], plain_number(c)]
                        for i, j, k, c in entries]
        return doc

    def describe(self):
        if self.ok:
            return "valid"
        names = self.names
        lines = []
        for i, j, k, res in self.jacobi:
            body = " + ".join("%s*%s" % (plain_number(c), names[t])
                              for t, c in sorted(res.items()))
            lines.append("jacobi (%s, %s, %s): residual %s"
                         % (names[i], names[j], names[k], body))
        for _key, label, entries in self._leaks():
            lines.extend("%s: [%s, %s] contains %s*%s"
                         % (label, names[i], names[j], plain_number(c),
                            names[k])
                         for i, j, k, c in entries)
        return "\n".join(lines)

    def headline(self):
        """The first violation by the names of its generators alone, with
        no coefficient: "jacobi (a, b, c)" or "levi closure: [a, b]
        contains c"; "valid" when there is none."""
        names = self.names
        for i, j, k, _res in self.jacobi:
            return "jacobi (%s, %s, %s)" % (names[i], names[j], names[k])
        for _key, label, entries in self._leaks():
            for i, j, k, _c in entries:
                return "%s: [%s, %s] contains %s" % (
                    label, names[i], names[j], names[k])
        return "valid"


class LieAlgebra:

    def __init__(self, names, brackets, levi, radical=None):
        names = list(names)
        if not names:
            raise MalformedInputError("algebra needs at least one generator")
        for name in names:
            if not isinstance(name, str) or not name:
                raise MalformedInputError("generator names must be nonempty strings")
        self.names = names
        self.dim = len(names)
        self.name_index = {name: i for i, name in enumerate(names)}
        self.brackets = brackets
        ad = [{} for _ in names]
        for (i, j), row in brackets.items():
            ad[i][j] = row
            ad[j][i] = {k: -c for k, c in row.items()}
        self._ad = ad

        every = frozenset(range(self.dim))
        levi = frozenset(levi)
        radical = every - levi if radical is None else frozenset(radical)
        if levi & radical or levi | radical != every:
            raise MalformedInputError(
                "levi and radical must partition the index set")
        self.levi = levi
        self.radical = radical

    def index(self, name):
        if isinstance(name, str) and name in self.name_index:
            return self.name_index[name]
        raise MalformedInputError("unknown generator %r" % (name,))

    # ---- bracket ---------------------------------------------------------

    def bracket_basis(self, i, j):
        """[X_i, X_j] as a dict k -> c, for any order of two indices in
        range(dim).  The dict is the adjoint table's row (or one shared
        empty dict), not a copy: it is read-only, like the normal forms
        that enveloping._normal_word shares through its memo."""
        return self._ad[i].get(j, _NO_TERMS)

    # ---- validation --------------------------------------------------------

    def validate(self):
        """Jacobi on every index triple, plus closure of the declared Levi
        subalgebra and radical ideal.

        The Jacobi sum of i < j < k is, over the cyclic pairs (a, b) with
        third index c, sum_m C_ab^m [X_m, X_c].  Each stored row
        [X_a, X_b] = sum_m C_ab^m X_m (a < b) is scattered into the triple
        of every third index t with some [X_m, X_t] != 0, read from ad[m]:
        with sign + when t < a or t > b, and - when a < t < b, since the
        triple (a, t, b) takes the pair as (k, i) = -(a, b).  A triple
        none of whose three pairs has a stored row has every term zero, so
        it is never visited; one visited only through vanishing brackets
        has no entry.  The residuals are exact, so they equal those of the
        term-by-term sum over all dim^3/6 triples.
        """
        ad = self._ad
        sums = {}
        for (a, b), row in self.brackets.items():
            for m, cm in row.items():
                for t, mt in ad[m].items():
                    if t < a:
                        key, c = (t, a, b), cm
                    elif a < t < b:
                        key, c = (a, t, b), -cm
                    elif t > b:
                        key, c = (a, b, t), cm
                    else:
                        continue
                    accumulate(sums.setdefault(key, {}), mt.items(), c)
        jacobi = [key + (res,) for key, res in sorted(sums.items()) if res]
        levi_bad = []
        radical_bad = []
        for (i, j), terms in sorted(self.brackets.items()):
            both_levi = i in self.levi and j in self.levi
            has_radical = i in self.radical or j in self.radical
            for k, c in sorted(terms.items()):
                if both_levi and k not in self.levi:
                    levi_bad.append((i, j, k, c))
                if has_radical and k not in self.radical:
                    radical_bad.append((i, j, k, c))
        return ValidationReport(self.names, jacobi, levi_bad, radical_bad)


def generating_set(algebra):
    """Indices of generators that generate the algebra as a Lie algebra,
    picked in basis order: X_t is kept when it is not in the subalgebra
    that the kept ones generate.

    That subalgebra grows as an echelon basis of vector dicts, each row
    with coefficient 1 at its least index, its pivot.  A vector is
    reduced against the rows once, in pivot order; what is left joins
    them and is bracketed with every row so far, until the span is
    closed under the bracket."""
    rows, pivots = {}, []

    def reduce(v):
        for p in pivots:
            c = v.get(p)
            if c:
                accumulate(v, rows[p].items(), -c)
        return v

    def bracket(u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                accumulate(out, algebra.bracket_basis(a, b).items(), ca * cb)
        return out

    kept = []
    for t in range(algebra.dim):
        pending, size = [{t: 1}], len(rows)
        while pending:
            v = reduce(pending.pop())
            if v:
                p = min(v)
                row = {}
                accumulate(row, v.items(), Fraction(1, v[p]))
                pending.extend(bracket(row, u) for u in rows.values())
                rows[p] = row
                insort(pivots, p)
        if len(rows) > size:
            kept.append(t)
    return kept


def bracket_table(rows):
    """The i < j table of LieAlgebra from rows (i, j, terms) in either
    order of i and j, terms being (k, c) pairs with [X_i, X_j] = sum of
    c X_k: a row with i > j enters (j, i) negated.  Rows of one pair add
    up, a term that cancels is dropped, and so is a row left empty."""
    table = {}
    for i, j, terms in rows:
        accumulate(table.setdefault((min(i, j), max(i, j)), {}), terms,
                   1 if i < j else -1)
    return {ij: row for ij, row in table.items() if row}


# ---- JSON schema ------------------------------------------------------------
#
# { "names":   ["J_12", ...],
#   "brackets": [{"i": "J_12", "j": "J_13", "terms": [{"k": "J_23", "c": "-1"}]}, ...],
#   "levi":    ["J_12", ...],
#   "radical": ["G_1", ...] }
#
# Rationals travel as "p/q" strings; a JSON integer reads too, and a JSON
# float is refused as inexact (sparse.exact reads every coefficient).


def algebra_to_json(algebra):
    doc = {"names": list(algebra.names)}
    rows = []
    for (i, j) in sorted(algebra.brackets):
        terms = [{"k": algebra.names[k], "c": plain_number(c)}
                 for k, c in sorted(algebra.brackets[(i, j)].items())]
        rows.append({"i": algebra.names[i], "j": algebra.names[j], "terms": terms})
    doc["brackets"] = rows
    doc["levi"] = [algebra.names[i] for i in sorted(algebra.levi)]
    doc["radical"] = [algebra.names[i] for i in sorted(algebra.radical)]
    return doc


def algebra_from_json(doc):
    if not isinstance(doc, dict):
        raise MalformedInputError("algebra document must be a JSON object")
    for key in ("names", "brackets", "levi", "radical"):
        if key not in doc:
            raise MalformedInputError("algebra document lacks %r" % key)
    names = doc["names"]
    if (not isinstance(names, list)
            or any(not isinstance(n, str) for n in names)):
        raise MalformedInputError("names must be a list of strings")
    index = {}
    for i, n in enumerate(names):
        if n in index:
            raise MalformedInputError("duplicate generator name %r" % n)
        index[n] = i

    def look(n):
        if not isinstance(n, str) or n not in index:
            raise MalformedInputError("unknown generator %r" % (n,))
        return index[n]

    def term(t):
        if not isinstance(t, dict) or not {"k", "c"} <= set(t):
            raise MalformedInputError("bad bracket term %r" % (t,))
        if isinstance(t["c"], bool):     # exact would read true as 1
            raise MalformedInputError("bad rational %r" % (t["c"],))
        return look(t["k"]), exact(t["c"])

    def rows():
        for row in doc["brackets"]:
            if (not isinstance(row, dict)
                    or not {"i", "j", "terms"} <= set(row)):
                raise MalformedInputError("bad bracket row %r" % (row,))
            i, j = look(row["i"]), look(row["j"])
            if i == j:
                raise MalformedInputError(
                    "bracket row with i = j = %r" % row["i"])
            if not isinstance(row["terms"], list):
                raise MalformedInputError("bracket terms must be a list")
            yield i, j, map(term, row["terms"])

    if not isinstance(doc["brackets"], list):
        raise MalformedInputError("brackets must be a list")
    brackets = bracket_table(rows())
    for key in ("levi", "radical"):
        if not isinstance(doc[key], list):
            raise MalformedInputError("%s must be a list of names" % key)
    levi = [look(n) for n in doc["levi"]]
    radical = [look(n) for n in doc["radical"]]
    return LieAlgebra(names, brackets, levi=levi, radical=radical)
