"""Virtual copies of the Levi part inside the enveloping algebra.

A candidate copy is a family

    X'_i = X_i * f + P_i        (i running over the Levi generators)

where f is a radical-supported homogeneous element of degree k-1 and each
P_i is radical-supported homogeneous of degree k.  The family is a
virtual copy when the X'_i commute with the whole radical and reproduce
the Levi structure constants with X_k * f + P_k on the right-hand side;
both conditions together force the factorization

    [X'_i, X'_j] = f * sum_k C_ij^k (X_k f + P_k).

verify() checks every one of these constraints, plus the supporting
identities (f central, P_i transforming like the adjoint action), and
reports all nonzero residuals; nothing is assumed about where the spec
came from.  It takes two commutator tables over every generator t,

    F_t = [f, X_t],    B_it = [P_i, X_t]  (Levi i),

each the enveloping.derivation of f or P_i with the images -[X_t, X_y]
of ad_images, one image table per generator.  It derives each residual
from them by an exact identity in U(g): [f, X_t] is F_t, the
equivariance residual is E_ij = B_ij - sum over Levi k of C_ij^k P_k,
[X'_i, Y_y] = [X_i, Y_y] f + X_i F_y + B_iy, and the adjoint residual is
E_ij + X_i F_j + sum over non-Levi k of C_ij^k (X_k f - X_k).  The
factor residuals follow from those through

    [X'_i, X'_j] - f E'_ij = A_ij f + [E'_ij, f] + X_j [X'_i, f] + [X'_i, P_j]

with E'_ij = sum_k C_ij^k image_k (image_k = X_k f + P_k for Levi k, the
plain generator otherwise) and A_ij the adjoint residual.  As f and P_j
are radical-supported, [X'_i, f] and [X'_i, P_j] are the derivation
with images [X'_i, Y_y], which replaces one letter of each word at a
time; likewise [X_k f, f] = -F_k f, [Y_k, f] = -F_k and [P_k, f] is the
derivation with images -F_y.  No dressed generator is formed, let alone
a product of two.

The report (CopyVerificationReport) holds the generator names and, for
each condition of the ordered table CONDITIONS, a map from index key to
nonzero residual: (y,) for the two f conditions, (i, j) or (i, y) for
the others.  passed, f_is_radical_invariant, f_is_g_invariant and
factor_identity_ok read those maps; to_json() and describe() give the
verify-copy document and its text, both walking CONDITIONS in order.
"""

from collections import namedtuple

from .enveloping import (
    DEGREE_CAP,
    PBWElement,
    ad_images,
    derivation,
    emit_pbw,
    parse_pbw,
    u_mul,
)
from .errors import (
    DegreeOverflowError,
    MalformedInputError,
    PreconditionError,
    VirtualCopySpecError,
)


class VirtualCopySpec(namedtuple("VirtualCopySpec", "f P k")):
    # f and each P[i] (keyed by every Levi index i) are PBWElements, and
    # k - 1 is the degree of f
    __slots__ = ()

    @property
    def algebra(self):
        return self.f.algebra


def _check_radical_support(algebra, elem, what):
    bad = elem.support() - algebra.radical
    if bad:
        raise VirtualCopySpecError(
            "%s touches non-radical generators %s"
            % (what, sorted(algebra.names[i] for i in bad)))


def make_spec(algebra, f, P):
    """Validated VirtualCopySpec from f and a (possibly partial) map of
    P components keyed by Levi index or generator name, all PBWElements
    over algebra; the structural rules on them are checked here."""
    if f.is_zero():
        raise VirtualCopySpecError("f must be nonzero")
    _check_radical_support(algebra, f, "f")
    if len({len(w) for w in f.terms}) > 1:
        raise VirtualCopySpecError(
            "f is not homogeneous (word lengths %s)"
            % sorted({len(w) for w in f.terms}))
    k = f.degree() + 1
    full = {i: PBWElement(algebra) for i in sorted(algebra.levi)}
    for key, elem in P.items():
        i = algebra.index(key) if isinstance(key, str) else key
        if i not in algebra.levi:
            raise VirtualCopySpecError(
                "P is keyed by %r, which is not a Levi generator" % (key,))
        _check_radical_support(algebra, elem, "P[%s]" % algebra.names[i])
        # normal ordering of a degree-k expression may leave shorter
        # completion words behind, so the bound is on the filtration
        # degree: nothing longer than k, and the top layer is exactly k
        if elem and elem.degree() != k:
            raise VirtualCopySpecError(
                "P[%s] has top degree %d, expected %d"
                % (algebra.names[i], elem.degree(), k))
        full[i] = elem
    return VirtualCopySpec(f, full, k)


def parse_spec(algebra, doc):
    if not isinstance(doc, dict) or "f" not in doc:
        raise MalformedInputError("spec document must be an object with f")
    f = parse_pbw(algebra, doc["f"])
    raw = doc.get("P", {})
    if not isinstance(raw, dict):
        raise MalformedInputError("P must map generator names to elements")
    return make_spec(algebra, f, {name: parse_pbw(algebra, e)
                                  for name, e in raw.items()})


def emit_spec(spec):
    names = spec.algebra.names
    return {
        "f": emit_pbw(spec.f),
        "P": {names[i]: emit_pbw(p)
              for i, p in sorted(spec.P.items()) if not p.is_zero()},
    }


def build_operators(algebra, spec):
    """The dressed generators X'_i = X_i f + P_i, keyed by Levi index."""
    return {i: u_mul(PBWElement.generator(algebra, i), spec.f) + spec.P[i]
            for i in sorted(algebra.levi)}


# the copy conditions in report order: JSON key, then the text line of one
# residual, formatted with the generator names of its index key and the
# rendered residual
CONDITIONS = (
    ("radical_residuals", "[X'_{0}, {1}] = {2}"),
    ("adjoint_residuals", "adjoint defect at ({0}, {1}): {2}"),
    ("f_radical_residuals", "[f, {0}] = {1}"),
    ("f_levi_residuals", "[f, {0}] = {1}"),
    ("equivariance_residuals", "equivariance defect at ({0}, {1}): {2}"),
    ("factor_residuals", "factorization defect at ({0}, {1}): {2}"),
)


class CopyVerificationReport:
    """All nonzero residuals of the copy conditions.

    names is the algebra's generator names; residuals maps each condition
    of CONDITIONS to {index key: nonzero residual}:

    radical_residuals[(i, y)]      [X'_i, Y_y]                    (radical y)
    adjoint_residuals[(i, j)]      [X'_i, X_j] - C_ij^k (X_k f + P_k)
    f_radical_residuals[(y,)]      [f, Y_y]
    f_levi_residuals[(j,)]         [f, X_j]
    equivariance_residuals[(i,j)]  [P_i, X_j] - C_ij^k P_k
    factor_residuals[(i, j)]       [X'_i, X'_j] - f * C_ij^k (X_k f + P_k),  i < j

    to_json() and describe() walk CONDITIONS in order, each key sorted.
    """

    def __init__(self, names):
        self.names = names
        self.residuals = {name: {} for name, _line in CONDITIONS}

    @property
    def passed(self):
        return not any(self.residuals.values())

    @property
    def f_is_radical_invariant(self):
        return not self.residuals["f_radical_residuals"]

    @property
    def f_is_g_invariant(self):
        return (self.f_is_radical_invariant
                and not self.residuals["f_levi_residuals"])

    @property
    def factor_identity_ok(self):
        return not self.residuals["factor_residuals"]

    def _entries(self, name):
        for key, residual in sorted(self.residuals[name].items()):
            yield [self.names[t] for t in key], residual

    def to_json(self):
        doc = {"passed": self.passed,
               "f_is_radical_invariant": self.f_is_radical_invariant,
               "f_is_g_invariant": self.f_is_g_invariant,
               "factor_identity_ok": self.factor_identity_ok}
        for name, _line in CONDITIONS:
            doc[name] = [{"at": at, "residual": emit_pbw(residual)}
                         for at, residual in self._entries(name)]
        return doc

    def describe(self):
        """The text of a failing report, one residual a line."""
        return "\n".join(line.format(*at, residual.render())
                         for name, line in CONDITIONS
                         for at, residual in self._entries(name))


def verify(algebra, spec):
    """Evaluate every copy condition exactly; collect nonzero residuals.

    Each residual is derived from the tables F and B of the module
    docstring and equals the one of multiplying its bracket out.  X'_i has
    degree k and [X'_i, X'_j] degree 2k - 1, so a spec with k > DEGREE_CAP,
    or 2k - 1 > DEGREE_CAP and two Levi generators, raises
    DegreeOverflowError first."""
    levi = sorted(algebra.levi)
    radical = sorted(algebra.radical)
    pairs = [(i, j) for a_pos, i in enumerate(levi) for j in levi[a_pos + 1:]]
    # neither X'_i nor [X'_i, X'_j] is ever formed, so their limits are
    # checked here
    for length, present in ((spec.k, levi), (2 * spec.k - 1, pairs)):
        if present and length > DEGREE_CAP:
            raise DegreeOverflowError(length, DEGREE_CAP)
    gens = {t: PBWElement.generator(algebra, t) for t in range(algebra.dim)}
    # [., X_t] is the derivation with images -[X_t, X_y]
    against = {t: ad_images(algebra, t, -1) for t in gens}
    F = {t: derivation(spec.f, against[t]) for t in gens}
    B = {i: {t: derivation(spec.P[i], against[t]) for t in gens}
         for i in levi}
    # X_t f, of degree k, is formed only next to a Levi generator; a bracket
    # term leaking into the radical has no dressed image and is expected as
    # the plain generator
    xf = {t: u_mul(x, spec.f) for t, x in gens.items() if levi}
    leak = {y: xf[y] - gens[y] for y in xf if y in algebra.radical}
    zero = PBWElement(algebra)
    report = CopyVerificationReport(algebra.names)
    residuals = report.residuals

    def keep(name, key, residual):
        if residual:
            residuals[name][key] = residual

    def combination(i, j, image):
        # sum_k C_ij^k image[k], over the k that image covers
        out = zero
        for k, c in algebra.bracket_basis(i, j).items():
            if k in image:
                out = out + image[k].scale(c)
        return out

    for y in radical:
        keep("f_radical_residuals", (y,), F[y])
    for i in levi:
        keep("f_levi_residuals", (i,), F[i])
        for y in radical:
            # [X_i f, Y] = [X_i, Y] f + X_i [f, Y]
            keep("radical_residuals", (i, y), combination(i, y, xf)
                 + u_mul(gens[i], F[y]) + B[i][y])
        for j in levi:
            E = B[i][j] - combination(i, j, spec.P)
            keep("equivariance_residuals", (i, j), E)
            keep("adjoint_residuals", (i, j), E + u_mul(gens[i], F[j])
                 + combination(i, j, leak))

    # [image_k, f]: -[f, X_k] f - [f, P_k] for Levi k, -[f, Y_k] otherwise;
    # on radical-supported P_k, [f, .] is the derivation with images F
    on_f = {y: r.terms for y, r in F.items()}
    against_f = {k: -(u_mul(F[k], spec.f) + derivation(spec.P[k], on_f))
                 if k in algebra.levi else -F[k] for k in F}
    for i, j in pairs:
        # likewise [X'_i, .] on f and P_j, with images [X'_i, Y_y]
        on_i = {y: r.terms
                for (a, y), r in residuals["radical_residuals"].items()
                if a == i}
        keep("factor_residuals", (i, j),
             u_mul(residuals["adjoint_residuals"].get((i, j), zero), spec.f)
             + combination(i, j, against_f)
             + u_mul(gens[j], derivation(spec.f, on_i))
             + derivation(spec.P[j], on_i))
    return report


def require_verified(algebra, spec, consequence):
    """verify() once; a failing report travels as PreconditionError.report,
    the message ending in what the failure means to the caller."""
    report = verify(algebra, spec)
    if not report.passed:
        err = PreconditionError("spec does not verify; " + consequence)
        err.report = report
        raise err
