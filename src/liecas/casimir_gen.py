"""Casimir invariants from the characteristic polynomial of the dressed
rotation matrix.

A verified virtual-copy spec carries its algebra.  When that algebra's
Levi part is a rotation block J_ij (1 <= i < j <= N), the commutative
images of the dressed generators J'_ij assemble into an antisymmetric
N x N polynomial matrix A, held as its entries above the diagonal
{(a, b): A_ab}, as linalg.rank holds A(g).  rotation_block() refuses,
as not applicable, a Levi part whose brackets are not
naming.rotation_relations.  The characteristic polynomial

    (-1)^N det(A - T id)  =  T^N + C_2 T^(N-2) + C_4 T^(N-4) + ...

has C_2l equal to the sum of the principal 2l x 2l minors of A, and each
such minor of an antisymmetric matrix is the square of its Pfaffian:

    C_2l  =  sum over 2l-subsets S of the rows of  Pf(A_S)^2.

So no determinant is taken: the polynomial is monic and even in T by
construction.  Each generator X_t acts on S(g) as the first-order
operator

    Xhat_t F  =  sum_{j,k} C_tj^k  x_k  dF/dx_j,

the derivation of S(g) with x_j -> [X_t, X_j].  xhat() applies it one
letter of each word at a time, as enveloping.derivation does in U(g),
and sorts each resulting word; no partial derivative is formed.  And
the dressed generators transform like the generators of so(N), so A
is covariant: each Xhat_t acts on its entries as the commutator with a
constant so(N) matrix, and each C_2l is then an invariant of the whole
algebra.  casimir_set() checks the covariance of the dressed matrix
once, sums the squared principal Pfaffians, and symmetrizes each C_2l
back into the enveloping algebra.

There each symmetrized C_2l is checked central against a Lie generating
set of g alone (lie_core.generating_set), not against every generator:
ad is a derivation of U(g), so [X_a, C] = [X_b, C] = 0 gives
[[X_a, X_b], C] = [X_a, [X_b, C]] - [X_b, [X_a, C]] = 0, so the
elements of g that commute with C form a subalgebra, which holds the
set and so is g.  On the dressed
families the set is J_12 .. J_1N, G_1 and F_1, plus Q_1, P_1 and E on
the inhomogeneous ones.
"""

from collections import namedtuple
from itertools import combinations

from .enveloping import (
    DEGREE_CAP,
    ad_images,
    derivation,
    substituted,
    symmetrize,
)
from .errors import (
    DegreeOverflowError,
    InternalConsistencyError,
    NotApplicableError,
)
from .lie_core import bracket_table, generating_set
from .naming import j_name, rotation_relations
from .polynomial import CommPoly
from .sparse import accumulate
from .virtual_copy import build_operators, require_verified


def rotation_block(algebra):
    """(N, {(a, b): t}) for a Levi part named exactly {J_ij : 1 <= i < j
    <= N}, generator t being J_(a+1)(b+1) for 0-based a < b, whose
    brackets are those of so(N) in naming.rotation_relations.

    An empty Levi part counts as N = 1 (a single rotation axis has no
    J generators at all).  Other labels, a partial block, and Levi
    brackets in another sign convention are refused as not applicable.
    """
    names = sorted(algebra.names[t] for t in algebra.levi)
    block = {}
    for name in names:
        # isdigit and int alone also take digits outside 0-9, like ² or ١
        if not (name.startswith("J_") and len(name) == 4
                and name[2:].isascii() and name[2:].isdigit()):
            raise NotApplicableError(
                "Levi generator %r is not of the J_ij form" % name)
        i, j = int(name[2]), int(name[3])
        if not 1 <= i < j:
            raise NotApplicableError("bad rotation label %r" % name)
        block[(i - 1, j - 1)] = algebra.index(name)
    N = max((b + 1 for _a, b in block), default=1)
    if len(block) != N * (N - 1) // 2:
        raise NotApplicableError(
            "Levi part is not a full rotation block: have %s" % names)
    ix = algebra.name_index
    so_n = bracket_table((ix[a], ix[b], ((ix[k], c),))
                         for a, b, k, c in rotation_relations(N))
    for s, t in combinations(sorted(block.values()), 2):
        if algebra.bracket_basis(s, t) != so_n.get((s, t), {}):
            raise NotApplicableError(
                "Levi bracket [%s, %s] is not the so(%d) bracket of its "
                "labels, [J_ij, J_jk] = J_ik, [J_ij, J_ik] = -J_jk and "
                "[J_ik, J_jk] = -J_ij for i < j < k"
                % (algebra.names[s], algebra.names[t], N))
    return N, block


def build_so_matrix(spec):
    """(N, {(a, b): A_ab}): the size N read off the Levi labels, and the
    entries above the diagonal, one for every a < b, of the antisymmetric
    N x N matrix A of the dressed generators' commutative images, A_ab
    the image of J'_(a+1)(b+1) and A_ba = -A_ab.  The spec must verify,
    which is checked first."""
    require_verified(spec, "the matrix entries would be meaningless")
    N, block = rotation_block(spec.algebra)
    ops = build_operators(spec)
    return N, {ab: ops[t].commutative_image() for ab, t in block.items()}


def xhat(poly, images):
    """Xhat_t poly for images = ad_images(algebra, t): the derivation of
    S(g) with x_y -> [X_t, X_y], applied one letter at a time, each word
    then sorted; poly lives over the algebra's dim variables."""
    out = {}
    accumulate(out, ((tuple(sorted(w)), c)
                     for w, c in substituted(poly.terms, images)))
    return poly._new(out)


def check_covariance(algebra, upper, images):
    """Refuse a dressed matrix A, given by its entries above the diagonal
    as build_so_matrix returns them, that does not transform like so(N):
    for every generator t and entry i < j, Xhat_t A_ij must equal
    [K_t, A]_ij, where K_t = E_ba - E_ab when t is J_(a+1)(b+1) (0-based
    a < b) and K_t = 0 for every other generator.  images[t] is
    ad_images(algebra, t), for every t.

    Xhat_t is a derivation of S(g) that kills constants, so then
    Xhat_t det(A - T id) = tr(adj(A - T id) [K_t, A - T id]) = 0 and every
    char-poly coefficient is invariant."""
    zero = CommPoly(algebra.dim)

    def entry(p, q):
        # A_pq of the whole matrix
        if p == q:
            return zero
        return upper[(p, q)] if p < q else -upper[(q, p)]

    rotation = {algebra.name_index[j_name(a + 1, b + 1)]: (a, b)
                for a, b in upper}
    for i, j in sorted(upper):
        for t in range(algebra.dim):
            want = zero
            if t in rotation:
                # [E_ba - E_ab, A]_ij
                a, b = rotation[t]
                want = ((entry(a, j) if i == b else zero)
                        - (entry(b, j) if i == a else zero)
                        + (entry(i, a) if j == b else zero)
                        - (entry(i, b) if j == a else zero))
            if xhat(upper[(i, j)], images[t]) != want:
                raise InternalConsistencyError(
                    "dressed matrix entry (%d, %d) fails covariance "
                    "against %s" % (i + 1, j + 1, algebra.names[t]))


def char_poly_coefficients(N, upper, nvars):
    """{l: C_2l} from the monic characteristic polynomial of an
    antisymmetric N x N matrix of polynomials in nvars variables, given by
    its entries above the diagonal {(a, b): A_ab} (a < b; an entry left
    out is zero), C_2l sitting at T^(N-2l).

    C_2l is the sum of Pf(A_S)^2 over the 2l-subsets S of the rows; each
    principal Pfaffian is expanded along its first row, which reads only
    entries above the diagonal, and memoized on its index tuple."""
    zero = CommPoly(nvars)
    pfaffians = {(): CommPoly.monomial(nvars, ())}

    def pfaffian(rows):
        # Pf(A_S) = sum_k (-1)^k a_{s0,sk} Pf(A_{S - {s0, sk}})
        if rows not in pfaffians:
            first, rest = rows[0], rows[1:]
            total = zero
            for k, row in enumerate(rest):
                entry = upper.get((first, row))
                if entry:
                    minor = pfaffian(rest[:k] + rest[k + 1:])
                    if minor:
                        piece = entry * minor
                        total = total + (-piece if k % 2 else piece)
            pfaffians[rows] = total
        return pfaffians[rows]

    out = {}
    for l in range(1, N // 2 + 1):
        total = zero
        for rows in combinations(range(N), 2 * l):
            pf = pfaffian(rows)
            if pf:
                total = total + pf * pf
        out[l] = total
    return out


# N is the rotation block size; coefficients, symmetrized and checked map
# each l to C_2l as a CommPoly over the algebra's variables, to its
# symmetrization as a PBWElement, and to whether the U(g) centrality
# check ran
CasimirSet = namedtuple("CasimirSet", "N coefficients symmetrized checked")


# symmetrized elements beyond this degree are returned unchecked (and
# marked so in CasimirSet.checked).  Each [X_t, C] is a derivation whose
# normal forms live for that one commutator, so what is left is time:
# checking C_4 against the generating set takes about 0.05 s on Ha(5)
# (degree 8, 6 generators), 0.4 s on IHa(4) (degree 12, 3,071 words, 8
# generators) and 12 s on QHa(4) (degree 12, 49,047 words, 8 generators),
# in-process on a shared 2-vCPU host
UCHECK_DEGREE_CAP = 6


def casimir_set(spec):
    """Every C_2l of the dressed rotation matrix, symmetrized into the
    enveloping algebra.  Their invariance follows from the covariance of
    the dressed matrix, checked once before any char-poly work; the
    symmetrized element is checked central in U(g) up to
    UCHECK_DEGREE_CAP, against the generating set picked once here.  The
    spec is verified once and the rotation block read once, both by
    build_so_matrix, and the ad_images tables are built once, for the
    covariance check and the centrality check alike."""
    algebra = spec.algebra
    N, upper = build_so_matrix(spec)
    # the degree-k parts x_{J_ij} f + P_ij of the entries have full generic
    # rank, so each C_2l has degree exactly 2lk: refuse before any char-poly
    top = 2 * (N // 2) * spec.k
    if top > DEGREE_CAP:
        raise DegreeOverflowError(top, DEGREE_CAP)
    images = [ad_images(algebra, t) for t in range(algebra.dim)]
    check_covariance(algebra, upper, images)
    coefficients = char_poly_coefficients(N, upper, algebra.dim)
    generators = generating_set(algebra)
    symmetrized, checked = {}, {}
    for l, poly in sorted(coefficients.items()):
        sym = symmetrize(algebra, poly)
        checked[l] = poly.degree() <= UCHECK_DEGREE_CAP
        if checked[l]:
            for t in generators:
                if derivation(sym, images[t]):
                    raise InternalConsistencyError(
                        "symmetrized C_%d fails to commute with %s"
                        % (2 * l, algebra.names[t]))
        symmetrized[l] = sym
    return CasimirSet(N=N, coefficients=coefficients,
                      symmetrized=symmetrized, checked=checked)
