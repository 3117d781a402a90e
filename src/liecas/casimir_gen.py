"""Casimir invariants from the characteristic polynomial of the dressed
rotation matrix.

For an algebra whose Levi part is a rotation block J_ij (1 <= i < j <= N)
carrying a verified virtual-copy spec, the commutative images of the
dressed generators J'_ij assemble into an antisymmetric N x N polynomial
matrix A.  The characteristic polynomial

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
    MalformedInputError,
    NotApplicableError,
)
from .lie_core import generating_set
from .polynomial import CommPoly
from .sparse import accumulate
from .virtual_copy import build_operators, require_verified


def rotation_block(algebra):
    """(N, {(a, b): t}) for a Levi part named exactly {J_ij : 1 <= i < j
    <= N}, generator t being J_(a+1)(b+1) for 0-based a < b.

    An empty Levi part counts as N = 1 (a single rotation axis has no
    J generators at all).
    """
    names = sorted(algebra.names[t] for t in algebra.levi)
    block = {}
    for name in names:
        if not (name.startswith("J_") and len(name) == 4
                and name[2:].isdigit()):
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
    return N, block


def build_so_matrix(algebra, spec):
    """Antisymmetric N x N matrix of the dressed generators' commutative
    images, N the size read off the Levi labels.  The spec must verify,
    which is checked first."""
    require_verified(algebra, spec, "the matrix entries would be meaningless")
    N, block = rotation_block(algebra)
    zero = CommPoly.zero(algebra.dim)
    matrix = [[zero for _ in range(N)] for _ in range(N)]
    if N == 1:
        return matrix
    ops = build_operators(algebra, spec)
    for (a, b), t in block.items():
        entry = ops[t].commutative_image()
        matrix[a][b] = entry
        matrix[b][a] = entry.scale(-1)
    return matrix


def xhat(algebra, poly, images):
    """Xhat_t poly for images = ad_images(algebra, t): the derivation of
    S(g) with x_y -> [X_t, X_y], applied one letter at a time, each word
    then sorted."""
    if poly.nvars != algebra.dim:
        raise MalformedInputError(
            "polynomial in %d variables against a %d-dim algebra"
            % (poly.nvars, algebra.dim))
    out = {}
    accumulate(out, ((tuple(sorted(w)), c)
                     for w, c in substituted(poly.terms, images)))
    return poly._new(out)


def check_covariance(algebra, matrix):
    """Refuse a dressed matrix A that does not transform like so(N): for
    every generator t and entry i < j, Xhat_t A_ij must equal [K_t, A]_ij,
    where K_t = E_ba - E_ab when t is J_(a+1)(b+1) (0-based a < b) and
    K_t = 0 for every other generator.

    Xhat_t is a derivation of S(g) that kills constants, so then
    Xhat_t det(A - T id) = tr(adj(A - T id) [K_t, A - T id]) = 0 and every
    char-poly coefficient is invariant.  The argument reads nothing of
    the algebra's Levi rows beyond the J_ij names."""
    N = len(matrix)
    rotation = {t: ab for ab, t in rotation_block(algebra)[1].items()}
    zero = CommPoly.zero(algebra.dim)
    images = [ad_images(algebra, t) for t in range(algebra.dim)]
    for i in range(N):
        for j in range(i + 1, N):
            for t in range(algebra.dim):
                want = zero
                if t in rotation:
                    # [E_ba - E_ab, A]_ij
                    a, b = rotation[t]
                    want = ((matrix[a][j] if i == b else zero)
                            - (matrix[b][j] if i == a else zero)
                            + (matrix[i][a] if j == b else zero)
                            - (matrix[i][b] if j == a else zero))
                if xhat(algebra, matrix[i][j], images[t]) != want:
                    raise InternalConsistencyError(
                        "dressed matrix entry (%d, %d) fails covariance "
                        "against %s" % (i + 1, j + 1, algebra.names[t]))


def char_poly_coefficients(matrix):
    """{l: C_2l} from the monic characteristic polynomial of an
    antisymmetric polynomial matrix, C_2l sitting at T^(N-2l).

    C_2l is the sum of Pf(A_S)^2 over the 2l-subsets S of the rows; each
    principal Pfaffian is expanded along its first row and memoized on
    its index tuple."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise MalformedInputError("matrix is not square")
    nvars = matrix[0][0].nvars
    for i in range(n):
        for j in range(n):
            if matrix[i][j].nvars != nvars:
                raise MalformedInputError("matrix entries disagree on nvars")
            if not (matrix[i][j] + matrix[j][i]).is_zero():
                raise MalformedInputError("matrix is not antisymmetric")
    zero = CommPoly.zero(nvars)
    pfaffians = {(): CommPoly.constant(nvars, 1)}

    def pfaffian(rows):
        # Pf(A_S) = sum_k (-1)^k a_{s0,sk} Pf(A_{S - {s0, sk}})
        if rows not in pfaffians:
            first, rest = rows[0], rows[1:]
            total = zero
            for k, row in enumerate(rest):
                entry = matrix[first][row]
                if entry:
                    minor = pfaffian(rest[:k] + rest[k + 1:])
                    if minor:
                        piece = entry * minor
                        total = total + (-piece if k % 2 else piece)
            pfaffians[rows] = total
        return pfaffians[rows]

    out = {}
    for l in range(1, n // 2 + 1):
        total = zero
        for rows in combinations(range(n), 2 * l):
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


def casimir_set(algebra, spec):
    """Every C_2l of the dressed rotation matrix, symmetrized into the
    enveloping algebra.  Their invariance follows from the covariance of
    the dressed matrix, checked once before any char-poly work; the
    symmetrized element is checked central in U(g) up to
    UCHECK_DEGREE_CAP, against the generating set picked once here.  The
    spec is verified once, by build_so_matrix."""
    matrix = build_so_matrix(algebra, spec)
    # the degree-k parts x_{J_ij} f + P_ij of the entries have full generic
    # rank, so each C_2l has degree exactly 2lk: refuse before any char-poly
    top = 2 * (len(matrix) // 2) * spec.k
    if top > DEGREE_CAP:
        raise DegreeOverflowError(top, DEGREE_CAP)
    check_covariance(algebra, matrix)
    coefficients = char_poly_coefficients(matrix)
    images = {t: ad_images(algebra, t) for t in generating_set(algebra)}
    symmetrized, checked = {}, {}
    for l, poly in sorted(coefficients.items()):
        sym = symmetrize(algebra, poly)
        checked[l] = poly.degree() <= UCHECK_DEGREE_CAP
        if checked[l]:
            for t, image in images.items():
                if derivation(sym, image):
                    raise InternalConsistencyError(
                        "symmetrized C_%d fails to commute with %s"
                        % (2 * l, algebra.names[t]))
        symmetrized[l] = sym
    return CasimirSet(N=len(matrix), coefficients=coefficients,
                      symmetrized=symmetrized, checked=checked)
