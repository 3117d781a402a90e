"""Exception types shared across the package.

Everything user-facing derives from LiecasError so the CLI can map errors
to exit codes in one place (malformed input and nonexistent contraction
limits exit 2, verification failures exit 1).
"""


class LiecasError(Exception):
    pass


class MalformedInputError(LiecasError):
    """Bad structural data: unknown names, index out of range, schema violations."""


class VirtualCopySpecError(MalformedInputError):
    """A candidate (f, P_i) spec that breaks the structural rules
    (support outside the radical, wrong homogeneity, zero f)."""


class DegreeOverflowError(LiecasError):
    """A normal-ordering word exceeded the degree cap."""

    def __init__(self, length, cap):
        super().__init__(
            "word of length %d exceeds the degree cap %d" % (length, cap))
        self.length = length
        self.cap = cap


class PreconditionError(LiecasError):
    """An operation was called on data that fails its stated precondition,
    e.g. casimirs or a copy contraction given a dressing that does not
    verify."""


class InternalConsistencyError(LiecasError):
    """The engine derived something that contradicts a structural guarantee
    (a dressed rotation matrix that fails covariance, a contraction that
    breaks Jacobi). Signals a transcription bug, not user error."""


class LimitDoesNotExistError(LiecasError):
    """A contraction weighting gives some bracket a negative total weight."""

    def __init__(self, i, j, k, weight):
        super().__init__(
            "no contraction limit: bracket (%s, %s) -> %s has weight %d < 0"
            % (i, j, k, weight))
        self.triple = (i, j, k)
        self.weight = weight


class NotApplicableError(LiecasError):
    """Operation does not apply to this algebra (e.g. casimirs on a Levi
    part that is no rotation block)."""
