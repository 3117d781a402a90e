"""Exception types shared across the package, each declaring its answer.

Everything user-facing derives from LiecasError.  Each class the package
raises declares kind, the "error" tag of its JSON document, and status,
its exit status: 2 for input the command cannot take, 1 when a check
fails.  The rest of the document is the payload: {"detail": message} and
what the raiser adds, or a missing limit's bracket and weight alone.
README's error table lists the same kinds and exits.
"""


class LiecasError(Exception):

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = {"detail": message, **payload}


class MalformedInputError(LiecasError):
    """Bad structural data: unknown names, index out of range, schema violations."""

    kind, status = "malformed-input", 2


class VirtualCopySpecError(MalformedInputError):
    """A candidate (f, P_i) spec that breaks the structural rules
    (support outside the radical, wrong homogeneity, zero f)."""


class DegreeOverflowError(LiecasError):
    """A normal-ordering word exceeded the degree cap."""

    kind, status = "degree-overflow", 2

    def __init__(self, length, cap):
        super().__init__(
            "word of length %d exceeds the degree cap %d" % (length, cap))


class OutOfMemoryError(LiecasError):
    """A request needed more memory than the process may use."""

    kind, status = "out-of-memory", 2


class PreconditionError(LiecasError):
    """An operation was called on data that fails its stated precondition,
    e.g. casimirs or a copy contraction given a dressing that does not
    verify."""

    kind, status = "precondition", 1


class InternalConsistencyError(LiecasError):
    """The engine derived something that contradicts a structural guarantee
    (a dressed rotation matrix that fails covariance, a contraction that
    breaks Jacobi). Signals a transcription bug, not user error."""

    kind, status = "internal-consistency", 1


class LimitDoesNotExistError(LiecasError):
    """A contraction weighting gives some bracket a negative total weight."""

    kind, status = "limit-does-not-exist", 2

    def __init__(self, i, j, k, weight):
        super().__init__(
            "no contraction limit: bracket (%s, %s) -> %s has weight %d < 0"
            % (i, j, k, weight))
        self.payload = {"triple": [i, j, k], "weight": weight}


class NotApplicableError(LiecasError):
    """Operation does not apply to this algebra (e.g. casimirs on a Levi
    part that is no rotation block)."""

    kind, status = "not-applicable", 2
