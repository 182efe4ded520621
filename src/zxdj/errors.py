"""Exception types shared across the package."""


class ZxError(Exception):
    """Base class for all package errors."""


class UnknownNodeError(ZxError):
    pass


class SelfLoopError(ZxError):
    pass


class ArityMismatchError(ZxError):
    """A gate or circuit has the wrong number of qubits, or a fixed-width
    synthesis or pattern is given a function of the wrong width."""


class ShapeMismatchError(ZxError):
    pass


class KindMismatchError(ZxError):
    pass


class NotAdjacentError(ZxError):
    pass


class WouldSelfLoopError(ZxError):
    pass


class PreconditionFailed(ZxError):
    pass


class NotPromiseError(ZxError):
    """The boolean function is neither constant nor balanced."""


class WidthTooLargeError(ZxError):
    pass


class NotGraphLikeError(ZxError):
    pass


class NoFlowError(ZxError):
    """The pattern has no XY-plane gflow, so it cannot run adaptively."""


class ReductionStuckError(ZxError):
    pass
