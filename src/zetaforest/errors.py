"""Exception hierarchy shared across the package."""


class ZetaForestError(Exception):
    """Base class for all errors raised by this package."""


class NotInH1(ZetaForestError):
    """Word or element lies outside the y-initial subspace."""


class OrderMismatch(ZetaForestError, ValueError):
    """Truncated series of different orders were combined, or a series got
    a coefficient count other than its order."""


class BadIndex(ZetaForestError):
    """Malformed index literal or non-positive entry."""


class InvalidTree(ZetaForestError):
    """Structure fails the 2-colored rooted tree invariants."""


class NotConnected(InvalidTree):
    pass


class NotATree(InvalidTree):
    pass


class TerminalNotBlack(InvalidTree):
    pass


class NegativeEdgeIndex(InvalidTree):
    pass


class UnknownVertex(ZetaForestError):
    pass


class RootNotBlack(ZetaForestError):
    pass


class NotEssentiallyPositive(ZetaForestError):
    pass


class NotHarvestable(ZetaForestError):
    pass


class BadOrder(ZetaForestError, ValueError):
    """A truncated series or t-adic map asked for a t-order below 1."""


class UnknownSuite(ZetaForestError):
    pass


class BadRunConfig(ZetaForestError, ValueError):
    """A verification run's bound, seed or count is out of range."""


class TreeSyntaxError(ZetaForestError):
    """Tree DSL parse failure; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position
