"""Exception types shared across the package."""


class TreesubError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TreesubError):
    """Invalid node id, labeling, tree structure, or malformed operation table."""


class InternalError(TreesubError):
    """The package broke its own invariant, e.g. an exact replay that
    disagrees with the array pass it confirms."""


class UnsupportedStructureError(TreesubError):
    """The tree shape is outside what the requested algorithm supports."""


class BudgetExceededError(TreesubError):
    """An enumeration would exceed its budget; the operation refuses to run."""


class GenerationError(TreesubError):
    """Rejection sampling exhausted its attempt budget."""


class SolverFailureError(TreesubError):
    """An iterative solver failed to converge or disagreed with its oracle."""


class IterationBoundError(TreesubError):
    """A descent stage accepted more steps than the theoretical bound allows."""


class NotInImageError(TreesubError):
    """A vector is not in the image of the fork-tree encoding."""


class FormatError(TreesubError):
    """An instance document failed to parse; the message carries the JSON path."""
