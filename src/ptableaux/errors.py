"""Exception types raised by the ptableaux library."""


class PTableauError(ValueError):
    """Base class for all domain-level validation failures."""


class StripViolation(PTableauError):
    """Some value's cells do not form a horizontal strip."""


class ShadowViolation(PTableauError):
    """A cell of a larger value lies inside the northwest shadow of a smaller one."""


class ColumnStrictViolation(PTableauError):
    """A column's filled cells are not strictly increasing top to bottom."""


class DimensionMismatch(PTableauError):
    """Two grids that must share dimensions do not."""


class InvalidParsing(PTableauError):
    """A parsing factor is not weakly decreasing."""


class BiwordInvalid(PTableauError):
    """A biword violates its column ordering constraints."""


class RowMismatch(PTableauError):
    """Tensor operands have different row counts."""


class RankMismatch(PTableauError):
    """Crystal graphs over different ranks were combined."""


class IndexOutOfRange(PTableauError):
    """An operator or row index lies outside the rank."""


class ShapeError(PTableauError):
    """Incompatible partition shapes (containment or size)."""


class NotPartitionShaped(PTableauError):
    """Operation requires a partition-shaped (highest weight) ptableau."""


class NotHighestWeight(PTableauError):
    """Operation requires a highest weight input."""


class NotTensorForm(PTableauError):
    """Input does not decompose as the required tensor product."""


class NotClosed(PTableauError):
    """A node set is not closed under the crystal operators."""


class NotConnected(PTableauError):
    """A crystal graph is empty or not a single connected component."""


class SizeLimitExceeded(RuntimeError):
    """Crystal graph construction exceeded the configured node cap."""


class InternalInvariantError(RuntimeError):
    """A library postcondition failed; this indicates a bug, not bad input."""
