"""Exception hierarchy shared across the library."""


class PsmtError(Exception):
    """Base class for all library errors."""


class SpecMismatch(PsmtError):
    """Operands belong to different field specs."""


class DivisionByZero(PsmtError):
    """Inversion or division by the zero element."""


class ParamError(PsmtError):
    """Invalid secret-sharing or decoding parameters."""


class InsufficientShares(PsmtError):
    """Fewer shares than the reconstruction threshold."""


class MissingEntries(PsmtError):
    """Received word has unfilled slots where a full word is required."""


class SizeLimit(PsmtError):
    """Instance too large for exhaustive connectivity analysis."""


class PreconditionError(PsmtError):
    """Topology does not satisfy a protocol's connectivity precondition."""
