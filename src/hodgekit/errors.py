"""Exception hierarchy shared by all hodgekit modules."""


class HodgekitError(Exception):
    """Base class for all errors raised by this package."""


class EmptySimplex(HodgekitError):
    """A simplex was given an empty vertex list."""


class DuplicateVertex(HodgekitError):
    """A simplex vertex list repeats a vertex."""


class InvalidVertex(HodgekitError):
    """A vertex label is not a non-negative integer."""


class ZeroDimensional(HodgekitError):
    """Face enumeration was requested on a vertex."""


class UnknownSimplex(HodgekitError):
    """A simplex is not stored in the complex at hand."""


class DimensionOutOfRange(HodgekitError):
    """A chain dimension outside the valid range for the complex."""


class ShapeMismatch(HodgekitError):
    """Operand shapes or lengths are incompatible."""


class FieldMismatch(HodgekitError):
    """Operands carry different coefficient fields."""


class NotSymmetric(HodgekitError):
    """Eigendecomposition input is not symmetric within tolerance."""


class NotAGraph(HodgekitError):
    """An operation restricted to graphs got a higher-dimensional complex."""


class MissingStalk(HodgekitError):
    """A sheaf leaves some simplex without a stalk dimension."""


class MissingRestriction(HodgekitError):
    """A sheaf leaves some incident face/coface pair without a map."""


class InconsistentSheaf(HodgekitError):
    """Restriction maps fail to commute around some codimension-2 pair."""


class BadParams(HodgekitError):
    """Generator parameters outside their valid range."""


class FormatError(HodgekitError):
    """An input file violates its documented schema."""


class NumericalFailure(HodgekitError):
    """A numerical result failed a correctness check."""
