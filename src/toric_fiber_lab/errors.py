"""Exception hierarchy shared across the library.

ToricFiberError is the base for everything the library raises on bad input
or failed computation; the CLI maps its subclasses to exit codes.
"""


class ToricFiberError(Exception):
    """Base class for all library errors."""


class ValidationError(ToricFiberError):
    """Bad user input (schema, geometry, preconditions). CLI exit code 2."""


class SchemaError(ValidationError):
    """Malformed input document."""


class DimensionMismatch(ValidationError):
    """A vector's length does not match the polytope dimension."""


class EmptyInterior(ValidationError):
    """No rational interior point exists (or the supplied witness is not interior)."""


class NotInterior(ValidationError):
    """The requested fiber is not an interior point of the polytope."""


class TruncationMismatch(ToricFiberError):
    """Arithmetic between series with different truncation orders."""


class NotAUnit(ToricFiberError):
    """Inversion of a series with positive valuation or vanishing leading coefficient."""


class NegativeValuation(ToricFiberError):
    """A series acquired a negative exponent; inputs were malformed."""


class ZeroComponent(ValidationError):
    """Numeric evaluation at a point with a zero coordinate."""


class DegenerateDirection(ToricFiberError):
    """Some gradient direction has fewer than two minimal-valuation terms."""


class SingularLeadingHessian(ToricFiberError):
    """Leading b-Hessian H0 has a zero diagonal entry or cond >= 1e8: no plain Newton."""


class NoConvergence(ToricFiberError):
    """A Newton lift step failed to raise the residual level to at least twice its last value."""


class Inconsistent(ToricFiberError):
    """Graded lifting failed: singular leading b-Hessian H0 or a level that did not rise."""


class NotTransverse(ValidationError):
    """Probe direction is not integrally transverse to the facet."""


class UnboundedPolytope(ValidationError):
    """Grid scan or SVG rendering requested on an unbounded polytope."""


class DimensionUnsupported(ValidationError):
    """Rendering requested for a dimension other than 2."""


class InternalInconsistency(ToricFiberError):
    """A fiber was certified critical and probe-displaceable at once. CLI exit code 3."""
