"""Exception hierarchy shared by all gffresist modules."""


class GffResistError(Exception):
    """Base class for every error raised by this package."""


# --- graph construction and traversal ---

class SelfLoopError(GffResistError):
    """An edge joins a vertex to itself."""


class DuplicateVertexNameError(GffResistError):
    """Two vertices share the same identifier."""


class UnknownEndpointError(GffResistError):
    """An edge endpoint names a vertex that was never declared."""


class NotASpanningTreeError(GffResistError):
    """The supplied edge set is not a spanning tree of the graph."""


class DisconnectedError(NotASpanningTreeError):
    """Some vertex is unreachable from vertex 0, so no tree spans the graph."""


class EdgeNotInGraphError(GffResistError):
    """A walk or circuit references an edge the graph does not contain."""


class SameVertexError(GffResistError):
    """An operation requiring two distinct vertices got the same one twice."""


class SizeLimitExceededError(GffResistError):
    """An enumeration would exceed its configured count limit."""


# --- linear algebra and Gaussians ---

class DimensionMismatchError(GffResistError):
    """Vector or matrix dimensions are incompatible."""


class SingularSystemError(GffResistError):
    """A linear system that should be definite turned out singular."""


class NonpositiveVarianceError(GffResistError):
    """A variance that must be strictly positive is zero or negative."""


class NegativeVarianceError(GffResistError):
    """A variance is negative beyond numerical tolerance."""


class InconsistentConstraintError(GffResistError):
    """Conditioning on a constraint that holds with probability zero."""


# --- file ingestion ---

class ParseError(GffResistError):
    """Malformed network document (syntax or missing/ill-typed fields)."""


class ValidationError(GffResistError):
    """Structurally well-formed input that violates a semantic invariant."""
