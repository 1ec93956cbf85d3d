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
    """A vertex that no spanning tree of the graph reaches: check_vertices
    raises it for an index outside 0 <= v < n_vertices, and
    DisconnectedError subclasses it."""


class DisconnectedError(NotASpanningTreeError):
    """Some vertex is unreachable from vertex 0, so no tree spans the graph."""


class EdgeNotInGraphError(GffResistError):
    """A walk or circuit references an edge the graph does not contain."""


class SameVertexError(GffResistError):
    """An operation requiring two distinct vertices got the same one twice."""


class SizeLimitExceededError(GffResistError):
    """A dense computation was asked for a size past its documented limit,
    such as verify.MAX_APPENDIX_DIM."""


# --- linear algebra and Gaussians ---

class DimensionMismatchError(GffResistError):
    """Vector or matrix dimensions are incompatible."""


class SingularSystemError(GffResistError):
    """A linear system that should be definite turned out singular, or its
    solution, or a variance the network fixes, is past the double range."""


class NonpositiveVarianceError(GffResistError):
    """A variance that must be strictly positive is zero or negative."""


class NegativeVarianceError(GffResistError):
    """A variance is negative beyond numerical tolerance."""


# --- file ingestion ---

class ParseError(GffResistError):
    """Malformed network document (syntax or missing/ill-typed fields)."""


class ValidationError(GffResistError):
    """Structurally well-formed input that violates a semantic invariant."""
