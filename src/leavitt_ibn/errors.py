"""Exception types shared across the package.

Everything derives from GraphAlgebraError so callers (notably the CLI) can
distinguish input problems, violated preconditions, and internal failures
without matching on message strings.
"""


class GraphAlgebraError(Exception):
    """Base class for all errors raised by this package."""


# ── graph construction ───────────────────────────────────────────────


class DuplicateVertex(GraphAlgebraError):
    pass


class DuplicateEdge(GraphAlgebraError):
    pass


class DanglingEndpoint(GraphAlgebraError):
    pass


class InvalidToken(GraphAlgebraError):
    """Vertex or edge name is not a token of letters/digits/underscore."""


# ── lookups and shape preconditions ──────────────────────────────────


class UnknownVertex(GraphAlgebraError):
    pass


class UnknownEdge(GraphAlgebraError):
    pass


class NotACycle(GraphAlgebraError):
    pass


class EmptyGraph(GraphAlgebraError):
    pass


class DimensionMismatch(GraphAlgebraError):
    pass


# ── monoid rewriting ─────────────────────────────────────────────────


class NotRegular(GraphAlgebraError):
    """Relation applied at a sink (no outgoing edges)."""


class InsufficientCoefficient(GraphAlgebraError):
    """Relation applied at a vertex whose coefficient is zero."""


# ── IBN criterion and witnesses ──────────────────────────────────────


class NotApplicable(GraphAlgebraError):
    """Witness requested for a graph whose algebra has IBN."""


class WitnessConstructionFailed(GraphAlgebraError):
    """A constructed witness failed its replay check; signals a bug, never a
    verdict."""


class MalformedWitness(GraphAlgebraError):
    """Witness references vertices the graph does not have."""


# ── graph transformations ────────────────────────────────────────────


class NotASource(GraphAlgebraError):
    pass


class WouldEmptyGraph(GraphAlgebraError):
    pass


class BadCount(GraphAlgebraError):
    """Transformation count parameter must be a positive integer."""


class NotHereditary(GraphAlgebraError):
    pass


class ComplementHasCycle(GraphAlgebraError):
    """Collapse target's complement must be acyclic (keeps F(H) finite)."""


class CollapseTooLarge(GraphAlgebraError):
    """Collapse would build more path edge ids than
    transforms.MAX_COLLAPSE_PATH_IDS."""


# ── text formats ─────────────────────────────────────────────────────


class ParseError(GraphAlgebraError):
    """GTF syntax error; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
