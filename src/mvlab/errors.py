"""Exception hierarchy shared by all mvlab modules."""


class MvlabError(Exception):
    """Base class for every error raised by this package."""


class DegenerateInput(MvlabError):
    """Points do not affinely span the requested dimension."""


class DimensionMismatch(MvlabError):
    """Bodies or vectors with incompatible ambient dimensions."""


class DimensionLimit(MvlabError):
    """Requested ambient dimension is outside the supported range."""


class Unbounded(MvlabError):
    """Halfspace intersection is unbounded."""


class EmptyIntersection(MvlabError):
    """Halfspace intersection is infeasible."""


class ZeroVector(MvlabError):
    """A direction argument was the zero vector."""


class RangeViolation(MvlabError):
    """A facet move that loses a facet, or flattens or empties the body."""


class EmptyOrFlat(MvlabError):
    """A cap cut removed everything or left a lower-dimensional set."""


class BadArity(MvlabError):
    """Wrong number of bodies for the requested operation."""


class BadParams(MvlabError):
    """Invalid generator or CLI parameters."""


class BudgetExhausted(MvlabError):
    """Counterexample search ran out of budget or of candidates.

    `evaluations` is the number of gap evaluations made: the budget, or the
    size of the finite search family when that is smaller. Exhaustion is
    not a simplex verdict; it only says the family found nothing.
    """

    def __init__(self, evaluations: int):
        super().__init__(f"no violation found within {evaluations} gap evaluations")
        self.evaluations = evaluations


class ParseError(MvlabError):
    """Malformed polytope document or report input."""


class InternalCheckError(MvlabError):
    """An internal cross-check failed; indicates a bug, not bad input."""
