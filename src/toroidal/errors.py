"""Exception types shared across the package.

A TK3,3 found while deciding is a result, not an error: the corner-set
decomposition returns its bad bridge, and the decision reports NotInClass
with the witness built from it.
"""


class GraphInputError(ValueError):
    """Malformed graph data or an operation on a missing vertex/edge."""


class ClassViolationError(Exception):
    """A K3,3-subdivision was found in a context that assumes none exists.

    ``witness`` holds the offending TK3,3 when one has been extracted.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificateError(Exception):
    """A claim of a toroidality certificate does not hold on replay."""


class InternalError(RuntimeError):
    """A result the package computed failed its own check: a bug in the
    package, never a fault of the input."""


class BudgetExceeded(Exception):
    """An exact search refused because its work passed a fixed budget: a
    limit of the search, never a fault of the input or a verdict."""


class GenusBudgetExceeded(BudgetExceeded):
    """The rotation-system search space exceeds the configured budget.

    The oracle refuses rather than sampling; ``required`` is the number of
    rotation systems that a full enumeration would visit.
    """

    def __init__(self, required, budget):
        super().__init__(
            f"rotation enumeration needs {required} systems, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class SearchBudgetExceeded(BudgetExceeded):
    """A subdivision search stepped onto more path vertices than its budget
    allows; ``budget`` is that limit."""

    def __init__(self, budget):
        super().__init__(f"subdivision search passed its budget of {budget} path steps")
        self.budget = budget
