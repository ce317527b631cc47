"""Shared exception types and the default work budget."""

# The CLI's ``--budget`` default and the library's default ``budget``.
DEFAULT_BUDGET = 10**9


class BudgetExceeded(RuntimeError):
    """A computation would exceed its configured work budget.

    ``estimate`` carries the predicted cost (units depend on the caller:
    enumeration leaves, symmetrizer terms, determinant evaluations).
    """

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate
