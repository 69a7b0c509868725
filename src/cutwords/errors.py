"""Exception types shared across the package, and the one size budget."""

BUDGET_BYTES = 2**28  # largest state space any one computation may allocate


class InputError(ValueError):
    """Invalid input: bad law, infeasible constraint, malformed config."""


class SizeBudgetError(RuntimeError):
    """A computation would exceed the state-space budget BUDGET_BYTES."""


class InfeasibleError(InputError):
    """Constraint set admits no probability distribution."""


def check_budget(what: str, nbytes: int) -> None:
    """Raise SizeBudgetError, stating the bytes needed, when `what` needs
    more than BUDGET_BYTES; every state space is checked here before it is
    allocated."""
    if nbytes > BUDGET_BYTES:
        raise SizeBudgetError(f"{what} needs {nbytes} bytes, over the budget of {BUDGET_BYTES}")
