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
    allocated.  numpy's ufunc buffers, up to 16 * np.getbufsize() = 131 072
    bytes an operation (0.05 % of BUDGET_BYTES), and the 64 KiB block of raw
    Philox words that `laws._choose` and `corelemma._draw_marks` hold while
    they draw, are left uncounted: a fixed term for them would shift every
    exact byte threshold.  An elementwise operation on a strided view whose
    rows are shorter than the buffer takes three buffers, not two, so code
    that applies one keeps its row groups within half a buffer."""
    if nbytes > BUDGET_BYTES:
        raise SizeBudgetError(f"{what} needs {nbytes} bytes, over the budget of {BUDGET_BYTES}")
