"""Work budget shared by the shape-enumeration heavy operations.

Enumerating every factor shape of an m x n matrix is Theta((mn)^2) window work,
so operations that sweep shapes charge their window counts against a budget and
raise ShapeTooLarge when it runs out, rather than silently subsampling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cache

from .errors import BadParam, ShapeTooLarge

DEFAULT_BUDGET = 10**9
ENV_VAR = "REPET2D_BUDGET"


@cache
def default_limit() -> int:
    """Budget limit from the REPET2D_BUDGET environment variable, else 10^9.

    The variable is read once a process, when the first budget without a
    limit is made, so later default budgets cost no environment lookup
    (about 1 us each); a value that is not a positive integer raises each
    time it is read."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise BadParam(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise BadParam(f"{ENV_VAR} must be positive, got {value}")
    return value


@dataclass
class WorkBudget:
    """Counts elementary steps (roughly: windows touched) against a limit.

    A search that charges one step per node may count its nodes and charge
    them in one call instead, provided it raises at the same node, with the
    same ``used`` and the same message, as charging one step per node would:
    ``stop_node`` names the node at which to charge, and the search charges
    its pending nodes on every other exit."""

    limit: int = field(default_factory=default_limit)
    used: int = 0

    def charge(self, steps: int, what: str = "window scan") -> None:
        self.used += steps
        if self.used > self.limit:
            raise ShapeTooLarge(
                f"work budget exceeded during {what}: "
                f"{self.used} > limit {self.limit}"
            )


def ensure_budget(budget: WorkBudget | None) -> WorkBudget:
    """A fresh default budget when the caller did not pass one."""
    return budget if budget is not None else WorkBudget()


def stop_node(budget: WorkBudget, cap: int) -> int:
    """The first node at which a search that charges one step per node and
    gives up after ``cap`` nodes must stop: where the budget would raise, if
    it has room for at most ``cap`` more steps, else node ``cap + 1``.

    Such a search may count its nodes and charge them all at this node,
    where the budget raises as it would have (if it does not raise, the cap
    was reached), and charge the nodes still pending on every other exit, a
    return or an exception, where the budget cannot raise."""
    return max(min(cap, budget.limit - budget.used) + 1, 1)


def charge_each(budget: WorkBudget, count: int, what: str) -> None:
    """Charge ``count`` items of one step each in one call (none for no
    items), raising with the same ``used`` and message as charging them one
    at a time would: at the first item the budget has no room for."""
    if count:
        budget.charge(min(count, stop_node(budget, count)), what)
