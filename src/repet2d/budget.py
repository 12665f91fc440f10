"""Work budget shared by the shape-enumeration heavy operations.

Enumerating every factor shape of an m x n matrix is Theta((mn)^2) window work,
so operations that sweep shapes charge their window counts against a budget and
raise ShapeTooLarge when it runs out, rather than silently subsampling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import BadParam, ShapeTooLarge

DEFAULT_BUDGET = 10**9
ENV_VAR = "REPET2D_BUDGET"


def default_limit() -> int:
    """Budget limit from the REPET2D_BUDGET environment variable, else 10^9."""
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
    """Counts elementary steps (roughly: windows touched) against a limit."""

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
