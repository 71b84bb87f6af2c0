"""The one error raised when a computation outgrows a size budget."""
from __future__ import annotations

from typing import Optional


class BudgetExceeded(RuntimeError):
    """A computation needs more than ``limit`` of the budget named ``budget``.

    A graded-dimension engine passes ``dims``, the dims of the degrees it
    finished before the refused one; the message then ends with them.
    """

    def __init__(self, budget: str, limit: int, dims: Optional[list] = None):
        done = "" if dims is None else f" after dims {dims}"
        super().__init__(f"{budget} exceeds its budget of {limit}{done}")
        self.budget = budget
        self.limit = limit
        self.dims = dims
