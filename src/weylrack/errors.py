"""The one error raised when a computation outgrows a size budget."""
from __future__ import annotations


class BudgetExceeded(RuntimeError):
    """A computation needs more than ``limit`` of the budget named ``budget``."""

    def __init__(self, budget: str, limit: int):
        super().__init__(f"{budget} exceeds its budget of {limit}")
        self.budget = budget
        self.limit = limit
