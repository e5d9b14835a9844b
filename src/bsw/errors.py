"""Shared exception types.

Structural errors signal ill-formed in-process calls (mixed rings, bad
shapes); validation errors signal bad user-level input; the resource
errors carry enough state to report partial progress.
"""

from __future__ import annotations


class StructuralError(ValueError):
    """Operands do not fit together (ring mismatch, wrong arity, bad shape)."""


class ValidationError(ValueError):
    """Input rejected by a documented precondition."""


class BudgetExceededError(RuntimeError):
    """A budget meter (modgb.Budget) ran out of work units.

    `partial` is the engine's state when it ran out, a tuple of VecPoly
    (e.g. the basis so far); `spent` counts all units drawn on the meter.
    """

    def __init__(self, message: str, partial=None, spent: int | None = None):
        super().__init__(message)
        self.partial = partial
        self.spent = spent


class ResourceCapError(RuntimeError):
    """A guarded enumeration (ideal power, mu search) exceeded its cap,
    or a resolution did not terminate within its max_len."""


class SamplingError(RuntimeError):
    """Variety sampling failed a residual or configuration check."""


class EstimationError(RuntimeError):
    """Regression input was too degenerate to produce an estimate."""
