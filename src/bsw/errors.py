"""Shared exception types.

Structural errors signal ill-formed in-process calls (mixed rings, bad
shapes); validation errors signal bad user-level input; a budget error
carries the engine's state and the units spent when its meter ran out,
and a resource-cap error carries only its message.
"""

from __future__ import annotations


class StructuralError(ValueError):
    """Operands do not fit together (ring mismatch, wrong arity, bad shape)."""


class ValidationError(ValueError):
    """Input rejected by a documented precondition."""


class BudgetExceededError(RuntimeError):
    """A budget meter (modgb.Budget) ran out of work units.

    `partial` is the tuple the engine handed the meter when it ran out: the
    basis so far or a division's reducers, as VecPoly, or () from a minor's
    determinant or a memo hit; `spent` counts all units drawn on the meter.
    """

    def __init__(self, message: str, partial=None, spent: int | None = None):
        super().__init__(message)
        self.partial = partial
        self.spent = spent


class ResourceCapError(RuntimeError):
    """A guarded enumeration exceeded its cap (an ideal power, the Newton
    projection's rows, a Newton box scan, the loja sampler's points, an
    exponent search's bound, the mu search), or a resolution did not
    terminate within its max_len."""


class SamplingError(RuntimeError):
    """Variety sampling failed a residual or configuration check."""


class EstimationError(RuntimeError):
    """Regression input was too degenerate to produce an estimate."""
