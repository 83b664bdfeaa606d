"""Named zero-setting patterns for delay-Doppler variance profiles.

A pattern marks which grid bins carry unit-variance symbols and which are
forced silent.  ``head_tail_*`` patterns split a bin budget between the
two ends of the grid (the head gets the extra bin when the budget is
odd), filling whole columns or rows first and topping the last one up
partially.  ``block_diag_x1`` gives each delay row its own contiguous
band of Doppler columns, so the per-row spectra do not overlap.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .waveform import VarianceProfile

__all__ = ["PATTERN_NAMES", "builtin_pattern", "column_support_profile"]

PATTERN_NAMES = ("block_diag_x1", "head_tail_columns", "head_tail_rows")


def column_support_profile(
    columns: Sequence[int], num_delay: int, num_doppler: int, power: float = 1.0
) -> VarianceProfile:
    """Profile with the given Doppler columns fully active at ``power``."""
    sigma2 = np.zeros((num_delay, num_doppler))
    cols = np.asarray(list(columns), dtype=np.int64)
    if cols.size and (cols.min() < 0 or cols.max() >= num_doppler):
        raise ConfigurationError(f"columns must lie in [0, {num_doppler})")
    sigma2[:, cols] = float(power)
    return VarianceProfile(sigma2)


def _fill_columns(sigma2: np.ndarray, budget: int, from_tail: bool) -> None:
    """Activate ``budget`` bins column by column from the first (or last) column, each from row 0."""
    (sigma2[:, ::-1] if from_tail else sigma2).T.flat[:budget] = 1.0


def builtin_pattern(
    name: str, num_delay: int, num_doppler: int, budget: Optional[int] = None
) -> VarianceProfile:
    """Build a named unit-variance zero-setting pattern.

    ``budget`` is the total number of active bins.  It is required for the
    head/tail patterns; ``block_diag_x1`` always activates all its blocks
    (num_doppler bins) and rejects any other budget.
    """
    if name not in PATTERN_NAMES:
        raise ConfigurationError(f"unknown pattern {name!r}; expected one of {PATTERN_NAMES}")
    if num_delay < 1 or num_doppler < 1:
        raise ConfigurationError("grid dimensions must be >= 1")
    total = num_delay * num_doppler

    if name == "block_diag_x1":
        if num_doppler % num_delay != 0:
            raise ConfigurationError(
                "block_diag_x1 needs num_doppler divisible by num_delay "
                f"(got {num_delay} x {num_doppler})"
            )
        if budget is not None and budget != num_doppler:
            raise ConfigurationError(
                f"block_diag_x1 always has num_doppler = {num_doppler} active bins, "
                f"budget {budget} conflicts"
            )
        width = num_doppler // num_delay
        sigma2 = np.zeros((num_delay, num_doppler))
        for l in range(num_delay):
            sigma2[l, l * width : (l + 1) * width] = 1.0
        return VarianceProfile(sigma2)

    if budget is None:
        raise ConfigurationError(f"pattern {name!r} requires a budget of active bins")
    if not 0 < budget <= total:
        raise ConfigurationError(f"budget must be in (0, {total}], got {budget}")
    head = (budget + 1) // 2  # odd budgets favour the head
    tail = budget - head
    sigma2 = np.zeros((num_delay, num_doppler))
    # head_tail_rows fills the rows of sigma2 as head_tail_columns fills columns
    filled = sigma2 if name == "head_tail_columns" else sigma2.T
    _fill_columns(filled, head, from_tail=False)
    _fill_columns(filled, tail, from_tail=True)
    if int(sigma2.sum()) != budget:
        raise ConfigurationError(
            f"budget {budget} makes the head and tail regions overlap on a "
            f"{num_delay} x {num_doppler} grid"
        )
    return VarianceProfile(sigma2)
