"""Cutoff projections that enforce lower bounds between time steps.

The plain cutoff replaces f by max(f, 0) nodewise, the delta variant by
max(f, delta) for a small delta >= 0.  Both are projections onto closed
convex sets of nodal vectors, which gives them the properties the error
analysis of cutoff-stabilized schemes rests on:

* |max(f,0) - u| <= |f - u| for every u >= 0 (no accuracy loss against a
  nonnegative target),
* |max(f,0) - f| <= |u - f| (the correction is bounded by the distance to
  any nonnegative vector),
* |max(f,delta) - max(f,0)| <= delta and
  |max(f,delta) - u| <= |f - u| + delta.

apply_floor is the one implementation of both: the stepping loop
(stepping.march) calls it between steps, and nothing else floors a run's
state.  The inequalities hold exactly in floating point (rounding is
monotone), so the tests check them on apply_floor itself with no
tolerance; lemma_gap reports the slack of the first two for a field
against a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Field, _require_finite


@dataclass(frozen=True)
class CutoffParams:
    """delta = 0 reproduces the plain nonnegative cutoff."""

    delta: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta < 0.0:
            raise ValueError(f"cutoff delta must be finite and >= 0, got {self.delta}")


def apply_floor(values: np.ndarray, delta: float = 0.0) -> np.ndarray:
    """Nodewise max(values, delta) on a raw array; entries already >= delta
    are passed through unchanged."""
    _require_finite(values, "cutoff input")
    return np.where(values >= delta, values, delta)


def lemma_gap(f: Field, u: Field) -> tuple:
    """Worst-case slack of the two cutoff inequalities against a
    nonnegative reference u.

    Returns (max_j(|f+ - u| - |f - u|), max_j(|f+ - f| - |u - f|)) with
    f+ = max(f, 0); both are <= 0 whenever u >= 0.
    """
    f._check_same_grid(u)
    _require_finite(f.values, "lemma_gap f")
    _require_finite(u.values, "lemma_gap u")
    neg = u.values < 0.0
    if neg.any():
        i = int(np.argmax(neg))
        raise ValueError(
            f"lemma_gap reference must be nonnegative; u[{i}] = {float(u.values[i])!r}")
    fp = apply_floor(f.values, 0.0)
    gap_accuracy = float(np.max(np.abs(fp - u.values) - np.abs(f.values - u.values)))
    gap_correction = float(np.max(np.abs(fp - f.values) - np.abs(u.values - f.values)))
    return gap_accuracy, gap_correction
