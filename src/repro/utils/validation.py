"""Argument-validation helpers with uniform error messages.

Model code in :mod:`repro.core` and the simulator in :mod:`repro.simcluster`
validate their inputs aggressively: the analytical formulas of the paper are
only meaningful on a constrained parameter domain (e.g. ``0 <= alpha <= 1``,
``0 < N < P``) and silent acceptance of out-of-domain values would produce
plausible-looking but wrong reproductions.  :func:`read_only` is the
output-side counterpart: arrays handed out as snapshots (WIR rows, workloads,
column loads) are read-only, so a consumer cannot corrupt producer state.
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "check_positive",
    "check_positive_int",
    "check_non_negative",
    "check_fraction",
    "read_only",
]


def check_positive(value: float, name: str) -> float:
    """Ensure ``value`` is a strictly positive real number and return it."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Ensure ``value`` is a non-negative real number and return it."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_positive_int(value: int, name: str) -> int:
    """Ensure ``value`` is a strictly positive integer and return it."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Ensure ``value`` is a non-negative integer and return it."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return int(value)


def check_fraction(value: float, name: str, *, inclusive: bool = True) -> float:
    """Ensure ``value`` lies in ``[0, 1]`` (or ``(0, 1)`` if not inclusive)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be within (0, 1), got {value!r}")
    return float(value)


def read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``, for snapshots handed out."""
    view = array.view()
    view.flags.writeable = False
    return view
