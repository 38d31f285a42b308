"""Synthetic striped application with deterministic linear workload growth.

This application is the runnable analogue of the analytical model of
Section II-C: every column gains a small uniform amount of load per
iteration, and the columns of a few designated *hot regions* additionally
gain a larger amount -- so the stripes covering a hot region overload at a
constant rate, exactly like the ``N`` overloading PEs of the model.  Being
deterministic and cheap, it is used by the integration tests, by the
quickstart example and by micro-benchmarks; the erosion application of
:mod:`repro.erosion` is the stochastic, paper-faithful workload.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = ["SyntheticGrowthApplication"]


class SyntheticGrowthApplication:
    """Striped application whose column loads grow linearly.

    Parameters
    ----------
    num_columns:
        Number of domain columns.
    initial_load_per_column:
        Starting workload weight of every column.
    uniform_growth:
        Load added to every column at each iteration (the model's ``a``
        spread over the columns).
    hot_regions:
        Column ranges ``(start, stop)`` that overload; each hot column gains
        ``hot_growth`` extra load per iteration (the model's ``m``).
    hot_growth:
        Extra per-column growth inside hot regions.
    flop_per_load_unit:
        FLOP charged per unit of column load.
    """

    def __init__(
        self,
        num_columns: int,
        *,
        initial_load_per_column: float = 100.0,
        uniform_growth: float = 0.1,
        hot_regions: Sequence[Tuple[int, int]] = (),
        hot_growth: float = 5.0,
        flop_per_load_unit: float = 1.0e6,
    ) -> None:
        check_positive_int(num_columns, "num_columns")
        check_positive(initial_load_per_column, "initial_load_per_column")
        check_non_negative(uniform_growth, "uniform_growth")
        check_non_negative(hot_growth, "hot_growth")
        check_positive(flop_per_load_unit, "flop_per_load_unit")

        self._loads = np.full(num_columns, float(initial_load_per_column))
        self.uniform_growth = float(uniform_growth)
        self.hot_growth = float(hot_growth)
        self.flop_per_load_unit = float(flop_per_load_unit)
        self._hot_mask = np.zeros(num_columns, dtype=bool)
        for start, stop in hot_regions:
            if not 0 <= start <= stop <= num_columns:
                raise ValueError(
                    f"hot region ({start}, {stop}) outside [0, {num_columns}]"
                )
            self._hot_mask[start:stop] = True
        self._iteration = 0

    # ------------------------------------------------------------------
    @property
    def num_columns(self) -> int:
        """Number of domain columns."""
        return self._loads.size

    @property
    def iteration(self) -> int:
        """Number of dynamics steps performed."""
        return self._iteration

    @property
    def hot_columns(self) -> np.ndarray:
        """Indices of the overloading (hot) columns."""
        return np.flatnonzero(self._hot_mask)

    def column_loads(self) -> np.ndarray:
        """Current per-column workload (copy)."""
        return self._loads.copy()

    def total_load(self) -> float:
        """Total workload of the domain."""
        return float(self._loads.sum())

    def advance(self) -> None:
        """Apply one iteration of linear growth."""
        self._loads += self.uniform_growth
        np.add(self._loads, self.hot_growth, out=self._loads, where=self._hot_mask)
        self._iteration += 1
