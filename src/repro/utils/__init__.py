"""Shared utilities for the ULBA reproduction library.

This package hosts small, dependency-free helpers used across the whole
library.  Every helper here has a caller in the library itself:

* :mod:`repro.utils.io` -- atomic artifact writes (temp file + rename).
* :mod:`repro.utils.markers` -- inert source markers recognised by the
  static analyses (``@hot_path``).
* :mod:`repro.utils.rng` -- reproducible random-number-generator management.
* :mod:`repro.utils.stats` -- statistical helpers (z-score, relative gain,
  confidence intervals, box-plot summaries, histogram binning) shared by the
  load-balancing framework and the experiment drivers.
* :mod:`repro.utils.validation` -- argument validation helpers that raise
  uniform, descriptive errors.
"""

from repro.utils.io import atomic_write_text
from repro.utils.markers import hot_path
from repro.utils.rng import derive_rng, ensure_rng
from repro.utils.stats import (
    BoxPlotSummary,
    HistogramSummary,
    box_plot_summary,
    histogram_summary,
    relative_gain,
    zscore,
)
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
)

__all__ = [
    "BoxPlotSummary",
    "HistogramSummary",
    "atomic_write_text",
    "box_plot_summary",
    "check_fraction",
    "check_positive",
    "check_positive_int",
    "derive_rng",
    "ensure_rng",
    "histogram_summary",
    "hot_path",
    "relative_gain",
    "zscore",
]
