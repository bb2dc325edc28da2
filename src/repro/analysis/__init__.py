"""Result analysis and rendering for the benchmark harness.

* :mod:`repro.analysis.stats` — summary statistics (steady-state
  extraction from time series, improvement factors, rank correlation);
* :mod:`repro.analysis.tables` — ASCII rendering of the paper's tables
  and figure series, so every bench prints the rows the paper reports.
"""

from repro.analysis.stats import steady_state_mean
from repro.analysis.tables import format_series, format_table

__all__ = [
    "format_series",
    "format_table",
    "steady_state_mean",
]
