"""Figure 1's timeline and growth-rate analysis over sweep points.

The tables themselves come from the campaign (:mod:`repro.campaign`):
``repro table1``, ``repro ablations`` and ``campaign report`` all
render registry rows through :func:`repro.campaign.render_report`.
"""

from repro.experiments.analysis import crossover_size, fit_log_power, fit_power_law
from repro.experiments.figure1 import figure1, render_path_timeline

__all__ = [
    "crossover_size",
    "fit_log_power",
    "fit_power_law",
    "figure1",
    "render_path_timeline",
]
