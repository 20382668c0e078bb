"""Deterministic Monte Carlo comparison of citation impact indicators.

Simulates two-country article worlds drawn from discretised lognormal
citation distributions and measures how precisely five indicators
(arithmetic mean, offset geometric mean, top-1/10/50% shares) separate
the countries, including empirical and formula confidence intervals.
"""

from .distribution import rest_of_world_location
from .experiment import (
    INDICATOR_NAMES,
    ConfigSummary,
    ParameterSet,
    SweepReport,
    derive_seed,
    generate_grid,
    run_config,
    run_sweep,
    summarize,
    total_draws,
)
from .appendix_stats import (
    FrequencyTable,
    appendix_demo,
    ks_two_sample,
    mann_whitney_u,
    rank_sums_from_frequency,
)

__version__ = "0.1.0"
