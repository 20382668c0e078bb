"""Deterministic Monte Carlo comparison of citation impact indicators.

Simulates two-country article worlds drawn from discretised lognormal
citation distributions and measures how precisely five indicators
(arithmetic mean, offset geometric mean, top-1/10/50% shares) separate
the countries, including empirical and formula confidence intervals.
Names are imported from their modules, e.g. citesim.experiment.run_config.
"""

__version__ = "0.1.0"
