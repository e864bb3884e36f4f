"""Experiment harness: one runner per paper figure/table.

Each runner builds its scenario from the library's public API, executes
the paper's protocol, and returns a structured result the benchmarks
print and the tests assert on.  See DESIGN.md for the experiment
index mapping figures/tables to runners.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "figures": ("ascii_cdf", "ascii_plot"),
    "metrics": ("empirical_cdf", "median_absolute_error",
                "percentile_absolute_error"),
    "montecarlo": ("montecarlo",),
    "parallel": ("parallel", "CampaignExecution", "CampaignExecutor",
                 "resolve_workers"),
    "runners": ("runners",),
    "scenarios": ("build_wireless_scenario", "default_transducer",
                  "fast_transducer", "thin_trace_transducer"),
    "sweeps": ("sweeps",),
})
