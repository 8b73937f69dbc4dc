"""The E1–E23 evaluation suite (see DESIGN.md §3).

Importing this package loads only the experiment table
(:data:`~repro.experiments.base.EXPERIMENTS`); an experiment's module,
and whatever it needs (numpy, the simulator, ...), is imported when the
experiment is first fetched.  Run one with::

    from repro.experiments import get_experiment
    print(get_experiment("e01")().render())
"""

from .base import (
    DEFAULT_SEED,
    ExperimentResult,
    Scale,
    all_experiments,
    get_experiment,
    result_from_dict,
)

__all__ = [
    "DEFAULT_SEED",
    "ExperimentResult",
    "Scale",
    "all_experiments",
    "get_experiment",
    "result_from_dict",
]
