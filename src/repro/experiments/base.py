"""Experiment framework: results, scales, and the experiment table.

Each evaluation artifact (DESIGN.md §3) is one module exposing
``run(seed, scale) -> ExperimentResult`` and one row of
:data:`EXPERIMENTS`.  ``scale='quick'`` keeps bench and CI runs in
seconds; ``scale='full'`` produces the EXPERIMENTS.md numbers.  Both
scales use deterministic seeds, so every number in the docs is
reproducible with one CLI call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Literal, Mapping

from ..io_.tables import format_table

__all__ = [
    "Scale",
    "ExperimentResult",
    "result_from_dict",
    "EXPERIMENTS",
    "experiment_result",
    "get_experiment",
    "all_experiments",
]

Scale = Literal["quick", "full"]

DEFAULT_SEED = 20160523  # IPPS 2016 conference dates


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment's output: identification, table rows, commentary."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]]
    notes: str = ""
    #: optional named secondary tables (e.g. a CDF alongside a summary)
    extra_tables: Mapping[str, list[dict[str, Any]]] = field(default_factory=dict)

    def render(self, *, precision: int = 4) -> str:
        parts = [
            format_table(
                self.rows,
                title=f"[{self.experiment_id}] {self.title}",
                precision=precision,
            )
        ]
        for name, rows in self.extra_tables.items():
            parts.append("")
            parts.append(format_table(rows, title=name, precision=precision))
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready archive form (see :func:`result_from_dict`)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": self.rows,
            "notes": self.notes,
            "extra_tables": dict(self.extra_tables),
        }


def result_from_dict(data: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild an archived :class:`ExperimentResult`."""
    return ExperimentResult(
        experiment_id=str(data["experiment_id"]),
        title=str(data["title"]),
        rows=list(data["rows"]),
        notes=str(data.get("notes", "")),
        extra_tables=dict(data.get("extra_tables", {})),
    )


Runner = Callable[..., ExperimentResult]

#: id -> (module under ``repro.experiments``, title).  Adding an
#: experiment means adding its module and one row here; a module is
#: imported only when its experiment runs.
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "e01": ("e01_constants", "Theorem constants and proof-inequality verification"),
    "e02": ("e02_accept_edf", "EDF acceptance ratio vs normalized utilization (Fig. 1)"),
    "e03": ("e03_accept_rms", "RMS acceptance ratio vs normalized utilization (Fig. 2)"),
    "e04": ("e04_speedup_edf", "Empirical speedup factor, EDF (Fig. 3)"),
    "e05": ("e05_speedup_rms", "Empirical speedup factor, RMS (Fig. 4)"),
    "e06": ("e06_runtime", "Runtime scaling of the first-fit test (Table 2)"),
    "e07": ("e07_heterogeneity", "Heterogeneity sweep at constant capacity (Fig. 5)"),
    "e08": ("e08_ablation", "Task/machine ordering and fit-rule ablation (Table 3)"),
    "e09": ("e09_edf_vs_rms", "EDF-vs-RMS acceptance gap vs tasks per machine (Fig. 6)"),
    "e10": ("e10_adversary_gap", "Partitioned-vs-any adversary gap audit (Table 4)"),
    "e11": ("e11_baselines", "Baseline agreement: ours vs Andersson-Tovar vs PTAS (Table 5)"),
    "e12": ("e12_frontier", "Constant-optimization frontier (Fig. 7)"),
    "e13": ("e13_simulation", "Simulation cross-validation of accepted partitions (Table 6)"),
    "e14": ("e14_hard_instances", "Adversarial lower bounds via hard-instance search (Table 7)"),
    "e15": ("e15_anomalies", "First-fit packing-anomaly scan across alpha (Table 8)"),
    "e16": ("e16_migration", "Migration vs partitioning, executed (Table 9)"),
    "e17": ("e17_breakdown", "Breakdown utilization distributions (Table 10)"),
    "e22": ("e22_accept_deadline", "Constrained-deadline acceptance vs deadline ratio"),
    "e23": ("e23_speedup_deadline", "Empirical speedup factors vs deadline ratio"),
}


def experiment_result(experiment_id: str, **fields: Any) -> ExperimentResult:
    """``experiment_id``'s result, titled from :data:`EXPERIMENTS`."""
    return ExperimentResult(experiment_id, EXPERIMENTS[experiment_id][1], **fields)


def get_experiment(experiment_id: str) -> Runner:
    """Runner for one experiment id (e.g. ``'e01'``); imports its module."""
    try:
        module, _ = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return import_module(f"{__package__}.{module}").run


def all_experiments() -> dict[str, str]:
    """Mapping experiment id -> title, without importing any experiment."""
    return {eid: title for eid, (_, title) in sorted(EXPERIMENTS.items())}
