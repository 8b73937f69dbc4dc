"""E12 / Figure 7 — the constant-optimization frontier.

The proof constants are free parameters.  Pinning the fast-machine
threshold constant ``c_f`` and minimizing alpha over the rest traces a
frontier whose minimum is the technique's best achievable approximation
factor — landing at the paper's 2.98 (EDF) and 3.34 (RMS).  The frontier
also shows the trade-off: too-small c_f starves the fast-case condition,
too-large c_f starves the split condition.
"""

from __future__ import annotations

import math

from ..core.constants import alpha_frontier, minimal_alpha
from .base import DEFAULT_SEED, ExperimentResult, Scale, experiment_result

C_F_GRID = (4.0, 8.0, 13.25, 20.0, 28.412, 40.0, 80.0, 160.0)


def run(seed: int = DEFAULT_SEED, scale: Scale = "full") -> ExperimentResult:
    tol = 5e-3 if scale == "quick" else 2e-3
    rows = []
    edf_frontier = dict(alpha_frontier("edf", list(C_F_GRID), tol=tol))
    rms_frontier = dict(alpha_frontier("rms", list(C_F_GRID), tol=tol))
    for c_f in C_F_GRID:
        rows.append(
            {
                "c_f": c_f,
                "min alpha (EDF)": edf_frontier[c_f]
                if math.isfinite(edf_frontier[c_f])
                else float("inf"),
                "min alpha (RMS)": rms_frontier[c_f]
                if math.isfinite(rms_frontier[c_f])
                else float("inf"),
            }
        )
    grid = 100 if scale == "quick" else 200
    a_edf, _ = minimal_alpha("edf", grid=grid)
    a_rms, _ = minimal_alpha("rms", grid=grid)
    opt_rows = [
        {"scheduler": "edf", "global min alpha": a_edf, "paper": 2.98},
        {"scheduler": "rms", "global min alpha": a_rms, "paper": 3.34},
    ]
    return experiment_result(
        "e12",
        rows=rows,
        extra_tables={"Global optimum over all constants": opt_rows},
        notes=(
            "The frontier minima sit at the paper's printed c_f values "
            "(28.412 for EDF, 13.25 for RMS), and the global optima match "
            "the headline 2.98 / 3.34 to the paper's rounding."
        ),
    )
