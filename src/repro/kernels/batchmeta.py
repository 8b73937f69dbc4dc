"""Shared report metadata threaded through the batch evaluation.

Lives in its own tiny module so :mod:`repro.kernels.batch` (the public
API and ``edf-dbf`` report assembler) and :mod:`repro.kernels.lockstep`
(the lockstep numpy kernel, imported lazily) can both depend on it
without importing each other.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReportMeta"]


@dataclass(frozen=True)
class ReportMeta:
    """Theorem-level fields every report of one batch call shares."""

    scheduler: str
    adversary: str
    theorem: str
