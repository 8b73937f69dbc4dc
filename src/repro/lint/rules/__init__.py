"""The REP rule set.  Importing this package registers every rule."""

from __future__ import annotations

from . import (  # noqa: F401 - registration side effects
    rep001_float_compare,
    rep002_randomness,
    rep003_wallclock,
    rep004_accumulation,
    rep005_unordered,
    rep006_lock_discipline,
    rep008_seed_provenance,
    rep009_orphaned_registration,
    rep011_impure_memo,
    rep012_async_blocking,
    rep013_process_capture,
    rep014_mixed_dimension,
    rep015_absolute_tolerance,
    rep016_dimension_call,
)

__all__ = [
    "rep001_float_compare",
    "rep002_randomness",
    "rep003_wallclock",
    "rep004_accumulation",
    "rep005_unordered",
    "rep006_lock_discipline",
    "rep008_seed_provenance",
    "rep009_orphaned_registration",
    "rep011_impure_memo",
    "rep012_async_blocking",
    "rep013_process_capture",
    "rep014_mixed_dimension",
    "rep015_absolute_tolerance",
    "rep016_dimension_call",
]
