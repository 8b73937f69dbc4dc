"""Kernel backend registry and resolution.

Two backends evaluate batches of feasibility instances:

``scalar``
    The reference path: a per-instance loop over
    :func:`repro.core.feasibility.feasibility_test`.  The other backend
    is defined as bit-identical to it.
``numpy``
    Vectorized lockstep first-fit over flat structure-of-arrays buffers
    viewed as ndarrays (:mod:`repro.kernels.lockstep`); ``edf-dbf``
    routes through the sequential QPA walk in
    :mod:`repro.kernels.dbfloop`.

``None`` resolves to ``numpy``.  Any other name must be one of
:data:`BACKENDS`; nothing is ever substituted, so benchmark and
equivalence results always name the code path that produced them.
"""

from __future__ import annotations

__all__ = ["BACKENDS", "resolve_backend"]

#: Every recognized backend name, reference path first.
BACKENDS: tuple[str, ...] = ("scalar", "numpy")


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` means ``numpy``; explicit names are validated, never
    substituted.
    """
    if backend is None:
        return "numpy"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    return backend
