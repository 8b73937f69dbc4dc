"""Serialization and table rendering.

Each public name is imported from its submodule on first access, so
the experiment table, which renders with :mod:`~repro.io_.tables`,
loads neither :mod:`~repro.io_.serialize` nor the core model it
(de)serializes.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .serialize import (
        canonical_instance,
        canonical_task_order,
        certificate_from_dict,
        certificate_to_dict,
        instance_digest,
        load_json,
        partition_result_from_dict,
        partition_result_to_dict,
        platform_from_dict,
        platform_to_dict,
        report_from_dict,
        report_to_dict,
        save_json,
        task_from_dict,
        task_to_dict,
        taskset_from_dict,
        taskset_to_dict,
    )
    from .tables import format_table, rows_to_csv, write_csv

__all__ = [
    "canonical_instance",
    "canonical_task_order",
    "certificate_from_dict",
    "certificate_to_dict",
    "instance_digest",
    "load_json",
    "partition_result_from_dict",
    "partition_result_to_dict",
    "platform_from_dict",
    "platform_to_dict",
    "report_from_dict",
    "report_to_dict",
    "save_json",
    "task_from_dict",
    "task_to_dict",
    "taskset_from_dict",
    "taskset_to_dict",
    "format_table",
    "rows_to_csv",
    "write_csv",
]

_TABLES = ("format_table", "rows_to_csv", "write_csv")
__getattr__ = lazy_exports(
    __name__, {name: "tables" if name in _TABLES else "serialize" for name in __all__}
)
