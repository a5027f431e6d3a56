"""Transition-table kernels: O(1) lookup replacements for the PLRU walks.

See :mod:`repro.kernels.tables` for the design.  Quick use::

    from repro.kernels import compile_tables

    t = compile_tables(16, ipv.entries)   # None -> fall back to bit walks
    new_state = t.hit[(state << t.log2k) | way]

``docs/PERFORMANCE.md`` documents the table layout, memory cost, the
compile cache and measured speedups; ``make bench-kernels`` regenerates
``BENCH_kernels.json`` and ``make smoke-kernels`` runs the fast
equivalence + throughput gate.
"""

from .tables import (
    KERNEL_CACHE_CAPACITY,
    KernelTables,
    MAX_TABLE_ASSOC,
    base_tables,
    clear_kernel_cache,
    compile_tables,
    kernel_cache_info,
    kernel_counters,
    kernel_provenance,
    record_kernel_call,
    reset_kernel_counters,
    resolve_kernel,
    tables_supported,
)

__all__ = [
    "KERNEL_CACHE_CAPACITY",
    "KernelTables",
    "MAX_TABLE_ASSOC",
    "base_tables",
    "clear_kernel_cache",
    "compile_tables",
    "kernel_cache_info",
    "kernel_counters",
    "kernel_provenance",
    "record_kernel_call",
    "reset_kernel_counters",
    "resolve_kernel",
    "tables_supported",
]
