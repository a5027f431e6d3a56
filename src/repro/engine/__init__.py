"""Simulation engines for tree-PLRU IPV policies.

:mod:`repro.engine.columnar` is the numpy-columnar batch simulator: all
cache sets (and many IPV/config lanes) advance in lockstep over an access
trace, with the per-access policy math served by the precompiled
transition tables of :mod:`repro.kernels`.

:mod:`repro.engine.scalar` holds the one scalar loop,
:class:`ScalarStreamSimulator`: one lane fed in batches (a one-shot run
is a single ``feed``), with the inlined bit-walk as the reference and the
path for associativities without tables.  Its miss counts match the
columnar ``feed`` stream bit-for-bit.  The same module holds the
true-LRU-stack loop and the three-pass set-dueling run that
:func:`repro.eval.runner.run_trace` uses for whole-trace cells.
"""

from .columnar import (
    BatchSimulator,
    ColumnarTrace,
    DuelBatchSimulator,
    columnar_supported,
    simulate_misses_plru_columnar,
)
from .scalar import ScalarStreamSimulator

__all__ = [
    "BatchSimulator",
    "ColumnarTrace",
    "DuelBatchSimulator",
    "ScalarStreamSimulator",
    "columnar_supported",
    "simulate_misses_plru_columnar",
]
