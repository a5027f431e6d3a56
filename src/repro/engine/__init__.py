"""Simulation engines for tree-PLRU IPV policies.

:mod:`repro.engine.columnar` is the numpy-columnar batch simulator: all
cache sets (and many IPV lanes) advance in lockstep over an access
trace.  Every transition is a path write over the shared per-``k``
tables of :func:`repro.kernels.tables.base_tables`, so a lane compiles
nothing of its own, and a run returns miss counts (and, on request,
miss indices).

:mod:`repro.engine.scalar` holds the one scalar loop,
:class:`ScalarStreamSimulator`: one lane fed in batches (a one-shot run
is a single ``feed``), with the bit-walk of :mod:`repro.core.plru` as the
reference and the path for associativities without tables.  Its miss counts match the
columnar ``feed`` stream bit-for-bit.  The same module holds the
true-LRU-stack loop and the three-pass set-dueling run that
:func:`repro.eval.runner.run_trace` uses for whole-trace cells.
"""

from .columnar import (
    BatchSimulator,
    ColumnarTrace,
    columnar_supported,
    simulate_misses_plru_columnar,
)
from .scalar import ScalarStreamSimulator

__all__ = [
    "BatchSimulator",
    "ColumnarTrace",
    "ScalarStreamSimulator",
    "columnar_supported",
    "simulate_misses_plru_columnar",
]
