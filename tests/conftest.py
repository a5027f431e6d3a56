"""Shared pytest configuration.

Registers hypothesis settings profiles so the property tests
(``tests/test_properties.py``) are reproducible where it matters:

``default``
    The stock profile for local development — random exploration finds
    new counterexamples.
``ci``
    Derandomized and database-free: every CI run executes the identical
    example sequence, so a red build is always reproducible locally with
    ``REPRO_HYPOTHESIS_PROFILE=ci`` and never depends on a shared example
    database.  Selected automatically when ``CI`` is set in the
    environment, or explicitly via ``REPRO_HYPOTHESIS_PROFILE``.

Hypothesis itself is optional (the ``test``/``dev`` extras provide it);
without it the property tests skip and the profiles are not registered.

Every test also runs with the ``repro`` logger restored afterwards.
``repro.cli.main`` calls ``configure_logging``, which turns propagation
off and binds a handler to the stderr of the moment — under pytest, a
captured stream that is closed once that test ends.  Without the restore,
a later test's ``caplog`` check on a ``repro.*`` logger sees nothing and
logging writes to the closed stream.

The ``fresh_tmpdir`` fixture gives a test an empty ``TMPDIR`` that
spawned worker processes inherit, so it can check that a run leaves no
files behind.
"""

import logging
import os
import tempfile

import pytest

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - property tests skip anyway
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, database=None,
                              max_examples=100, deadline=None)
    settings.register_profile("dev", max_examples=25)
    _profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE")
    if _profile is None and os.environ.get("CI"):
        _profile = "ci"
    if _profile is not None:
        settings.load_profile(_profile)


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    yield
    logger.handlers, logger.level, logger.propagate = saved


@pytest.fixture
def fresh_tmpdir(tmp_path, monkeypatch):
    """An empty directory as ``TMPDIR`` for this process and its spawns."""
    fresh = tmp_path / "tmpdir"
    fresh.mkdir()
    monkeypatch.setenv("TMPDIR", str(fresh))  # spawned workers read this
    monkeypatch.setattr(tempfile, "tempdir", None)  # this process re-reads it
    return fresh
