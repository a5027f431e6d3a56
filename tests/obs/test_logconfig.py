"""Central logging configuration."""

import io
import logging

import pytest

from repro.obs import configure_logging
from repro.obs.logconfig import verbosity_to_level


def _cli_handlers():
    return [h for h in logging.getLogger("repro").handlers
            if getattr(h, "_repro_cli", False)]


class TestConfigureLogging:
    def test_default_level_is_info(self):
        logger = configure_logging()
        assert logger.level == logging.INFO

    def test_verbose_raises_to_debug(self):
        assert configure_logging(verbose=1).level == logging.DEBUG
        assert verbosity_to_level(0) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG

    def test_string_level(self):
        assert configure_logging(level="warning").level == logging.WARNING
        with pytest.raises(ValueError):
            configure_logging(level="chatty")

    def test_idempotent_no_duplicate_handlers(self):
        configure_logging()
        configure_logging()
        configure_logging(verbose=1)
        assert len(_cli_handlers()) == 1

    def test_messages_reach_the_stream(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        logging.getLogger("repro.eval.parallel").info("hello matrix")
        out = stream.getvalue()
        assert "hello matrix" in out
        assert "repro.eval.parallel" in out

    def test_debug_suppressed_at_info(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        logging.getLogger("repro.obs").debug("invisible")
        assert stream.getvalue() == ""
