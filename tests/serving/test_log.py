"""Tests for the serving tier's process-aware logging."""

import io
import logging
import os

import pytest

from repro.serving import log


@pytest.fixture(autouse=True)
def _isolated_logger():
    """Leave the shared logger unconfigured for the next test."""
    yield
    logger = logging.getLogger("repro.serving")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    log._configured = False


class TestLevelFromEnv:
    def test_default_is_info(self, monkeypatch):
        monkeypatch.delenv(log.LEVEL_ENV, raising=False)
        assert log.level_from_env() == logging.INFO

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("DEBUG", logging.DEBUG),
            ("info", logging.INFO),
            ("Warning", logging.WARNING),
            ("ERROR", logging.ERROR),
        ],
    )
    def test_named_levels(self, monkeypatch, name, expected):
        monkeypatch.setenv(log.LEVEL_ENV, name)
        assert log.level_from_env() == expected

    def test_unknown_name_falls_back(self, monkeypatch):
        monkeypatch.setenv(log.LEVEL_ENV, "LOUD")
        assert log.level_from_env() == logging.INFO
        assert log.level_from_env(default=logging.ERROR) == logging.ERROR


class TestConfigure:
    def test_records_carry_the_pid_prefix(self):
        buf = io.StringIO()
        logger = log.configure(stream=buf)
        logger.info("listening on 127.0.0.1:8642")
        line = buf.getvalue().strip()
        assert line == (
            f"[{os.getpid()}] INFO repro.serving: listening on 127.0.0.1:8642"
        )

    def test_env_level_applies(self, monkeypatch):
        monkeypatch.setenv(log.LEVEL_ENV, "WARNING")
        buf = io.StringIO()
        logger = log.configure(stream=buf)
        logger.info("suppressed")
        logger.warning("kept")
        assert "suppressed" not in buf.getvalue()
        assert "kept" in buf.getvalue()

    def test_explicit_level_beats_env(self, monkeypatch):
        monkeypatch.setenv(log.LEVEL_ENV, "ERROR")
        buf = io.StringIO()
        logger = log.configure(stream=buf, level=logging.DEBUG)
        logger.debug("visible")
        assert "visible" in buf.getvalue()

    def test_reconfigure_does_not_double_log(self):
        first = io.StringIO()
        second = io.StringIO()
        log.configure(stream=first)
        logger = log.configure(stream=second)
        logger.info("once")
        assert first.getvalue() == ""
        assert second.getvalue().count("once") == 1

    def test_no_propagation_to_root(self, caplog):
        buf = io.StringIO()
        logger = log.configure(stream=buf)
        with caplog.at_level(logging.INFO):
            logger.info("stays in the serving handler")
        assert "stays in the serving handler" not in caplog.text


class TestGetLogger:
    def test_auto_configures_once_per_process(self):
        logger = log.get_logger()
        assert logging.getLogger("repro.serving").handlers

        assert logger.name == "repro.serving"

    def test_child_scoping(self):
        log.configure(stream=io.StringIO())
        assert log.get_logger("worker").name == "repro.serving.worker"

    def test_child_records_flow_through_parent_handler(self):
        buf = io.StringIO()
        log.configure(stream=buf)
        log.get_logger("worker").info("worker 1: served 3 requests")
        line = buf.getvalue()
        assert "repro.serving.worker" in line
        assert f"[{os.getpid()}]" in line
