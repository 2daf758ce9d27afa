"""Structured, process-aware logging for the serving tier.

One logger hierarchy (``repro.serving``) for the server process.  Each
record is prefixed with the emitting process id, which keeps output
attributable when several processes share one stream — the same
per-process discipline as syncopy's ``shared/log.py``.

The level comes from the ``REPRO_LOG_LEVEL`` environment variable
(``DEBUG``/``INFO``/``WARNING``/``ERROR``, default ``INFO``), read at
configure time so operators tune verbosity without touching flags.
:func:`configure` is idempotent: calling it again replaces the handler.

Lines a machine consumes stay machine-consumable: the CI smoke jobs
parse the "listening on host:port" banner out of this logger's output,
so the message format keeps the payload verbatim after the prefix.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import IO, Optional

__all__ = ["LEVEL_ENV", "configure", "get_logger", "level_from_env"]

#: Environment variable naming the serving log level.
LEVEL_ENV = "REPRO_LOG_LEVEL"

#: Root of the serving logger hierarchy.
_LOGGER_NAME = "repro.serving"

#: Every record carries the emitting pid.
_FORMAT = "[%(process)d] %(levelname)s %(name)s: %(message)s"

#: Whether :func:`configure` has run in this process.
_configured = False


def level_from_env(default: int = logging.INFO) -> int:
    """The level named by :data:`LEVEL_ENV`, or ``default``.

    Unknown names fall back to the default rather than raising — a
    typo in an operator's environment must not stop a server.
    """
    name = os.environ.get(LEVEL_ENV, "").strip().upper()
    if not name:
        return default
    level = logging.getLevelName(name)
    return level if isinstance(level, int) else default


def configure(
    stream: Optional[IO[str]] = None,
    level: Optional[int] = None,
) -> logging.Logger:
    """Attach the serving handler to ``stream`` (default: stdout).

    Replaces any handler a previous :func:`configure` installed, so
    pointing a test at its own buffer never double-logs.  Returns the
    configured logger.
    """
    global _configured
    logger = logging.getLogger(_LOGGER_NAME)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stdout)
    handler.setFormatter(logging.Formatter(_FORMAT))
    logger.addHandler(handler)
    logger.setLevel(level if level is not None else level_from_env())
    logger.propagate = False
    _configured = True
    return logger


def get_logger(child: Optional[str] = None) -> logging.Logger:
    """The serving logger (configured on first use in this process).

    ``child`` scopes the name (``repro.serving.<child>``); the server
    passes ``"server"`` so origin is visible even before the pid prefix
    is correlated.
    """
    if not _configured:
        configure()
    name = _LOGGER_NAME if not child else f"{_LOGGER_NAME}.{child}"
    return logging.getLogger(name)
