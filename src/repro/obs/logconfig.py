"""The ``repro`` logger hierarchy and its one-call configuration.

Library modules log through ``logging.getLogger(__name__)``, which
lands everything under the ``repro`` root logger — callers control
the whole reproduction's verbosity with one dial.  The library itself
never installs handlers (standard library etiquette); the CLI calls
:func:`configure_logging` with the ``--log-level`` flag, and embedding
applications configure logging however they already do.
"""

from __future__ import annotations

import logging
import sys
from typing import Union

#: Root of the library's logger hierarchy.
ROOT_LOGGER = "repro"

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def configure_logging(level: Union[int, str] = "warning"
                      ) -> logging.Logger:
    """Point the ``repro`` hierarchy at one stderr handler.

    Idempotent: repeated calls reconfigure the same handler instead of
    stacking duplicates.  Returns the root ``repro`` logger.  The
    handler writes to ``sys.stderr`` so CLI stdout stays
    machine-parseable.

    Args:
        level: Name (``"debug"`` .. ``"critical"``) or numeric level.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(level)
    logger.propagate = False
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    for existing in list(logger.handlers):
        logger.removeHandler(existing)
    logger.addHandler(handler)
    return logger
