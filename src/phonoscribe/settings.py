"""Value checks shared by the settable settings classes (``ModelConfig``,
``FeatureNorm``, ``TrainConfig``; ``FeatureConfig`` is pinned and has none
to check). Settings arrive as JSON, from a config file or a checkpoint's
meta, where true, 2.5, "3" or 1e999 can stand wherever an integer or a
number is meant. ``printable`` renders a file name or key from such input
for a one-line message."""

from __future__ import annotations

import sys


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int or float, not a bool, that is finite as a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def printable(value) -> str:
    """``str(value)`` with line breaks and other unprintable characters
    escaped as ``repr`` escapes them, so a message naming it stays one
    line; an ordinary path or key prints unchanged."""
    return repr(str(value))[1:-1]
