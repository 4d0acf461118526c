"""List the executable lines of ``src/`` that the test suite never runs.

Runs the suite in this process under ``sys.settrace`` and
``threading.settrace``, both set before anything imports ``phonoscribe``,
and counts a file's executable lines from its code objects' ``co_lines()``.
Lines run only in a child process are not seen. Any arguments go on to
pytest:

    python tests/line_reach.py
"""

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PREFIX = str(SRC) + "/"
reached: set[tuple[str, int]] = set()


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PREFIX):
        return None
    reached.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.settrace(trace)
    threading.settrace(trace)
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                          "--continue-on-collection-errors", str(ROOT),
                          *sys.argv[1:]])
    sys.settrace(None)
    threading.settrace(None)
    unreached = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(executable_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in reached:
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unreached} unreached line(s)")
    sys.exit(status)
