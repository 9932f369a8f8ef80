"""Print the lines of ``src/encsum`` that the golden run never executes.

From the root of a checkout::

    python3 tests/unreached_lines.py

It runs ``tests/test_golden.py``'s ``golden_run`` once, in a temporary
directory, under a ``sys.settrace`` line trace that starts before
``encsum`` is imported, so module-level lines count too. A line counts as
executable when a compiled code object of its module maps bytecode to it.
This is a report, not a test and not a gate: it exits 0 whatever it prints.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "encsum"
ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(SRC)) else None


def executable(path: Path) -> set[int]:
    """The lines of ``path`` to which its compiled code maps bytecode."""
    lines, stack = set(), [compile(path.read_text("utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # A code object's first line holds only its set-up, which fires no line event.
        lines.update(line for _, _, line in code.co_lines() if line and line != code.co_firstlineno)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.settrace(_calls)
    from tests.test_golden import golden_run

    with tempfile.TemporaryDirectory() as tmp:
        golden_run(Path(tmp))
    sys.settrace(None)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable(path)
        unreached = sorted(lines - {n for f, n in ran if f == str(path)})
        total, missed = total + len(lines), missed + len(unreached)
        for n in unreached:
            print(f"{path.relative_to(ROOT)}:{n}: {path.read_text('utf-8').splitlines()[n - 1].strip()}")
    print(f"{total - missed} of {total} executable src/ lines ran")
