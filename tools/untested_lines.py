"""List the statements of src/skillpack that the tier-1 tests never run.

Runs the tests in this process under a line tracer limited to
src/skillpack/*.py, then prints `module:line: statement` for each statement
none of whose lines ran (defs, imports and docstrings are left out), and
the count. A line tracer slows the tests several-fold. Usage:

    python tools/untested_lines.py [extra pytest arguments]

The exit status is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "skillpack"
LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def main() -> int:
    # module path -> one byte per line, set when the line ran; code file name -> that, or None outside SRC.
    # Each is allocated when its file is first seen, so recording a line allocates nothing inside a
    # test's tracemalloc window.
    ran, files = {}, {}

    def line(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename][frame.f_lineno] = 1
        return line

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = ran.setdefault(path, bytearray(path.read_bytes().count(b"\n") + 2)) \
                if path.parent == SRC else None
        return None if files[name] is None else line

    os.chdir(ROOT)
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(SRC.glob("*.py")):
        source, lines = path.read_text(), ran.get(path, b"")
        for node in ast.walk(ast.parse(source)):
            docstring = isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)
            if isinstance(node, ast.stmt) and not isinstance(node, LEFT_OUT) and not docstring \
                    and not any(lines[node.lineno : node.end_lineno + 1]):
                missed.append((path.name, node.lineno, source.splitlines()[node.lineno - 1].strip()))
    for name, number, statement in sorted(missed):
        print(f"{name}:{number}: {statement}")
    print(f"{len(missed)} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
