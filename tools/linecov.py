"""Statement lines of one module that a run never executes.

A standard-library line tracer (``sys.settrace``) for showing which code an
input reaches.  It runs pytest in this process, or a given script, and then
prints every statement line of the target module that never executed:

    python tools/linecov.py src/avdcolor/partition.py            # pytest -q
    python tools/linecov.py src/avdcolor/partition.py -- -q tests/test_cli.py
    python tools/linecov.py src/avdcolor/partition.py --script sweep.py -- ARGS

Arguments after ``--`` go to pytest or to the script.

Run it with the package importable (``PYTHONPATH=src`` or an editable
install).  Only this process is traced, so code that a test runs in a
subprocess counts as never executed.  The exit code is pytest's or the
script's.
"""

from __future__ import annotations

import argparse
import ast
import os
import runpy
import sys
import threading


def statement_lines(path: str) -> set[int]:
    """First lines of the statements in ``path`` that compile to bytecode.

    Docstrings, ``global`` declarations and the like have no bytecode and so
    can never report a line event; they are left out.
    """
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    stmts = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.stmt)}
    code_lines: set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines()
                          if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return stmts & code_lines


def run_traced(path: str, body) -> tuple[set[int], object]:
    """Call ``body()`` under a line tracer; return the lines of ``path``
    that executed, and ``body``'s result."""
    target = os.path.realpath(path)
    seen: set[int] = set()
    matches: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        hit = matches.get(name)
        if hit is None:
            hit = matches[name] = os.path.realpath(name) == target
        return local if hit else None

    old = sys.gettrace()
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        result = body()
    finally:
        sys.settrace(old)
        threading.settrace(old)
    return seen, result


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(
        description="Print the statement lines of one module that a pytest "
                    "run or a script never executes.",
        epilog="Arguments after -- go to pytest or to the script.")
    parser.add_argument("module", help="path of the module source file")
    parser.add_argument("--script", help="run this script instead of pytest")
    ns = parser.parse_args(argv)

    if ns.script:
        def body():
            saved = sys.argv
            sys.argv = [ns.script, *args]
            try:
                runpy.run_path(ns.script, run_name="__main__")
            except SystemExit as exc:
                if isinstance(exc.code, int):
                    return exc.code
                return int(exc.code is not None)
            finally:
                sys.argv = saved
            return 0
    else:
        import pytest

        def body():
            return int(pytest.main(args or ["-q"]))

    seen, code = run_traced(ns.module, body)
    lines = statement_lines(ns.module)
    missed = sorted(lines - seen)
    with open(ns.module, encoding="utf-8") as fh:
        source = fh.read().splitlines()
    print(f"{ns.module}: {len(missed)} of {len(lines)} statement lines "
          "never executed")
    for line in missed:
        print(f"{ns.module}:{line}: {source[line - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
