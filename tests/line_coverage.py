"""Run tier-1 under a line tracer: every statement of src/kdvbwaves runs, or is listed.

    PYTHONPATH=src python tests/line_coverage.py

Tier-1 runs in this process under ``sys.settrace``, recording the lines that
run in the files of ``src/kdvbwaves``, in this process and in the children
it forks; the statements come from ``ast``.  A
statement counts as run when any line of it does (for a ``def``, any line of
its body).  Of the statements that never run, only the outermost is reported,
and of consecutive siblings that never run only the first (a ``def`` ends
such a run).  The step fails when tier-1
fails, when a reported statement is not in UNEXECUTED, when a statement in
UNEXECUTED is not reported (so the list cannot go stale), and when an entry's
first line is shared by another statement of its function (so it names one
statement).  Entries name the file, the enclosing function and the
statement's first line, never a line number.  Standard library only besides
pytest; it takes about twice as long as tier-1.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kdvbwaves"
# (file, enclosing function, first line of the statement, why no tier-1 test runs it in process)
UNEXECUTED = (
    ("cli.py", "<module>", "entrypoint()",
     "python -m kdvbwaves.cli, which tier-1 starts only as a subprocess"),
)


def _report_forked_children(hits: dict[str, set[int]], folder: str) -> None:
    """Make each child forked from now on write the lines it ran to a file in ``folder``.

    The child inherits the tracer and ``hits``, which it empties; it leaves by
    os._exit, which skips every cleanup, so it writes its lines with os.write
    just before, one "file line" record a line.
    """
    def in_child() -> None:
        for lines in hits.values():
            lines.clear()
        leave = os._exit

        def report_and_leave(code: int) -> None:
            text = "".join(f"{name} {n}\n" for name, lines in hits.items() for n in lines)
            fd = os.open(os.path.join(folder, str(os.getpid())),
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(fd, text.encode())
            os.close(fd)
            leave(code)
        os._exit = report_and_leave
    os.register_at_fork(after_in_child=in_child)


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each file of the package, by file name,
    forked children's included."""
    hits: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None outside the package

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = hits.setdefault(path.name, set()) if path.parent == PACKAGE else None
        lines = files[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    with tempfile.TemporaryDirectory() as folder:
        _report_forked_children(hits, folder)
        sys.settrace(trace)
        try:
            code = pytest.main(["-q", "--continue-on-collection-errors"])
        finally:
            sys.settrace(None)
        for report in Path(folder).iterdir():
            for record in report.read_text(encoding="utf-8").splitlines():
                name, n = record.split()
                hits.setdefault(name, set()).add(int(n))
    return int(code), hits


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_constant(node: ast.stmt) -> bool:
    # a docstring or a bare constant compiles to no line of its own
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def _lines(node: ast.stmt) -> range:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        body = [stmt for stmt in node.body if not _is_constant(stmt)] or node.body
        return range(body[0].lineno, node.end_lineno + 1)
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(start, node.end_lineno + 1)


def _children(node: ast.stmt):
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, []):
            if isinstance(child, ast.stmt):
                yield child
            else:  # an except handler or a match case
                yield from child.body


def survey(path: Path, hits: set[int]) -> tuple[Counter, list[tuple[str, str, int]]]:
    """How many statements share each (enclosing function, first line), and
    (enclosing function, first line, line number) of each statement reported as never run."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    keys: Counter = Counter()
    found = []

    def walk(statements, scope: str, report: bool) -> None:
        previous_ran = True
        for node in statements:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or _is_constant(node):
                continue
            key = (scope, text[node.lineno - 1].strip())
            keys[key] += 1
            ran = not hits.isdisjoint(_lines(node))
            if report and not ran and previous_ran:
                found.append((*key, node.lineno))
            # a def whose body never runs still binds its name, so the next sibling may run
            previous_ran = ran or isinstance(node, _DEFS)
            inner = scope
            if isinstance(node, _DEFS):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            walk(_children(node), inner, report and ran)

    walk(ast.parse(source, str(path)).body, "<module>", True)
    return keys, found


def main() -> int:
    code, hits = run_traced()
    listed = {(file, scope, statement) for file, scope, statement, _ in UNEXECUTED}
    seen = set()
    unlisted = []
    shared = []
    for path in sorted(PACKAGE.glob("*.py")):
        keys, found = survey(path, hits.get(path.name, set()))
        for scope, statement, lineno in found:
            seen.add((path.name, scope, statement))
            if (path.name, scope, statement) not in listed:
                unlisted.append(f"{path.relative_to(ROOT)}:{lineno}: {scope}: {statement}")
        shared += [f"{file}: {scope}: {statement}" for file, scope, statement in sorted(listed)
                   if file == path.name and keys[scope, statement] > 1]
    stale = [f"{file}: {scope}: {statement}" for file, scope, statement in sorted(listed - seen)]
    for line in unlisted:
        print(f"never run and not listed: {line}")
    for line in stale:
        print(f"listed but not reported as never run: {line}")
    for line in shared:
        print(f"listed but not the only statement with that first line in its function: {line}")
    print(f"line coverage: {len(unlisted)} unlisted statement(s) never run, "
          f"{len(stale)} listed statement(s) not reported, {len(shared)} listed statement(s) "
          f"not unique, tier-1 exit {code}")
    return 1 if code or unlisted or stale or shared else 0

if __name__ == "__main__":
    sys.exit(main())
