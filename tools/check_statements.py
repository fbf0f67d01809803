"""List every statement in src/dremnet/ that no test executes.

Runs the tier-1 suite (pytest over tests/) in this process under
``sys.settrace`` and ``threading.settrace``, recording the lines that run in
the package's own files, and prints each statement none of whose lines ran,
as ``path:line: source``. A compound statement (``if``, ``for``, ``try``,
``def``, ...) counts as run when its header line runs or any statement in
its body does. Docstrings are exempt, and so is the
``if __name__ == "__main__":`` guard of ``__main__.py``, which runs only as
``python -m dremnet``, in a child process. Test outcomes are ignored here;
``tools/check_shortfalls.py`` judges them.

Run from anywhere: ``python tools/check_statements.py [pytest args]``; extra
arguments go to pytest. Exit status 0 when every statement ran, 1 when some
did not or pytest could not run the suite. Tracing makes the suite about
three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dremnet"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_main_guard(node: ast.stmt) -> bool:
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and [type(op) for op in test.ops] == [ast.Eq]
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


def _children(node: ast.AST) -> list[ast.stmt]:
    """The statements directly inside ``node``: bodies, else and finally blocks, and except handlers."""
    out = []
    for name in ("body", "orelse", "finalbody"):
        out.extend(getattr(node, name, []))
    for handler in getattr(node, "handlers", []):
        out.extend(handler.body)
    return out


def missed_statements(path: Path, ran: set[int]) -> list[ast.stmt]:
    """The statements of the file at ``path`` that no line of ``ran`` belongs to, outermost first."""
    tree = ast.parse(path.read_text(), str(path))
    missed = []

    def visit(node: ast.stmt, parent: ast.AST) -> bool:
        """Whether ``node`` ran; records it, or its missed inner statements, in ``missed``."""
        inner = _children(node)
        if inner:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            header = range(start, max(inner[0].lineno, node.lineno + 1))  # a one-line `if c: x` is all header
        else:
            header = range(node.lineno, node.end_lineno + 1)
        before = len(missed)
        body_ran = [visit(child, node) for child in inner if not _is_docstring(child, node)]
        if any(line in ran for line in header) or any(body_ran):
            return True
        del missed[before:]  # report the outermost statement that never ran, not each inside it
        missed.append(node)
        return False

    for node in tree.body:
        if _is_docstring(node, tree) or (path.name == "__main__.py" and _is_main_guard(node)):
            continue
        visit(node, tree)
    return missed


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per package file (resolved path), the line numbers that ran."""
    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str] = {}  # co_filename -> its resolved path in the package, or ""

    def lines(frame, event, arg):
        if event == "line":
            hits[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            resolved = Path(name).resolve()
            ours[name] = str(resolved) if resolved.parent == PACKAGE else ""
        return lines if ours[name] else None

    import pytest  # before tracing starts, so only the package's import is traced

    os.chdir(ROOT)
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    if "dremnet" in sys.modules:
        print("dremnet was imported before tracing started", file=sys.stderr)
        return 1
    status, hits = run_traced(argv)
    if status not in (0, 1):  # 1: some tests failed, which check_shortfalls.py judges
        print(f"pytest exited with status {status}", file=sys.stderr)
        return 1
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for node in missed_statements(path, hits.get(str(path.resolve()), set())):
            missed.append(f"{path.relative_to(ROOT)}:{node.lineno}: {source[node.lineno - 1].strip()}")
    print("\n".join(missed) if missed else "ok: every statement in src/dremnet/ ran under the suite")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
