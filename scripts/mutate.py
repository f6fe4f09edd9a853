#!/usr/bin/env python3
"""Mutation testing of planwise, with the standard library and pytest only.

Run from the repository root:

    python3 scripts/mutate.py                        # the nine modules below
    python3 scripts/mutate.py tree evaluate          # some of them
    python3 scripts/mutate.py --since HEAD~1         # lines changed since a commit

Each mutant swaps one operator in one module of ``src/planwise``: ``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``+``
and ``-``, ``*`` and ``/``, ``&`` and ``|``, ``<<`` and ``>>`` (also in
augmented assignments such as ``+=``), or ``and`` and ``or``; or it calls
``max`` for ``min`` or ``min`` for ``max``; or it drops a ``not``, so that
``not x`` becomes ``x``; or it moves an integer constant 0, 1 or 2 down or
up by one, in two mutants (``0`` becomes ``-1`` and ``1``). Operators and
constants inside ``raise`` statements only build messages, and those inside
annotations are never evaluated (the modules import ``annotations`` from
``__future__``): both are left alone.
A mutant is killed when a test fails, errors or its tests run longer than
``TIMEOUT_FACTOR`` times the untraced baseline of step 1; it survives when
every test that runs its line passes.

Everything happens in a temporary copy of ``src``, ``tests``,
``benchmarks``, ``scripts`` and ``pyproject.toml``, without bytecode
caches. Three steps:

1. The tests run once untraced on the modules as ``ast.unparse`` writes
   them, which is how mutants are written. A test that fails there is left
   out of the mutant runs and listed.
2. The tests run once under a ``sys.settrace`` line tracer, which records
   the lines of ``src/planwise`` each test runs. The tracer's closures hold
   frames, so the tests asserting that a call leaves no garbage cycle fail
   in this pass; its verdicts are ignored, only its coverage is kept.
3. Each mutant runs, untraced, the tests that ran its lines, stopping at the
   first failure; a mutant of a line that runs at import, before the first
   test, runs every test. A mutant whose lines nothing runs is reported
   uncovered.

With ``--since REV`` only the operators on lines that ``git diff -U0 REV``
reports as added or changed in the working tree are mutated, so a change
pays only for its own lines; a run with no such operator runs no test.

The last lines list the survivors as ``module:line  old -> new``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = (
    "evaluate", "discretize", "tree", "planners", "refactorings", "bellwether", "stats",
    "datasets", "cli",
)
# Each operator and the one its mutant puts in its place; None drops it.
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And, ast.Not: None,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-",
    ast.Mult: "*", ast.Div: "/",
    ast.BitAnd: "&", ast.BitOr: "|", ast.LShift: "<<", ast.RShift: ">>",
    ast.And: "and", ast.Or: "or", ast.Not: "not", None: "(dropped)",
}
# Builtins whose calls a mutant swaps by name.
CALL_SWAPS = {"min": "max", "max": "min"}
# Integer constants a mutant moves by -1 and by +1.
MOVED_INTS = (0, 1, 2)
# A mutant's tests may run this many times as long as the whole untraced
# suite; longer counts as killed (a mutated loop bound may never end).
TIMEOUT_FACTOR = 3
# Set in the pytest children: where the plugin below writes its report, and
# whether it traces lines.
REPORT_ENV, TRACE_ENV = "MUTATE_REPORT", "MUTATE_TRACE"
# Stands for the lines that run while pytest starts and collects, such as
# module-level constants: every test may depend on them.
COLLECTION = "<collection>"


def mutation_sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """``(node, i)`` for each swappable operator, each ``not``, each call
    of ``min`` or ``max`` and, twice, each integer constant of
    ``MOVED_INTS`` outside ``raise`` statements and annotations, in source
    order; ``i`` indexes a comparison's operators, or is a constant's move
    (-1 or +1), else is None."""
    skipped = [r for r in ast.walk(tree) if isinstance(r, ast.Raise)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            skipped.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped.append(node.returns)
    left_alone = {id(n) for r in skipped if r is not None for n in ast.walk(r)}
    sites: list[tuple[ast.AST, int | None]] = []
    for node in ast.walk(tree):
        if id(node) in left_alone:
            continue
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif (isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp, ast.UnaryOp))
              and type(node.op) in SWAPS):
            sites.append((node, None))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in CALL_SWAPS):
            sites.append((node, None))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in MOVED_INTS):
            sites += [(node, -1), (node, 1)]
    # Stable: at one position, the outer node first, then its operators or moves in order.
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset))


class _Replace(ast.NodeTransformer):
    """Puts ``new`` where the node ``old`` stands in a tree."""

    def __init__(self, old: ast.AST, new: ast.AST):
        self.old, self.new = old, new

    def visit(self, node: ast.AST) -> ast.AST:
        return self.new if node is self.old else self.generic_visit(node)


def mutant(source: str, k: int) -> tuple[str, range, str]:
    """The ``k``-th mutant of ``source``: its code, the original lines of the
    mutated expression, and a description of the swap."""
    tree = ast.parse(source)
    node, i = mutation_sites(tree)[k]
    lines = range(node.lineno, node.end_lineno + 1)
    if isinstance(node, ast.Call):
        old_name = node.func.id
        node.func.id = CALL_SWAPS[old_name]
        return ast.unparse(tree), lines, f"{old_name} -> {node.func.id}"
    if isinstance(node, ast.Constant):
        moved = node.value + i
        # -1 as the parser reads it, so ``ast.unparse`` keeps its precedence.
        new_node = ast.UnaryOp(ast.USub(), ast.Constant(1)) if moved < 0 else ast.Constant(moved)
        _Replace(node, new_node).visit(tree)
        return ast.unparse(tree), lines, f"{node.value} -> {moved}"
    old = node.op if i is None else node.ops[i]
    new = SWAPS[type(old)]
    if new is None:  # a dropped ``not``: its operand takes its place
        _Replace(node, node.operand).visit(tree)
    elif i is None:
        node.op = new()
    else:
        node.ops[i] = new()
    return ast.unparse(tree), lines, f"{SYMBOLS[type(old)]} -> {SYMBOLS[new]}"


def changed_lines(diff: str) -> dict[str, set[int]]:
    """Each file's new-side line numbers that a ``git diff -U0`` text adds or
    changes, keyed by the path after ``b/``; a deleted file has none. A
    hunk's lines are counted off its header, so a removed ``-- x`` or an
    added ``++ x`` is never read as a file header."""
    changed: dict[str, set[int]] = {}
    lines, unread = None, 0
    for line in diff.splitlines():
        if line.startswith("\\"):  # "\ No newline at end of file"
            continue
        if unread:
            unread -= 1
        elif line.startswith("+++ "):
            path = line[4:]
            lines = changed.setdefault(path[2:], set()) if path.startswith("b/") else None
        elif line.startswith("@@ "):
            counts = re.match(r"@@ -\d+(,\d+)? \+(\d+)(,\d+)? @@", line).groups()
            old, start, new = (1 if c is None else int(c.lstrip(",")) for c in counts)
            unread = old + new
            if lines is not None:
                lines.update(range(start, start + new))
    return changed


def git_changed_lines(rev: str) -> dict[str, set[int]]:
    """``changed_lines`` of the working tree's ``src/planwise`` against ``rev``."""
    diff = subprocess.run(
        ["git", "diff", "--no-color", "--no-ext-diff", "-U0", "--src-prefix=a/",
         "--dst-prefix=b/", rev, "--", "src/planwise"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return changed_lines(diff)


def run_pytest(work: Path, args: list[str], timeout: float, trace: bool = False):
    """Run pytest in ``work`` with this file as a plugin; returns the exit
    code (None on timeout) and the plugin's report."""
    report = work / "report.json"
    report.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLANWISE_")}
    env.update(PYTHONPATH=str(Path(__file__).resolve().parent), PYTHONDONTWRITEBYTECODE="1",
               **{REPORT_ENV: str(report), TRACE_ENV: "1" if trace else ""})
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutate", *args]
    try:
        code = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None, {}
    return code, json.loads(report.read_text()) if report.exists() else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", default=list(MODULES),
                        help=f"modules of src/planwise to mutate (default: {' '.join(MODULES)})")
    parser.add_argument("--since", metavar="REV",
                        help="mutate only the lines changed since this git revision")
    args = parser.parse_args(argv)
    # SIGTERM as SystemExit, so the running pytest is killed and the copy removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for name in args.modules:
        if not (ROOT / "src" / "planwise" / f"{name}.py").is_file():
            parser.error(f"no module src/planwise/{name}.py")
    changed = None
    if args.since is not None:
        try:
            changed = git_changed_lines(args.since)
        except subprocess.CalledProcessError as exc:
            parser.error(f"git diff {args.since}: {exc.stderr.strip()}")
    # Each module's mutation sites by index; all of them without --since.
    picked = {}
    for name in args.modules:
        sites = mutation_sites(ast.parse((ROOT / "src" / "planwise" / f"{name}.py").read_text()))
        lines = None if changed is None else changed.get(f"src/planwise/{name}.py", set())
        picked[name] = [k for k, (node, _) in enumerate(sites) if lines is None
                        or not lines.isdisjoint(range(node.lineno, node.end_lineno + 1))]
    if changed is not None and not any(picked.values()):
        print(f"mutate: no mutation site on the lines changed since {args.since}")
        return 0

    with tempfile.TemporaryDirectory(prefix="planwise-mutate-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "data", ".bench_*")
        # Some tests read the bench corpus or load a script.
        for tree in ("src", "tests", "benchmarks", "scripts"):
            shutil.copytree(ROOT / tree, work / tree, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        paths = {name: work / "src" / "planwise" / f"{name}.py" for name in args.modules}
        sources = {name: path.read_text() for name, path in paths.items()}

        for name, path in paths.items():
            path.write_text(ast.unparse(ast.parse(sources[name])))
        start = time.monotonic()
        code, report = run_pytest(work, [], timeout=3600)
        timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        failing = set(report.get("failed", []))
        if code is None or not report.get("lines"):
            print("mutate: the unmutated tests did not run", file=sys.stderr)
            return 2
        for test in sorted(failing):
            print(f"left out, fails on unparsed modules: {test}")
        for name, path in paths.items():
            path.write_text(sources[name])
        _, report = run_pytest(work, [], timeout=3600, trace=True)
        covering: dict[tuple[str, int], set[str]] = {}
        for test, hits in report.get("lines", {}).items():
            if test not in failing:
                for name, line in hits:
                    covering.setdefault((name, line), set()).add(test)

        survivors, total = [], 0
        for name, path in paths.items():
            for k in picked[name]:
                code_text, lines, swap = mutant(sources[name], k)
                tests = set().union(*(covering.get((name, n), set()) for n in lines))
                where = f"{name}:{lines.start}  {swap}"
                total += 1
                if not tests:
                    print(f"UNCOVERED {where}", flush=True)
                    survivors.append(where + "  (no test runs it)")
                    continue
                if COLLECTION in tests:
                    selection = [arg for test in sorted(failing) for arg in ("--deselect", test)]
                else:
                    selection = sorted(tests)
                path.write_text(code_text)
                code, _ = run_pytest(work, ["-x", *selection], timeout=timeout)
                path.write_text(sources[name])
                verdict = "SURVIVED" if code == 0 else "killed  "
                count = "all tests" if COLLECTION in tests else f"{len(tests)} tests"
                print(f"{verdict} {where}  ({count})", flush=True)
                if code == 0:
                    survivors.append(where)
        print(f"\n{len(survivors)} of {total} mutants survive:")
        for where in survivors:
            print(f"  {where}")
    return 0


# pytest plugin, loaded in the children with ``-p mutate``: records failed
# tests and, with tracing on, the planwise lines each test runs.
_lines: dict[str, set[tuple[str, int]]] = {}
_failed: list[str] = []


def _line_tracer(hits: set[tuple[str, int]], package: str):
    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    return on_call


def pytest_collection_finish(session):
    sys.settrace(None)


def pytest_runtest_logstart(nodeid, location):
    hits = _lines.setdefault(nodeid, set())
    if os.environ.get(TRACE_ENV):
        sys.settrace(_line_tracer(hits, str(Path.cwd() / "src" / "planwise")))


def pytest_runtest_logfinish(nodeid, location):
    sys.settrace(None)


def pytest_runtest_logreport(report):
    if report.failed:
        _failed.append(report.nodeid)


def pytest_sessionfinish(session, exitstatus):
    path = os.environ.get(REPORT_ENV)
    if path:
        lines = {test: sorted((Path(file).stem, line) for file, line in hits)
                 for test, hits in _lines.items()}
        Path(path).write_text(json.dumps({"failed": _failed, "lines": lines}))


if __name__ == "__main__":
    sys.exit(main())
elif os.environ.get(TRACE_ENV):
    # Loaded with -p before any conftest: trace what runs until collection ends.
    sys.settrace(_line_tracer(_lines.setdefault(COLLECTION, set()),
                              str(Path.cwd() / "src" / "planwise")))
