#!/usr/bin/env python3
"""Mutation testing of planwise, with the standard library and pytest only.

Run from the repository root:

    python3 scripts/mutate.py                        # the six modules below
    python3 scripts/mutate.py tree evaluate          # some of them

Each mutant swaps one operator in one module of ``src/planwise``: ``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, or ``+`` and ``-`` (also in
``+=``/``-=``). Operators inside ``raise`` statements only build messages
and are left alone. A mutant is killed when a test fails, errors or its
tests run longer than ``TIMEOUT_FACTOR`` times the untraced baseline of
step 1; it survives when every test that runs its line passes.

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

The last lines list the survivors as ``module:line  old -> new``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("evaluate", "discretize", "tree", "planners", "bellwether", "stats")
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-",
}
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
    """``(node, i)`` for each swappable operator outside ``raise`` statements,
    in source order; ``i`` indexes a comparison's operators, else is None."""
    in_raise = {id(n) for r in ast.walk(tree) if isinstance(r, ast.Raise) for n in ast.walk(r)}
    sites: list[tuple[ast.AST, int | None]] = []
    for node in ast.walk(tree):
        if id(node) in in_raise:
            continue
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            sites.append((node, None))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


def mutant(source: str, k: int) -> tuple[str, range, str]:
    """The ``k``-th mutant of ``source``: its code, the original lines of the
    mutated expression, and a description of the swap."""
    tree = ast.parse(source)
    node, i = mutation_sites(tree)[k]
    old = node.op if i is None else node.ops[i]
    new = SWAPS[type(old)]()
    if i is None:
        node.op = new
    else:
        node.ops[i] = new
    lines = range(node.lineno, node.end_lineno + 1)
    return ast.unparse(tree), lines, f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


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
    args = parser.parse_args(argv)
    # SIGTERM as SystemExit, so the running pytest is killed and the copy removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for name in args.modules:
        if not (ROOT / "src" / "planwise" / f"{name}.py").is_file():
            parser.error(f"no module src/planwise/{name}.py")

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
            for k in range(len(mutation_sites(ast.parse(sources[name])))):
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
