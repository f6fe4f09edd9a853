#!/usr/bin/env python3
"""Benchmark planwise end to end through its CLI, and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload within --seed 1 --seconds 10 --trace 0

The seed generates synthetic communities (see corpus.py) in a working
directory under ``.bench_tmp/``. The workload's CLI command then runs as a
subprocess in a closed loop (one client; the next invocation starts only
after the previous one ended) for ``--seconds`` and at least two turns
on each corpus. Every invocation's outputs are hashed; the first one's are
checked against expectations derived from the generated CSVs, and any
later invocation whose digest differs counts as failed.

``--trace 1`` adds one in-process run of the same command with planwise's
public functions wrapped by tracer.py, and reports per-layer metrics
instead of end-to-end ones. Names and units of all metrics come from
BENCHMARK.json. The last line of standard output is the JSON result; a run
record and the spans land in ``.bench_out/``.
"""

from __future__ import annotations

import os

# One core per workload: keep numpy's BLAS single-threaded, in this process
# (traced run) and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import corpus as corpus_gen
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

ENTRY = "import sys; from planwise.cli import main; sys.exit(main())"
# Invocations rotate over this many communities generated from one seed, so
# a run's median averages over several corpora's tree shapes and cut points.
CORPORA = 7
# Turns per corpus at least: 14 samples keep the tail percentile (10 samples
# beyond it) away from the fastest runs even when invocations are slow.
MIN_ROUNDS = 2
# Nominal seconds of reference.py; reported times are scaled to a machine
# that runs it in this time (a quiet 2-core Xeon virtual machine's speed).
REFERENCE_S = 0.25
LOOP_CAP_S = {0: 100.0, 1: 80.0}  # keeps a run under 180 s even when slow
CHILD_TIMEOUT_S = 60.0
TRACE_PAIRS = 3  # untraced/traced in-process pairs behind the overhead figure


@dataclass
class Workload:
    name: str
    argv: list[str]  # planwise CLI arguments, relative to the working dir
    check: Callable[[Path], list[str]]
    work_units: int
    input_rows: int
    unit: str
    # Span name -> calls the traced run must record.
    expected_calls: dict[str, int] = field(default_factory=dict)


def _expected(ktest=0, predict=0, xtree_plans=0, fits=0) -> dict[str, int]:
    return {
        "evaluate.ktest": ktest,
        "tree.predict_defective": predict,
        "planners.xtree.plan": xtree_plans,
        "tree.fit_bins": fits,
        "discretize.mdlp_cuts": len(corpus_gen.METRICS) * fits,
    }


def make_workload(name: str, corpus: dict[str, list[checks.Release]]) -> Workload:
    project = corpus_gen.most_releases()
    releases = corpus[project]
    rows = {p: sum(len(r) for r in rs) for p, rs in corpus.items()}
    if name == "within":
        tests = releases[1:-1]
        planners = len(checks.WITHIN_PLANNERS)
        return Workload(
            name,
            ["evaluate", "--planner", "all", "--project-dir", f"corpus/{project}",
             "--out-dir", "out"],
            lambda out: checks.check_within(out, releases, project),
            work_units=planners * sum(len(r) for r in tests),
            input_rows=rows[project],
            unit="classes planned and scored",
            expected_calls=_expected(
                ktest=planners * len(tests),
                xtree_plans=sum(len(r) for r in tests),
                fits=len(tests),
            ),
        )
    if name == "discover":
        scorable = [p for p, rs in corpus.items() if checks.two_label(rs)]
        predicted = sum(rows[t] for s in corpus for t in scorable if t != s)
        return Workload(
            name,
            ["bellwether", "--community", "corpus", "--out", "out/bellwether.json"],
            lambda out: checks.check_discover(out / "bellwether.json", corpus),
            work_units=predicted,
            input_rows=sum(rows.values()),
            unit="rows predicted",
            expected_calls=_expected(predict=predicted, fits=len(corpus)),
        )
    if name == "plan":
        train, test = releases[:-1], releases[-1]
        return Workload(
            name,
            ["plan", "--planner", "xtree",
             "--train", *[f"corpus/{project}/{r.path.name}" for r in train],
             "--test", f"corpus/{project}/{test.path.name}",
             "--out", "out/plans.json"],
            lambda out: checks.check_plan(out / "plans.json", test),
            work_units=len(test),
            input_rows=rows[project],
            unit="plans written",
            expected_calls=_expected(xtree_plans=len(test), fits=1) | {
                "planners.suggest_refactorings": len(test),
                "refactorings.table": len(test),
            },
        )
    raise ValueError(name)


WORKLOADS = ("within", "discover", "plan")


# -- running children ------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLANWISE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Runs children through launcher.py, so each child's peak RSS is its own.

    ``run`` returns wall seconds, exit code and peak RSS (MiB) of one child.
    The RSS is ``ru_maxrss``, the counter getrusage(RUSAGE_CHILDREN)
    aggregates, read per child so set-up imports do not mix in.
    """

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, cmd: list[str], cwd: Path) -> tuple[float, int, float]:
        request = {"cmd": cmd, "cwd": str(cwd), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        done = json.loads(reply)
        return done["wall"], done["code"], done["maxrss_kb"] / 1024.0

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()  # kills and reaps its running child first
            self.proc.wait()
        self.proc.stdout.close()


def stderr_tail(work: Path) -> str:
    text = (work / "stderr.txt").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


@dataclass
class LoopResult:
    walls: list[float] = field(default_factory=list)  # raw seconds
    refs: list[float] = field(default_factory=list)  # reference task, raw seconds
    corpus: list[int] = field(default_factory=list)  # corpus index per invocation
    rss_mb: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    setup_turn: list[int] = field(default_factory=list)  # index into refs
    setup_failed: int = 0
    failed: int = 0
    digests: list[str | None] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def closed_loop(workloads: list[Workload], dirs: list[Path], launcher: Launcher,
                seconds: float, cap: float) -> LoopResult:
    """Invoke the workload round-robin over the corpora until time is up.

    The loop stops after ``seconds`` once every corpus has had the same
    number of turns, at least MIN_ROUNDS, or earlier if the next invocation
    would end past ``cap``.
    """
    res = LoopResult(digests=[None] * len(dirs))
    reference_ok = [False] * len(dirs)
    setup_cmd = [sys.executable, "-c", "import planwise.cli"]
    ref_cmd = [sys.executable, str(BENCH_DIR / "reference.py")]
    # Warm-up: compile bytecode and fill the page cache before timing.
    res.setup_failed += launcher.run(setup_cmd, dirs[0])[1] != 0
    launcher.run(ref_cmd, dirs[0])
    begin = perf_counter()
    while True:
        n = len(res.walls)
        elapsed = perf_counter() - begin
        if n >= MIN_ROUNDS * len(dirs) and n % len(dirs) == 0 and elapsed >= seconds:
            break
        if n and elapsed + statistics.median(res.walls) > cap:
            break
        k = n % len(dirs)
        wl, cwd = workloads[k], dirs[k]
        out = cwd / "out"
        shutil.rmtree(out, ignore_errors=True)
        # Set-up is sampled every other turn, spread over the whole run; the
        # reference task runs between it and the invocation, next to both.
        if n % 2 == 0:
            setup_wall, setup_code, _ = launcher.run(setup_cmd, cwd)
            res.setup.append(setup_wall)
            res.setup_turn.append(n)
            res.setup_failed += setup_code != 0
        ref_wall, ref_code, _ = launcher.run(ref_cmd, cwd)
        if ref_code != 0:
            raise RuntimeError(f"reference task failed: {stderr_tail(cwd)}")
        res.refs.append(ref_wall)
        wall, code, rss = launcher.run([sys.executable, "-c", ENTRY, *wl.argv], cwd)
        res.walls.append(wall)
        res.corpus.append(k)
        res.rss_mb.append(rss)
        if code != 0:
            res.failed += 1
            res.problems.append(f"corpus {k}: exit {code}: {stderr_tail(cwd)}")
            continue
        digest = checks.output_digest(out)
        if res.digests[k] is None:
            # Later outputs on this corpus are compared byte for byte with
            # these, so the checks hold for every invocation that matches.
            res.digests[k] = digest
            problems = [f"corpus {k}: {p}" for p in wl.check(out)]
            reference_ok[k] = not problems
            res.problems += problems
        if digest != res.digests[k] or not reference_ok[k]:
            res.failed += 1
            if digest != res.digests[k]:
                res.problems.append(f"corpus {k}: outputs differ from its first invocation")
    return res


# -- traced run ------------------------------------------------------------


def traced_run(wl: Workload, cwd: Path) -> tuple[Tracer, int, str | None, float, float]:
    """In-process runs of the workload's command: a warm-up, then untraced
    and traced runs in alternation.

    Returns the last tracer with its exit code and output digest, and the
    median ``main`` times of the untraced and the traced runs.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import planwise.cli

    if not Path(planwise.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"planwise imported from {planwise.cli.__file__}, not {SRC}")
    out = cwd / "out"
    times: dict[bool, list[float]] = {False: [], True: []}
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        # An untraced warm-up fills lazy imports and allocator pools first.
        for i, traced in enumerate([False] + [False, True] * TRACE_PAIRS):
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.ExitStack() as stack:
                if traced:
                    tracer = stack.enter_context(Tracer())
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                start = perf_counter()
                code = planwise.cli.main(list(wl.argv))
                elapsed = perf_counter() - start
            if i:
                times[traced].append(elapsed)
    finally:
        os.chdir(previous)
    digest = checks.output_digest(out) if code == 0 else None
    return (tracer, code, digest,
            statistics.median(times[False]), statistics.median(times[True]))


def layer_metrics(tracer: Tracer, out: Path, untraced_main_s: float,
                  inprocess_main_s: float, traced_main_s: float) -> dict[str, float]:
    spans = tracer.summary()
    counters = tracer.counters
    values: dict[str, float] = {}
    for name, entry in spans.items():
        for key, value in entry.items():
            values[f"{name}.{key}"] = value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    values["datasets.rows_loaded"] = counters["datasets.rows_loaded"]
    values["discretize.metrics_with_cuts_frac"] = ratio(
        counters["discretize.metrics_with_cuts"], calls("discretize.mdlp_cuts"))
    values["tree.leaves"] = counters["tree.leaves"]
    values["stats.logistic_converged_frac"] = ratio(
        counters["stats.logistic_converged"], calls("stats.fit_univariate_logistic"))
    for planner in checks.WITHIN_PLANNERS:
        plans = counters[f"planners.{planner}.plans"]
        values[f"planners.{planner}.plans"] = plans
        values[f"planners.{planner}.changed_frac"] = ratio(
            counters[f"planners.{planner}.changed"], plans)
    values["bellwether.pairs_scored"] = counters["bellwether.pairs_scored"]
    values["bellwether.defined_score_frac"] = ratio(
        counters["bellwether.defined_scores"], counters["bellwether.pairs_scored"])
    files = [p for p in out.rglob("*") if p.is_file()]
    values["cli.files_written"] = len(files)
    values["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    values["trace.spans"] = len(tracer.start)
    values["trace.overhead_frac"] = ratio(traced_main_s, untraced_main_s) - 1.0
    values["trace.inprocess_overhead_frac"] = ratio(traced_main_s, inprocess_main_s) - 1.0
    return values


def trace_report(wl: Workload, cwd: Path, loop: LoopResult, raw_setup_s: float,
                 spans_path: Path) -> tuple[dict[str, float], list[str]]:
    """Traced run on one corpus: per-layer metrics, and its failed checks."""
    tracer, code, digest, inprocess_s, traced_s = traced_run(wl, cwd)
    # Corpus 0's untraced invocations are the comparison.
    main_s = statistics.median(
        w for w, k in zip(loop.walls, loop.corpus) if k == 0) - raw_setup_s
    layers = layer_metrics(tracer, cwd / "out", main_s, inprocess_s, traced_s)
    same = digest == loop.digests[0]
    problems = [] if code == 0 and same else [
        f"traced run: exit {code}, outputs {'match' if same else 'differ'}"]
    spans = tracer.summary()
    checked = []
    for span, want in wl.expected_calls.items():
        got = spans.get(span, {}).get("calls", 0)
        checked.append(f"{span}.calls {got}/{want}")
        if got != want:
            problems.append(f"tracer self-check: {span} calls {got}, expected {want}")
    tracer.write(spans_path)
    print(f"  traced runs on corpus 0: median main {traced_s:.4f} s"
          f" vs untraced wall_s - setup_s {main_s:.4f} s "
          f"({layers['trace.overhead_frac']:+.1%}) and vs untraced in-process main "
          f"{inprocess_s:.4f} s ({layers['trace.inprocess_overhead_frac']:+.1%}); "
          f"{len(tracer.start)} spans; outputs {'match' if same else 'DIFFER'}")
    print(f"  tracer self-check (got/predicted): {'; '.join(checked)}")
    return layers, problems


# -- reporting -------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with 10 samples beyond it, and its value.

    With n >= 11 samples that is the 11th slowest, at percentile
    100 * (n - 10) / n. With fewer, the slowest sample stands in (p100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "planwise").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, wl: Workload) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": args.seed,
        "corpora": CORPORA,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": wl.name,
        "argv": ["planwise", *wl.argv],
        "input_rows": wl.input_rows,
        "work_units": wl.work_units,
        "work_unit": wl.unit,
    }


def spec_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so children are killed and work removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "planwise" / "cli.py").is_file():
        print(f"benchmark: no planwise sources under {SRC}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    dirs = [work / f"c{k}" for k in range(CORPORA)]
    # Only discover reads the whole community; the others read one project.
    projects = None if args.workload == "discover" else [corpus_gen.most_releases()]
    workloads = []
    for k, cwd in enumerate(dirs):
        corpus_gen.generate(cwd / "corpus", args.seed, variant=k, projects=projects)
        workloads.append(make_workload(args.workload, checks.read_corpus(cwd / "corpus")))
    wl = workloads[0]
    with Launcher(child_env()) as launcher:
        loop = closed_loop(workloads, dirs, launcher, args.seconds, LOOP_CAP_S[args.trace])
    n = len(loop.walls)
    # Scale each sample to a machine on which the reference task takes
    # REFERENCE_S, using the reference time measured next to it.
    speed = [REFERENCE_S / r for r in loop.refs]
    walls = [w * f for w, f in zip(loop.walls, speed)]
    setups = [s * speed[t] for s, t in zip(loop.setup, loop.setup_turn)]
    tail_p, tail_s = tail(walls)
    attempted, failed = n, loop.failed
    problems = list(loop.problems)
    if loop.setup_failed:
        problems.append(f"{loop.setup_failed} set-up imports of planwise.cli failed")
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_s,
        "classes_per_s": statistics.median(
            workloads[k].work_units / w for w, k in zip(walls, loop.corpus)),
        "peak_rss_mb": statistics.median(loop.rss_mb),
    }
    raw = {"setup_s": statistics.median(loop.setup), "wall_s": statistics.median(loop.walls),
           "reference_s": statistics.median(loop.refs)}
    record = {"environment": environment(args, wl), "end_to_end": end_to_end,
              "raw_medians": raw, "invocations": n, "failed_frac": loop.failed / n,
              "wall_s_tail_percentile": tail_p, "output_sha256": loop.digests,
              "samples_s": {"wall": loop.walls, "setup": loop.setup,
                            "reference": loop.refs}}

    e = end_to_end
    print(f"workload {wl.name}: planwise {' '.join(wl.argv)}")
    print(f"  closed loop, 1 client, tracing off; {n} invocations over {CORPORA} "
          f"corpora in {sum(loop.walls):.1f} s; {wl.work_units} {wl.unit} per invocation")
    print(f"  times below are scaled to a {REFERENCE_S} s reference task "
          f"(measured here: median {raw['reference_s']:.4f} s)")
    print(f"  setup_s        {e['setup_s']:10.4f} s      median of {len(setups)} fresh imports "
          f"of planwise.cli (raw {raw['setup_s']:.4f} s)")
    print(f"  wall_s         {e['wall_s']:10.4f} s      median of {n} (raw {raw['wall_s']:.4f} s)")
    print(f"  wall_s_tail    {tail_s:10.4f} s      p{tail_p:.1f} of {n} samples")
    print(f"  classes_per_s  {e['classes_per_s']:10.1f} 1/s    {wl.unit} per second")
    print(f"  peak_rss_mb    {e['peak_rss_mb']:10.1f} MiB    median child peak RSS")
    print(f"  failed_frac    {loop.failed / n:10.4f} frac   {loop.failed} of {n} invocations")
    for k, digest in enumerate(loop.digests):
        print(f"  output sha256  corpus {k}: {digest}")

    metrics_kind, metrics = "end_to_end", end_to_end
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        attempted += 1
        metrics_kind = "per_layer"
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.csv.gz"
        try:
            metrics, trace_problems = trace_report(wl, dirs[0], loop, raw["setup_s"], spans_path)
        except Exception:  # a crash in planwise fails the run, with its traceback
            metrics, trace_problems = {}, ["traced run raised: " + traceback.format_exc()]
        failed += bool(trace_problems)
        problems += trace_problems
        record["per_layer"] = metrics

    units = spec_metrics(metrics_kind)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }
    record.update(problems=problems, result=result)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("  environment " + json.dumps(record["environment"]))
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
