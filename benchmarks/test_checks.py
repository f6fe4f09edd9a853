"""The output checks pass on planwise's real outputs and catch broken ones;
the tracer and the launcher report what they claim.

Run from the repository root: ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import planwise.cli  # noqa: E402
import planwise.planners  # noqa: E402
import planwise.tree  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("work")
    corpus.generate(root / "corpus", seed=0)
    return root


def _run_cli(work: Path, name: str, traced: bool = False):
    """Run a workload's command in-process in its own directory under ``work``."""
    wl = run.make_workload(name, checks.read_corpus(work / "corpus"))
    cwd = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    (cwd / "corpus").symlink_to(work / "corpus")
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.ExitStack() as stack:
            tracer = stack.enter_context(Tracer()) if traced else None
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            assert planwise.cli.main(list(wl.argv)) == 0
    finally:
        os.chdir(previous)
    return wl, cwd / "out", tracer


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_checks_pass_on_planwise_outputs(work, name):
    wl, out, _ = _run_cli(work, name)
    assert wl.check(out) == []


def test_within_check_catches_wrong_counts(work):
    wl, out, _ = _run_cli(work, "within")
    path = next(out.glob("*-xtree.json"))
    doc = json.loads(path.read_text())
    doc["matched_classes"] += 1
    path.write_text(json.dumps(doc))
    assert any("matched_classes" in p for p in wl.check(out))
    path.unlink()
    assert any("missing" in p for p in wl.check(out))


def test_discover_check_catches_wrong_exemplar(work):
    wl, out, _ = _run_cli(work, "discover")
    path = out / "bellwether.json"
    doc = json.loads(path.read_text())
    others = [n for n in doc["community"] if n != doc["bellwether"]]
    doc["bellwether"] = others[0]
    path.write_text(json.dumps(doc))
    assert any("argmax" in p for p in wl.check(out))


def test_plan_check_catches_bad_actions(work):
    wl, out, _ = _run_cli(work, "plan")
    path = out / "plans.json"
    doc = json.loads(path.read_text())
    doc["plans"][0]["actions"]["wmc"]["action"] = "up"
    doc["plans"][1]["refactorings"] = ["Rename Everything"]
    path.write_text(json.dumps(doc))
    problems = wl.check(out)
    assert any("action outside" in p for p in problems)
    assert any("catalog" in p for p in problems)
    doc["plans"].pop()
    path.write_text(json.dumps(doc))
    assert any("do not match" in p for p in wl.check(out))


@pytest.mark.parametrize("name", ["within", "plan"])
def test_tracer_counts_match_predictions_and_outputs_match(work, name):
    _, plain, _ = _run_cli(work, name)
    wl, traced, tracer = _run_cli(work, name, traced=True)
    assert checks.output_digest(traced) == checks.output_digest(plain)
    spans = tracer.summary()
    for span, calls in wl.expected_calls.items():
        assert spans.get(span, {}).get("calls", 0) == calls, span
    assert spans["cli.main"]["calls"] == 1
    # Every name bound to a traced function is restored on exit.
    assert planwise.planners.locate is planwise.tree.locate
    assert not hasattr(planwise.tree.locate, "__wrapped__")


def test_tail_is_the_eleventh_slowest():
    samples = [float(i) for i in range(1, 31)]
    assert run.tail(samples) == (100.0 * 20 / 30, 20.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_launcher_reports_the_childs_own_peak(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)  # a parent far larger than the child
    ballast[::4096] = b"\1" * len(ballast[::4096])
    with run.Launcher(run.child_env()) as launcher:
        wall, code, rss_mb = launcher.run([sys.executable, "-c", "pass"], tmp_path)
    assert code == 0 and wall > 0
    assert rss_mb < 100
