"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line at its pinned tolerance. Criterion 10 needs the public
defect corpus on disk and is skipped with a notice when it is absent.
"""

import math
import time
from statistics import median

import numpy as np

from planwise.bellwether import discover
from planwise.cli import main
from planwise.datasets import load_community
from planwise.discretize import mdlp_cuts
from planwise.evaluate import evaluate_windows, ktest, overlap
from planwise.planners import XTreePlanner, make_planner, varl
from planwise.stats import LogisticFit, fit_univariate_logistic, simpson_integrate
from planwise.tree import locate

from conftest import (
    changes_count, make_dataset, make_project, make_record, planted_community, write_csv,
)
from test_cli import toy_version
from test_discretize import oracle_cuts, random_dataset
from test_evaluate import (
    EXPECTED_AUPEC_INCREASED,
    EXPECTED_AUPEC_REDUCED,
    EXPECTED_CLASSES,
    EXPECTED_INCREASED,
    EXPECTED_REDUCED,
    ReduceLocStub,
    hand_project,
)


def check(number: int, name: str, passed: bool) -> None:
    print(f"acceptance {number:>2} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_overlap_fidelity():
    metrics = ["dit", "noc", "cbo", "rfc", "fout", "wmc", "nom", "loc", "lcom"]
    planner = dict(zip(metrics, [".", ".", ".", "+", ".", "+", "+", "+", "+"]))
    developer = dict(zip(metrics, [".", ".", "-", "+", "-", "+", "+", "+", "+"]))
    value = overlap(developer, planner)
    check(1, "overlap fidelity", abs(value - 77.77) <= 0.01)


def test_criterion_2_simpson_correctness():
    cubic = [(i / 4.0, (i / 4.0) ** 3) for i in range(5)]
    cubic_error = abs(simpson_integrate(cubic) - 0.25)
    exponential = [(i / 100.0, math.exp(i / 100.0)) for i in range(101)]
    exp_error = abs(simpson_integrate(exponential) - (math.e - 1.0))
    check(2, "simpson correctness", cubic_error < 1e-12 and exp_error < 1e-8)


def test_criterion_3_discretizer_oracle_equivalence():
    started = time.perf_counter()
    agree = True
    for seed in range(200):
        values, labels = random_dataset(seed)
        if mdlp_cuts(values, labels).cut_points != tuple(oracle_cuts(values, labels)):
            agree = False
            break
    elapsed = time.perf_counter() - started
    check(3, "discretizer oracle equivalence", agree and elapsed < 10.0)


def test_criterion_4_logistic_recovery():
    rng = np.random.default_rng(2024)
    x = rng.normal(0.0, 1.0, 10_000)
    probability = 1.0 / (1.0 + np.exp(-(-1.0 + 2.0 * x)))
    y = (rng.random(10_000) < probability).astype(int)
    fit = fit_univariate_logistic(x, y)
    recovered = (
        fit.converged
        and abs(fit.alpha - (-1.0)) < 0.1
        and abs(fit.beta - 2.0) < 0.1
    )

    insignificant = 0
    for seed in range(100):
        trial_rng = np.random.default_rng(seed)
        tx = trial_rng.normal(0.0, 1.0, 10_000)
        ty = trial_rng.integers(0, 2, 10_000)
        trial = fit_univariate_logistic(tx, ty)
        if trial.converged and trial.p_value > 0.05:
            insignificant += 1
    check(4, "logistic recovery", recovered and insignificant >= 95)


def test_criterion_5_varl_closed_form():
    ln = math.log
    cases = [
        (LogisticFit(0.0, 1.0, 0.0, True), 0.5, 0.0),
        (LogisticFit(0.0, 1.0, 0.0, True), 0.05, ln(1.0 / 19.0)),
        (LogisticFit(-3.0, 0.5, 0.0, True), 0.05, (ln(1.0 / 19.0) + 3.0) / 0.5),
    ]
    ok = all(abs(varl(fit, p1) - expected) <= 1e-9 for fit, p1, expected in cases)
    check(5, "risk threshold closed form", ok)


def planted_project(seed=0, n=150):
    rng = np.random.default_rng(seed)

    def release(version):
        records = []
        for i in range(n):
            wmc = float(rng.uniform(0, 60))
            defective = wmc > 30
            records.append(
                make_record(
                    f"cls{i}",
                    defects=int(defective) * int(rng.integers(1, 5)),
                    wmc=wmc,
                    loc=float(rng.uniform(20, 400)),
                    rfc=float(rng.uniform(0, 50)),
                )
            )
        return make_dataset(records, project="planted", version=version)

    return make_project([release("1"), release("2"), release("3")], name="planted")


def test_criterion_6_xtree_contract():
    project = planted_project(seed=6)
    planner = XTreePlanner(gamma=0.5, min_leaf=5).fit(project.versions[0])
    nontrivial = exhausted = 0
    contract_holds = True
    for record in project.versions[1].records:
        plan = planner.plan(record)
        current = locate(planner.tree, record)
        if changes_count(plan) == 0:
            exhausted += 1
            continue
        nontrivial += 1
        desired_score = current.score - plan.expected_score_drop
        if not desired_score < 0.5 * current.score + 1e-9:
            contract_holds = False
    check(
        6,
        "xtree better-sibling contract",
        contract_holds and nontrivial > 0 and exhausted > 0,
    )


def test_criterion_7_bellwether_discovery():
    hits = sum(
        discover(planted_community(seed)).bellwether == "exemplar"
        for seed in range(20)
    )
    check(7, "bellwether discovery", hits == 20)


def test_criterion_8_ktest_oracle():
    result = ktest(hand_project(), 0, 1, 2, ReduceLocStub())
    ok = (
        tuple(p.defects_reduced for p in result.curve) == EXPECTED_REDUCED
        and tuple(p.defects_increased for p in result.curve) == EXPECTED_INCREASED
        and tuple(p.classes for p in result.curve) == EXPECTED_CLASSES
        and abs(result.aupec_reduced - EXPECTED_AUPEC_REDUCED) <= 1e-9
        and abs(result.aupec_increased - EXPECTED_AUPEC_INCREASED) <= 1e-9
    )
    check(8, "k-test oracle", ok)


def test_criterion_9_evaluation_determinism(tmp_path):
    project_dir = tmp_path / "toy"
    project_dir.mkdir()
    for order, version in enumerate(("1.0", "1.1", "1.2")):
        write_csv(toy_version(version, order), project_dir / f"toy-{version}.csv")
    snapshots = []
    for label in ("first", "second"):
        out_dir = tmp_path / label
        code = main(
            [
                "evaluate",
                "--planner", "all",
                "--project-dir", str(project_dir),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    check(9, "evaluation determinism", snapshots[0] == snapshots[1])


def test_criterion_10_published_directions(jureczko_root):
    started = time.perf_counter()
    community = load_community(jureczko_root)
    report = discover(community)
    check(10, "10a bellwether is lucene", report.bellwether == "lucene")

    projects = [p for p in community.projects if len(p.versions) >= 3]
    wins = losses = 0
    median_changes: dict[str, dict[str, float]] = {}
    planner_names = ("xtree", "alves", "shatnawi", "oliveira")
    for project in projects:
        counts: dict[str, list[int]] = {name: [] for name in planner_names}
        for name in planner_names:
            planner = make_planner(name)
            for result in evaluate_windows(project, planner):
                if name == "xtree" and result.aupec_reduced is not None:
                    if result.aupec_reduced > result.aupec_increased:
                        wins += 1
                    else:
                        losses += 1
            for start in range(len(project.versions) - 2):
                planner.fit(project.versions[start])
                counts[name].extend(
                    changes_count(planner.plan(record))
                    for record in project.versions[start + 1].records
                )
        median_changes[project.name] = {
            name: median(values) for name, values in counts.items()
        }
    check(10, "10b defects reduced beats increased in most windows", wins > losses)

    frugality_ok = True
    for baseline in ("alves", "shatnawi", "oliveira"):
        leaner = sum(
            1
            for name in median_changes
            if median_changes[name]["xtree"] < median_changes[name][baseline]
        )
        if leaner < 7:
            frugality_ok = False
    check(10, "10c xtree changes fewest metrics", frugality_ok)
    assert time.perf_counter() - started < 300.0
