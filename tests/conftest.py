"""Shared builders for synthetic datasets and optional real-corpus access."""

from __future__ import annotations

import csv
import math
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from planwise.datasets import (
    METRICS,
    NO_CHANGE,
    ClassRecord,
    Community,
    Project,
    VersionedDataset,
)
from planwise.discretize import BinMap
from planwise.evaluate import evaluate_windows
from planwise.planners import PlannerBase, make_planner, no_change_plan
from planwise.stats import median
from planwise.tree import TreeNode

# Version CSVs of the public Jureczko corpus, as ``<project>/<project>-<v>.csv``
# subdirectories. Populate with scripts/fetch_jureczko.py (needs network).
DATA_DIR_ENV = "PLANWISE_DATA_DIR"
DEFAULT_DATA_DIR = Path(__file__).parent / "data" / "jureczko"


def make_record(
    name: str, defects: int = 0, base: float = 1.0, **overrides: float
) -> ClassRecord:
    """A record with every metric at ``base`` except the given overrides."""
    metrics = {m: base for m in METRICS}
    for key, value in overrides.items():
        if key not in metrics:
            raise KeyError(f"unknown metric {key!r}")
        metrics[key] = float(value)
    return ClassRecord.from_metrics(name, metrics, defects)


def make_dataset(
    records: list[ClassRecord],
    project: str = "proj",
    version: str = "1",
) -> VersionedDataset:
    return VersionedDataset(project, version, tuple(records))


def write_csv(dataset: VersionedDataset, path: str | Path) -> None:
    """Write a dataset in the canonical CSV layout that ``load_csv`` reads."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "version", "name"] + list(METRICS) + ["bug"])
        writer.writerows(
            [dataset.project, dataset.version, rec.class_name, *map(repr, rec.values), rec.defects]
            for rec in dataset.records)


def write_community(projects, root: Path) -> Path:
    """Write each release of ``projects`` as ``root/<name>/<name>-<version>.csv``,
    the layout ``load_community`` reads, each row labelled with its project's
    name."""
    for project in projects:
        (root / project.name).mkdir(parents=True)
        for release in project.versions:
            labelled = VersionedDataset(project.name, release.version, release.records)
            write_csv(labelled, root / project.name / f"{project.name}-{release.version}.csv")
    return root


def stacked_releases(project: Project) -> VersionedDataset:
    """Every record of every release of ``project``, in release order, as one
    dataset. A class name already taken is prefixed with its release's label,
    again while it is taken (``A``, ``2:A``, ``3:2:A``). Tests whose recorded
    values were taken on this stack feed it as their input data; pooling
    itself keeps one row per class (``pool_versions``)."""
    records: list[ClassRecord] = []
    seen: set[str] = set()
    for version in project.versions:
        for rec in version.records:
            name = rec.class_name
            while name in seen:
                name = f"{version.version}:{name}"
            seen.add(name)
            records.append(ClassRecord(name, rec.values, rec.defects))
    return VersionedDataset(project.name, "pooled", tuple(records))


def changes_count(plan) -> int:
    """Number of metrics a plan asks to change."""
    return sum(a.direction != NO_CHANGE for a in plan.actions.values())


def make_project(versions: list[VersionedDataset], name: str = "proj") -> Project:
    return Project(name, tuple(versions))


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Record the positional arguments of every call to ``module.<name>`` for
    one test. ``module`` may be a class: a method's calls then record
    ``self`` first."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def unpopulated_middle_tree() -> TreeNode:
    """loc splits into three ranges, but the middle one has no child."""
    bins = BinMap("loc", (10.0, 50.0), 0.0, 100.0)
    return TreeNode(
        score=3.0, support=10, level=0,
        split_bins=bins,
        children={
            0: TreeNode(score=0.0, support=5, level=1),
            2: TreeNode(score=6.0, support=5, level=1),
        },
    )


# Leaf scores of ``random_trees``: few values, so that ties, zeros, negative
# scores and scores on PREDICT_THRESHOLD (0.5) recur.
TREE_SCORES = (-1.0, 0.0, 0.5, 0.75, 1.0, 2.0, 4.0)


@st.composite
def random_trees(draw, level: int = 0, used: tuple[str, ...] = ()) -> TreeNode:
    """A hand-shaped tree for hypothesis, at most three splits deep. Each split
    takes a metric no ancestor took, one to three cuts at 10, 20 and 30, and
    children on any non-empty set of its ranges, so single-child splits and
    ranges without a child occur."""
    score = draw(st.sampled_from(TREE_SCORES))
    if level == 3 or not draw(st.booleans()):
        return TreeNode(score=score, support=1, level=level)
    metric = draw(st.sampled_from([m for m in METRICS[:6] if m not in used]))
    cuts = (10.0, 20.0, 30.0)[: draw(st.integers(1, 3))]
    keys = draw(st.sets(st.integers(0, len(cuts)), min_size=1))
    return TreeNode(
        score=score, support=len(keys), level=level,
        split_bins=BinMap(metric, cuts, 0.0, 40.0),
        children={key: draw(random_trees(level + 1, used + (metric,))) for key in sorted(keys)},
    )


def planted_community(seed: int, n: int = 200) -> Community:
    """Three projects where "exemplar" is drawn from the union distribution.

    "alpha" classes get defective when wmc grows, "beta" classes when cbo
    grows; "exemplar" mixes both regimes, so only its data trains a
    predictor that works on both neighbors.
    """
    rng = np.random.default_rng(seed)

    def wmc_driven(name: str) -> ClassRecord:
        wmc = float(rng.uniform(0, 60))
        return make_record(
            name,
            defects=3 if wmc > 30 else 0,
            wmc=wmc,
            cbo=float(rng.uniform(0, 5)),
            loc=float(rng.uniform(10, 500)),
        )

    def cbo_driven(name: str) -> ClassRecord:
        cbo = float(rng.uniform(0, 40))
        return make_record(
            name,
            defects=2 if cbo > 20 else 0,
            cbo=cbo,
            wmc=float(rng.uniform(0, 5)),
            loc=float(rng.uniform(10, 500)),
        )

    alpha = make_dataset(
        [wmc_driven(f"a{i}") for i in range(n)], project="alpha"
    )
    beta = make_dataset(
        [cbo_driven(f"b{i}") for i in range(n)], project="beta"
    )
    half = n // 2
    mixed = [wmc_driven(f"e{i}") for i in range(half)]
    mixed += [cbo_driven(f"e{half + i}") for i in range(n - half)]
    exemplar = make_dataset(mixed, project="exemplar")
    return Community(
        (
            Project("alpha", (alpha,)),
            Project("beta", (beta,)),
            Project("exemplar", (exemplar,)),
        )
    )


def write_planted_community(root: Path, seed: int, n: int = 120, releases: int = 3) -> Path:
    """Write ``releases`` releases each of alpha, beta and exemplar under
    ``root`` with ``write_community``; release k's classes are those of
    ``planted_community(seed + k - 1, n)``. Class names persist across
    releases, while their metrics are redrawn."""
    drawn = [planted_community(seed=seed + order, n=n) for order in range(releases)]
    return write_community([
        Project(name, tuple(
            VersionedDataset(name, str(order + 1), community.get(name).versions[0].records)
            for order, community in enumerate(drawn)))
        for name in ("alpha", "beta", "exemplar")], root)


@pytest.fixture
def exemplar_community_dir(tmp_path):
    """Three releases each of alpha, beta and exemplar (the bellwether)."""
    return write_planted_community(tmp_path / "planted", seed=20)


def planted_history(
    seed: int, n: int = 300, releases: int = 4,
    rule: tuple[tuple[str, float], ...] = (("wmc", 60.0), ("cbo", 40.0)),
) -> Project:
    """One project of ``releases`` releases of ``n`` classes, whose defects
    follow a fixed rule and whose developers make planted moves.

    ``rule`` names two metrics and their scales, by default ``wmc`` and 60,
    ``cbo`` and 40. A class has 0, 1 or 3 defects as its risk, the sum of
    each metric over its scale (``wmc/60 + cbo/40``), lies below 1, below
    1.4, or above. Release 1 draws each rule metric from U(0, its scale)
    and every other metric from U(1, 100). Between releases, 30% of the
    classes are fixed (each rule metric times U(0.4, 0.7)) and 20% decay
    (each times U(1.3, 1.6), plus 1); every other metric of every class
    churns with probability 0.15 (times U(0.5, 1.5)). Class names persist,
    so every class matches in every window.
    """
    rng = np.random.default_rng(seed)
    columns = [METRICS.index(metric) for metric, _ in rule]
    values = rng.uniform(1.0, 100.0, (n, len(METRICS)))
    for col, (_, scale) in zip(columns, rule):
        values[:, col] = rng.uniform(0.0, scale, n)
    versions = []
    for order in range(releases):
        if order:
            draw = rng.random(n)
            fixed, decayed = draw < 0.3, (draw >= 0.3) & (draw < 0.5)
            for col in columns:
                values[fixed, col] *= rng.uniform(0.4, 0.7, fixed.sum())
                values[decayed, col] *= rng.uniform(1.3, 1.6, decayed.sum())
                values[decayed, col] += 1.0
            churned = rng.random(values.shape) < 0.15
            churned[:, columns] = False
            values[churned] *= rng.uniform(0.5, 1.5, churned.sum())
        risk = sum(values[:, col] / scale for col, (_, scale) in zip(columns, rule))
        defects = np.where(risk < 1.0, 0, np.where(risk < 1.4, 1, 3))
        records = [
            ClassRecord(f"C{i}", tuple(row), int(d))
            for i, (row, d) in enumerate(zip(values.tolist(), defects))
        ]
        versions.append(make_dataset(records, project="planted", version=str(order + 1)))
    return make_project(versions, name="planted")


class NoChangePlanner(PlannerBase):
    """The control: a plan with no changes for every class."""

    name = "no-change"

    def fit(self, train):
        return self

    def plan(self, record):
        return no_change_plan(record.class_name, self.name)


class Totals(NamedTuple):
    """One planner's results summed over a project's windows (``window_totals``).

    ``reduced`` and ``increased`` are the defects lost and gained by the
    classes that followed their plans, and ``changes`` the planned metric
    changes; ``aupec_reduced`` is the mean over every window, or NaN, which
    fails every bar, if some window has none; ``median_changes`` is the
    median changes per plan. ``wins`` counts the windows whose
    ``aupec_reduced`` exceeds their ``aupec_increased``, and ``losses`` the
    other scored ones, as criterion 10 counts them.
    """

    reduced: int
    increased: int
    changes: int
    aupec_reduced: float
    median_changes: float
    wins: int
    losses: int

    @property
    def rate(self) -> float | None:
        """The defects reduced less those increased, per planned change; None
        for a planner that planned no change, as 0/0 is undefined."""
        return (self.reduced - self.increased) / self.changes if self.changes else None


def window_totals(project: Project, planners: dict) -> dict[str, Totals]:
    """The ``Totals`` of each entry ``label: (planner, train)`` of ``planners``,
    where ``planner`` is a planner or a name for ``make_planner``, fitted on
    ``train`` or, for None, on each window's first release. One
    ``evaluate_windows`` call scores them all, so the baselines fitted on one
    release share its logistic screen."""
    scored = evaluate_windows(project, [
        (make_planner(planner) if isinstance(planner, str) else planner, train)
        for planner, train in planners.values()])
    totals = {}
    for label, results in zip(planners, scored):
        _, reduced, increased = (sum(c) for c in zip(*(r.followed for r in results)))
        changes = [count for r in results for count in r.plan_changes]
        with_aupec = [r for r in results if r.aupec_reduced is not None]
        wins = sum(r.aupec_reduced > r.aupec_increased for r in with_aupec)
        mean = (sum(r.aupec_reduced for r in results) / len(results)
                if len(with_aupec) == len(results) else math.nan)
        totals[label] = Totals(reduced, increased, sum(changes), mean, median(changes),
                               wins, len(with_aupec) - wins)
    return totals


def rate_at_least(totals: dict[str, Totals], label: str, factor: float, other: str) -> bool:
    """Whether ``label``'s rate is at least ``factor`` times ``other``'s. A
    None rate fails: a planner that planned no change ranks against nothing."""
    rate, other_rate = totals[label].rate, totals[other].rate
    return None not in (rate, other_rate) and rate >= factor * other_rate


ALL_SEEDS = range(20)  # the seeds every claim test counts over


def sign_test_p(holds: int, seeds: int) -> float:
    """One-sided sign-test p-value: the chance that a fair coin comes up
    heads on at least ``holds`` of ``seeds`` tosses."""
    return sum(math.comb(seeds, k) for k in range(holds, seeds + 1)) / 2**seeds


def assert_holds_on_at_least(count: int, bar, row) -> None:
    """Assert that ``bar(seed)`` holds on at least ``count`` of ``ALL_SEEDS``.

    The message holds the per-seed table, each seed's ``row(seed)`` beside
    whether the bar held, and the one-sided sign-test p-value of the count.
    """
    table = [(seed, row(seed), bool(bar(seed))) for seed in ALL_SEEDS]
    holds = sum(held for *_, held in table)
    lines = [f"seed {seed:2}: {'holds' if held else 'fails'}  {cells}"
             for seed, cells, held in table]
    assert holds >= count, "\n".join([
        f"holds on {holds}/{len(table)} seeds, under the {count} pinned "
        f"(one-sided sign-test p = {sign_test_p(holds, len(table)):.4f})", *lines])


# Upper bounds (exclusive) of each metric's integer range in
# ``tie_heavy_community``: small ranges tie heavily, larger ones leave room
# for several cuts.
TIE_HEAVY_RANGES = dict(zip(METRICS, (
    40, 6, 4, 25, 80, 60, 15, 20, 30, 2,
    900, 2, 5, 2, 2, 3, 3, 50, 12, 6,
)))


def _tie_heavy_project(
    name: str, seed: int, weights: dict[str, float], n_releases: int = 2
) -> Project:
    rng = np.random.default_rng(seed)
    releases = []
    for order in range(n_releases):
        records = []
        for i in range(250):
            metrics = {
                m: float(rng.integers(0, hi)) for m, hi in TIE_HEAVY_RANGES.items()
            }
            risk = sum(w * metrics[m] / TIE_HEAVY_RANGES[m] for m, w in weights.items())
            p = 1.0 / (1.0 + np.exp(-12.0 * (risk - 0.9)))
            defects = int(rng.binomial(3, p))
            records.append(make_record(f"{name}.C{i}", defects=defects, **metrics))
        releases.append(make_dataset(records, project=name, version=str(order + 1)))
    return Project(name, tuple(releases))


def tie_heavy_community() -> Community:
    """Three projects of two 250-class releases with integer-valued metrics.

    Many values tie. Defect risk rises with a different mix of metrics in
    each project, so pooled trees have 18-31 leaves and some nodes have
    three children.
    """
    return Community((
        _tie_heavy_project("p0", 101, {"wmc": 0.5, "loc": 0.4, "dit": 0.3,
                                       "lcom3": 0.2, "cbm": 0.2, "npm": 0.2}),
        _tie_heavy_project("p1", 202, {"cbo": 0.5, "rfc": 0.4, "max_cc": 0.3,
                                       "dam": 0.2, "ic": 0.2, "noc": 0.2}),
        _tie_heavy_project("p2", 303, {"wmc": 0.3, "cbo": 0.3, "lcom": 0.3,
                                       "ce": 0.3, "mfa": 0.2, "avg_cc": 0.2,
                                       "amc": 0.2}),
    ))


def tie_heavy_history() -> Project:
    """One project of four 250-class releases with integer-valued metrics.

    Every class keeps its name across releases, so each of the two
    three-release windows matches all 250 classes; metrics are redrawn per
    release, so developer diffs mix all three actions. Risk rests on wmc,
    so the Shatnawi screen keeps a wmc rule in every training release.
    """
    return _tie_heavy_project("p3", 404, {"wmc": 1.0, "loc": 0.5}, n_releases=4)


def mirrored_tie_column() -> tuple[list[float], list[int]]:
    """Five positives at 0, one of each class at 1, five negatives at 2.

    The data mirror around 1, so the cuts at 0.5 and 1.5 have bit-identical
    gains, and after either cut the MDL test rejects the other.
    """
    values = [0.0] * 5 + [1.0] * 2 + [2.0] * 5
    labels = [1] * 5 + [0, 1] + [0] * 5
    return values, labels


def gain_floor_split(
    reverse: bool = False, largest_first: bool = False,
) -> tuple[VersionedDataset, dict[str, BinMap]]:
    """2,693 rows whose only splittable metric, wmc, has the values 0, 1 and
    2, with defect rates that differ by about 1e-6.

    The split's information gain lies within two float steps of the 1e-12
    floor that ``build_tree`` requires, so whether the root splits depends
    on the order in which the weighted entropies of the three groups are
    added, and on how. ``reverse`` writes the groups' rows in the opposite
    order. ``largest_first`` gives the largest group wmc 0 instead of 2:
    added left to right in key order, its gain then clears the floor by one
    float step, and added with compensation, as ``math.fsum`` and Python
    3.12's ``sum`` add, it falls short.
    """
    groups = [(553, 192), (553, 192), (1587, 551)]  # (rows, defective rows)
    if largest_first:
        groups.reverse()
    records = []
    for value in [2, 1, 0] if reverse else [0, 1, 2]:
        rows, defective = groups[value]
        records += [
            make_record(f"g{value}.{i}", defects=int(i < defective), wmc=value)
            for i in range(rows)
        ]
    bins = {m: BinMap(m, (), 1.0, 1.0) for m in METRICS}
    bins["wmc"] = BinMap("wmc", (0.5, 1.5), 0.0, 2.0)
    return make_dataset(records), bins


@pytest.fixture
def jureczko_root() -> Path:
    root = Path(os.environ.get(DATA_DIR_ENV, DEFAULT_DATA_DIR))
    if not root.is_dir() or not any(root.glob("*/*.csv")):
        pytest.skip(
            f"public Jureczko CSVs not available under {root} "
            f"(set {DATA_DIR_ENV} or run scripts/fetch_jureczko.py with network "
            "access); published-results checks skipped"
        )
    return root
