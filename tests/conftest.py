"""Shared builders for synthetic datasets and optional real-corpus access."""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np
import pytest

from planwise.datasets import (
    METRICS,
    NO_CHANGE,
    ClassRecord,
    Community,
    Project,
    VersionedDataset,
)
from planwise.discretize import BinMap
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
        for rec in dataset.records:
            row = [dataset.project, dataset.version, rec.class_name]
            row += [repr(rec.metrics[m]) for m in METRICS]
            row.append(str(rec.defects))
            writer.writerow(row)


def changes_count(plan) -> int:
    """Number of metrics a plan asks to change."""
    return sum(a.direction != NO_CHANGE for a in plan.actions.values())


def make_project(versions: list[VersionedDataset], name: str = "proj") -> Project:
    return Project(name, tuple(versions))


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Record the arguments of every call to ``module.<name>`` for one test."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def unpopulated_middle_tree() -> TreeNode:
    """loc splits into three ranges, but the middle one has no child."""
    bins = BinMap("loc", (10.0, 50.0), 0.0, 100.0)
    return TreeNode(
        score=3.0, support=10, level=0,
        split_metric="loc", split_bins=bins,
        children={
            0: TreeNode(score=0.0, support=5, level=1),
            2: TreeNode(score=6.0, support=5, level=1),
        },
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


@pytest.fixture
def exemplar_community_dir(tmp_path):
    """Three releases each of alpha, beta and exemplar (the bellwether)."""
    root = tmp_path / "planted"
    releases = [planted_community(seed=20 + order, n=120) for order in range(3)]
    for name in ("alpha", "beta", "exemplar"):
        (root / name).mkdir(parents=True)
        for order, community in enumerate(releases):
            version = str(order + 1)
            records = list(community.get(name).versions[0].records)
            ds = make_dataset(records, project=name, version=version)
            write_csv(ds, root / name / f"{name}-{version}.csv")
    return root


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
    reverse: bool = False,
) -> tuple[VersionedDataset, dict[str, BinMap]]:
    """2,693 rows whose only splittable metric, wmc, has the values 0, 1 and
    2, with defect rates that differ by about 1e-6.

    The split's information gain lies within two float steps of the 1e-12
    floor that ``build_tree`` requires, so whether the root splits depends
    on the order in which the weighted entropies of the three groups are
    added. ``reverse`` writes the groups' rows in the opposite order.
    """
    groups = [(553, 192), (553, 192), (1587, 551)]  # (rows, defective rows)
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
