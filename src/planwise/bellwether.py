"""Exemplar-project discovery.

A community's exemplar ("bellwether") is the project whose pooled data
trains the best defect predictor for the other projects. Cross-project
plans then come from ``make_planner("belltree")`` fitted on that
exemplar's pooled data instead of local history. ``exemplar_train`` finds
that exemplar without the target, so belltree never trains on what it is
scored on.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Optional

from .datasets import ClassRecord, Community, Project, VersionedDataset, pool_versions
from .stats import median
from .tree import build_tree, fit_bins, predict_defective


def g_score(tp: int, fp: int, tn: int, fn: int) -> float:
    """Harmonic mean of recall and (1 - false alarm rate)."""
    recall = recall_score(tp, fp, tn, fn)
    false_alarm = fp / (fp + tn) if fp + tn else 0.0
    denom = recall + (1.0 - false_alarm)
    return 2.0 * recall * (1.0 - false_alarm) / denom if denom else 0.0


def precision_score(tp: int, fp: int, tn: int, fn: int) -> float:
    return tp / (tp + fp) if tp + fp else 0.0


def recall_score(tp: int, fp: int, tn: int, fn: int) -> float:
    return tp / (tp + fn) if tp + fn else 0.0


def f1_score(tp: int, fp: int, tn: int, fn: int) -> float:
    p = precision_score(tp, fp, tn, fn)
    r = recall_score(tp, fp, tn, fn)
    return 2.0 * p * r / (p + r) if p + r else 0.0


QUALITY_MEASURES = {
    "g-score": g_score,
    "f1": f1_score,
    "recall": recall_score,
    "precision": precision_score,
}


@dataclass(frozen=True)
class BellwetherReport:
    """Round-robin prediction scores and the chosen exemplar project."""

    community: tuple[str, ...]
    scores: dict[str, dict[str, Optional[float]]]
    per_source_median: dict[str, float]
    bellwether: str
    quality_measure: str

    def to_dict(self) -> dict:
        return asdict(self)


def _score_against(
    tree, records: Iterable[ClassRecord], truth: list[bool], measure
) -> Optional[float]:
    """Score a fitted defect tree on one target's confusion counts.

    ``truth`` holds each target record's label. Each target record is scored
    by its own ``predict_defective`` call. Returns None when the target has
    single-label ground truth, where the measure is undefined.
    """
    if len(set(truth)) < 2:
        return None
    tp = fp = tn = fn = 0
    for record, actual in zip(records, truth):
        predicted = predict_defective(tree, record)
        if predicted and actual:
            tp += 1
        elif predicted and not actual:
            fp += 1
        elif not predicted and not actual:
            tn += 1
        else:
            fn += 1
    return measure(tp, fp, tn, fn)


def discover(
    community: Community, quality_measure: str = "g-score"
) -> BellwetherReport:
    """Round-robin search for the community's exemplar project.

    Every project's pooled data trains a defect tree that is scored against
    every other project; the exemplar is the source with the highest median
    cross-project score (ties resolved to the lexicographically first name).
    One pooled source is alive at a time: a target is scored on its releases'
    records in release order, the rows and labels of its pooled copy.
    """
    if len(community.projects) < 2:
        raise ValueError("bellwether discovery needs at least two projects")
    try:
        measure = QUALITY_MEASURES[quality_measure]
    except KeyError:
        raise ValueError(
            f"unknown quality measure {quality_measure!r}; "
            f"choose from {sorted(QUALITY_MEASURES)}"
        ) from None

    projects = {p.name: p for p in community.projects}
    names = sorted(projects)
    releases = {name: [v.records for v in projects[name].versions] for name in names}
    truths = {name: [r.is_defective() for r in chain(*releases[name])] for name in names}
    scores: dict[str, dict[str, Optional[float]]] = {}
    medians: dict[str, float] = {}
    for source in names:
        pooled = pool_versions(projects[source])
        tree = build_tree(pooled, fit_bins(pooled))
        del pooled
        row: dict[str, Optional[float]] = {}
        for target in names:
            if target == source:
                continue
            row[target] = _score_against(
                tree, chain(*releases[target]), truths[target], measure)
        scores[source] = row
        defined = [s for s in row.values() if s is not None]
        if defined:
            medians[source] = float(median(defined))
    if not medians:
        raise ValueError("no project pair produced a defined prediction score")

    bellwether = min(medians, key=lambda name: (-medians[name], name))
    return BellwetherReport(
        community=tuple(p.name for p in community.projects),
        scores=scores,
        per_source_median=medians,
        bellwether=bellwether,
        quality_measure=quality_measure,
    )


def exemplar_train(
    community: Community, target: Project, quality_measure: str = "g-score"
) -> VersionedDataset:
    """The pooled exemplar that belltree trains on to plan for ``target``: the
    bellwether of the other projects, leaving out any project named like the
    target or holding one of its releases. At least two must remain."""
    others = tuple(
        p for p in community.projects
        if p.name != target.name and not any(v in target.versions for v in p.versions)
    )
    if len(others) < 2:
        raise ValueError(f"belltree needs two community projects besides {target.name}")
    candidates = Community(others)
    return pool_versions(candidates.get(discover(candidates, quality_measure).bellwether))
