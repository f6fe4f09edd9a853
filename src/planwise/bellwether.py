"""Exemplar-project discovery and cross-project planning.

A community's exemplar ("bellwether") is the project whose pooled data
trains the best defect predictor for the other projects. Cross-project
plans are then generated by the contrast-set planner trained on that
exemplar's data instead of local history.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Optional

from .datasets import Community, Project, VersionedDataset, pool_versions
from .planners import DEFAULT_GAMMA, DEFAULT_SEED, XTreePlanner
from .tree import DEFAULT_MAX_DEPTH, build_tree, fit_bins, predict_defective


def g_score(tp: int, fp: int, tn: int, fn: int) -> float:
    """Harmonic mean of recall and (1 - false alarm rate)."""
    recall = tp / (tp + fn) if tp + fn else 0.0
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
        return {
            "community": list(self.community),
            "quality_measure": self.quality_measure,
            "scores": self.scores,
            "per_source_median": self.per_source_median,
            "bellwether": self.bellwether,
        }


def _score_against(
    tree, target: VersionedDataset, truth: list[bool], measure
) -> Optional[float]:
    """Score a fitted defect tree on one target's confusion counts.

    ``truth`` holds each target record's label. Each target record is scored
    by its own ``predict_defective`` call. Returns None when the target has
    single-label ground truth, where the measure is undefined.
    """
    if len(set(truth)) < 2:
        return None
    tp = fp = tn = fn = 0
    for record, actual in zip(target.records, truth):
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

    pooled = {p.name: pool_versions(p) for p in community.projects}
    names = sorted(pooled)
    truths = {name: [r.is_defective() for r in pooled[name].records] for name in names}
    scores: dict[str, dict[str, Optional[float]]] = {}
    medians: dict[str, float] = {}
    for source in names:
        tree = build_tree(pooled[source], fit_bins(pooled[source]))
        row: dict[str, Optional[float]] = {}
        for target in names:
            if target == source:
                continue
            row[target] = _score_against(tree, pooled[target], truths[target], measure)
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


def make_belltree_planner(
    project: Project,
    gamma: float = DEFAULT_GAMMA,
    seed: int = DEFAULT_SEED,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_leaf: int | None = None,
) -> XTreePlanner:
    """A reusable cross-project planner fitted on a project's pooled data."""
    planner = XTreePlanner(
        gamma=gamma, seed=seed, max_depth=max_depth, min_leaf=min_leaf,
        name="belltree",
    )
    planner.fit(pool_versions(project))
    return planner


def validate(report: BellwetherReport, plans_outcome) -> str:
    """Decide whether the current exemplar is still earning its keep.

    Returns ``"keep"`` when the evaluated plans reduced strictly more than
    they increased (per the effectiveness areas); otherwise ``"rediscover"``,
    including when the evaluation produced no evidence at all.
    """
    reduced = plans_outcome.aupec_reduced
    increased = plans_outcome.aupec_increased
    if not plans_outcome.curve or reduced is None or increased is None:
        return "rediscover"
    return "keep" if reduced > increased else "rediscover"
