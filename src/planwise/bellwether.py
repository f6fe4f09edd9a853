"""Exemplar-project discovery.

A community's exemplar ("bellwether") is the project whose pooled data
(``pool_versions``: each class once, as its latest row) trains the best
defect predictor for the other projects. Each source's defect tree is grown
by ``XTreePlanner().grow``, the tree xtree plans with at its default
options. Cross-project plans then come from ``make_planner("belltree")``
fitted on that exemplar's pooled data instead of local history.
``exemplar_train`` finds that exemplar without the target, so belltree
never trains on what it is scored on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain, compress
from typing import Optional

from .datasets import Community, Project, VersionedDataset, pool_versions
from .planners import XTreePlanner
from .stats import median
from .tree import predict_defective


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


def discover(
    community: Community, quality_measure: str = "g-score"
) -> BellwetherReport:
    """Round-robin search for the community's exemplar project.

    Every project's pooled data, one row per class, trains a defect tree
    that is scored against every other project; the exemplar is the source
    with the highest median cross-project score (ties resolved to the
    lexicographically first name). One pooled source is alive at a time. A
    target is scored on every record of every release, in release order, so
    a class counts once per release it lives through. Each target's labels
    are read once per discovery; a pair's confusion counts follow from its
    per-record predictions and the target's positives.
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
    # Each target's labels and positives; a single-label target scores None.
    truths = {}
    for name in names:
        truth = [r.is_defective() for r in chain(*releases[name])]
        if 0 < (positives := sum(truth)) < len(truth):
            truths[name] = truth, positives
    scores: dict[str, dict[str, Optional[float]]] = {}
    medians: dict[str, float] = {}
    for source in names:
        pooled = pool_versions(projects[source])
        tree = XTreePlanner().grow(pooled)
        del pooled
        row = dict.fromkeys(name for name in names if name != source)
        for target, (truth, positives) in truths.items():
            if target != source:
                predicted = [predict_defective(tree, r) for r in chain(*releases[target])]
                tp = sum(compress(predicted, truth))
                fp = sum(predicted) - tp
                fn = positives - tp
                row[target] = measure(tp, fp, len(truth) - tp - fp - fn, fn)
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
    """The pooled exemplar that belltree trains on to plan for ``target``,
    each of its classes once as its latest row: the bellwether of the other
    projects, leaving out any project named like the target or holding a
    release with the records of one of its releases, in any row order and
    under any labels. At least two must remain."""
    held = {frozenset(v.records) for v in target.versions}
    others = tuple(
        p for p in community.projects
        if p.name != target.name and held.isdisjoint(frozenset(v.records) for v in p.versions)
    )
    if len(others) < 2:
        raise ValueError(f"belltree needs two community projects besides {target.name}")
    candidates = Community(others)
    return pool_versions(candidates.get(discover(candidates, quality_measure).bellwether))
