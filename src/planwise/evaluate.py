"""Planner scoring: overlap with developer actions, three-version protocol,
effectiveness curves, and their normalized areas.

The protocol trains a planner on one release, plans for the next, and
validates on the release after that: each class present in both later
releases contributes its defect delta at the overlap between the planner's
actions and what developers actually changed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .datasets import (
    ActionVector,
    NO_CHANGE,
    Project,
    VersionedDataset,
    _check_epsilon,
    diff_versions,
)
from .planners import PlannerBase
from .stats import median, simpson_integrate

N_BUCKETS = 10
BUCKET_MIDPOINTS = tuple(5.0 + 10.0 * i for i in range(N_BUCKETS))
CURVE_SPAN = BUCKET_MIDPOINTS[-1] - BUCKET_MIDPOINTS[0]


def overlap(d: ActionVector, p: ActionVector) -> float:
    """Percentage of metrics on which two action vectors agree.

    Agreement counts matching no-change entries too; the denominator is the
    full shared metric universe. This is the definition of overlap: the
    count ``ktest`` keeps is tested against it.
    """
    if d.keys() != p.keys():
        raise ValueError("action vectors cover different metric universes")
    if not d:
        raise ValueError("empty action vectors")
    return 100.0 * len(d.items() & p.items()) / len(d)


def bucket_index(x: float) -> int:
    """Decile bucket of an overlap percentage; 100 folds into the last."""
    if not 0.0 <= x <= 100.0:
        raise ValueError(f"overlap {x} outside [0, 100]")
    return min(int(x // 10.0), N_BUCKETS - 1)


@dataclass(frozen=True)
class CurvePoint:
    """One decile of the effectiveness curve."""

    overlap_bucket: float
    defects_reduced: int
    defects_increased: int
    classes: int


@dataclass(frozen=True)
class ChangesSummary:
    """Distribution of changes-per-plan across one planning run."""

    plans: int
    minimum: int
    median: float
    mean: float
    maximum: int

    @classmethod
    def from_counts(cls, counts: list[int]) -> "ChangesSummary":
        if not counts:
            return cls(0, 0, 0.0, 0.0, 0)
        return cls(
            plans=len(counts),
            minimum=min(counts),
            median=float(median(counts)),
            mean=sum(counts) / len(counts),
            maximum=max(counts),
        )

    def to_dict(self) -> dict:
        return {
            "plans": self.plans,
            "min": self.minimum,
            "median": self.median,
            "mean": self.mean,
            "max": self.maximum,
        }


@dataclass(frozen=True)
class KTestResult:
    """Outcome of one train/plan/validate window for one planner."""

    project: str
    version_i: str
    version_j: str
    version_k: str
    planner: str
    curve: tuple[CurvePoint, ...]
    aupec_reduced: Optional[float]
    aupec_increased: Optional[float]
    changes_per_plan: ChangesSummary
    matched_classes: int
    matched_defects: int

    def to_dict(self) -> dict:
        return {
            "project": self.project,
            "versions": {
                "train": self.version_i,
                "test": self.version_j,
                "validation": self.version_k,
            },
            "planner": self.planner,
            "curve": [asdict(point) for point in self.curve],
            "aupec_reduced": self.aupec_reduced,
            "aupec_increased": self.aupec_increased,
            "changes_per_plan": self.changes_per_plan.to_dict(),
            "matched_classes": self.matched_classes,
            "matched_defects": self.matched_defects,
        }


def _aupec(curve_heights: list[int], matched_defects: int) -> Optional[float]:
    """Area under one curve as a percentage of the theoretical best.

    The best possible curve sits at the matched releases' full defect count
    across every overlap level, so its area is that count times the span of
    the bucket midpoints.
    """
    if matched_defects <= 0:
        return None
    points = list(zip(BUCKET_MIDPOINTS, (float(h) for h in curve_heights)))
    area = simpson_integrate(points)
    return 100.0 * area / (matched_defects * CURVE_SPAN)


def ktest(
    project: Project,
    i: int,
    j: int,
    k: int,
    planner: PlannerBase,
    epsilon: float = 0.0,
) -> KTestResult:
    """Score a fitted planner: plan for release ``j``, validate against ``k``.

    ``i`` names the training release (``evaluate_windows`` fits). Indices
    address ``project.versions``; they must be strictly increasing.

    Each class is planned once, in record order. A matched class's overlap
    starts from the metrics its developers left unchanged; each metric the
    plan changes adds one where they moved it the same way and takes one
    away where they left it. This is ``overlap`` of the direction vectors.
    """
    if not 0 <= i < j < k < len(project.versions):
        raise ValueError(
            f"need three ordered releases, got indices {(i, j, k)} for "
            f"{len(project.versions)} available"
        )
    version_i, version_j, version_k = (
        project.versions[i],
        project.versions[j],
        project.versions[k],
    )
    if (j, k, epsilon) not in project.diffs:  # once per window, for every planner
        k_records = version_k.by_name()
        project.diffs[j, k, epsilon] = {
            name: (moves, list(moves.values()).count(NO_CHANGE), k_records[name].defects)
            for name, moves in diff_versions(version_j, version_k, epsilon).items()
        }
    matched = project.diffs[j, k, epsilon]
    reduced = [0] * N_BUCKETS
    increased = [0] * N_BUCKETS
    classes = [0] * N_BUCKETS
    counts = []
    matched_classes = 0
    matched_defects = 0
    for rec in version_j.records:
        changed = [
            (metric, action.direction)
            for metric, action in planner.plan(rec).actions.items()
            if action.direction != NO_CHANGE
        ]
        counts.append(len(changed))
        memo = matched.get(rec.class_name)
        if memo is None:
            continue
        moves, agree, k_defects = memo
        for metric, direction in changed:
            move = moves[metric]
            agree += (move == direction) - (move == NO_CHANGE)
        bucket = bucket_index(100.0 * agree / len(moves))
        delta = rec.defects - k_defects
        reduced[bucket] += max(0, delta)
        increased[bucket] += max(0, -delta)
        classes[bucket] += 1
        matched_classes += 1
        matched_defects += rec.defects

    if matched_classes == 0:
        curve: tuple[CurvePoint, ...] = ()
        aupec_reduced = aupec_increased = None
    else:
        curve = tuple(
            CurvePoint(mid, reduced[b], increased[b], classes[b])
            for b, mid in enumerate(BUCKET_MIDPOINTS)
        )
        aupec_reduced = _aupec(reduced, matched_defects)
        aupec_increased = _aupec(increased, matched_defects)

    return KTestResult(
        project=project.name,
        version_i=version_i.version,
        version_j=version_j.version,
        version_k=version_k.version,
        planner=planner.name,
        curve=curve,
        aupec_reduced=aupec_reduced,
        aupec_increased=aupec_increased,
        changes_per_plan=ChangesSummary.from_counts(counts),
        matched_classes=matched_classes,
        matched_defects=matched_defects,
    )


def windows(project: Project) -> range:
    """Start indices of a project's consecutive three-release windows."""
    n = len(project.versions)
    if n < 3:
        raise ValueError(
            f"{project.name} has {n} release(s); evaluation trains on one, "
            "plans for the next, and validates on a third, so at least 3 are "
            "required"
        )
    return range(n - 2)


def evaluate_windows(
    project: Project,
    planner: PlannerBase,
    epsilon: float = 0.0,
    train: VersionedDataset | None = None,
) -> list[KTestResult]:
    """Fit and score every consecutive three-release window.

    Each window fits ``planner`` on its first release; an external ``train``
    (cross-project planning) is fitted once and serves every window.
    """
    starts = windows(project)
    _check_epsilon(epsilon)  # before any fit
    if train is not None:
        planner.fit(train)
    results = []
    for s in starts:
        if train is None:
            planner.fit(project.versions[s])
        results.append(ktest(project, s, s + 1, s + 2, planner, epsilon))
    return results
