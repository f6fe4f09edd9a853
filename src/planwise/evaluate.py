"""Planner scoring: overlap with developer actions, three-version protocol,
effectiveness curves, and their normalized areas.

The protocol trains a planner on one release, plans for the next, and
validates on the release after that: each class present in both later
releases contributes its defect delta at the overlap between the planner's
actions and what developers actually changed.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, fields, replace
from types import MappingProxyType
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
    """Distribution of changes-per-plan across one planning run; the field
    names are the JSON keys."""

    plans: int
    min: int
    median: float
    mean: float
    max: int

    @classmethod
    def from_counts(cls, counts: list[int]) -> "ChangesSummary":
        if not counts:
            return cls(0, 0, 0.0, 0.0, 0)
        return cls(
            plans=len(counts),
            min=min(counts),
            median=float(median(counts)),
            mean=sum(counts) / len(counts),
            max=max(counts),
        )


@dataclass(frozen=True)
class KTestResult:
    """Outcome of one train/plan/validate window for one planner.

    ``versions`` is a read-only view of its own copy of the mapping from
    ``train``, ``test`` and ``validation`` to the window's release labels;
    an external training set that ``evaluate_windows`` fitted is named
    ``<project>-<version>`` instead, as in ``alpha-pooled``. ``curve`` is
    kept as a tuple, so a result cannot change after ``ktest`` returns it.
    ``plan_changes`` is each plan's count of changed metrics, in record
    order, which ``changes_per_plan`` summarises.
    ``followed`` counts the matched classes whose plan was not empty and
    whose developers made every planned move, then the defects those
    classes lost and gained. ``to_dict`` is the result's JSON document,
    which leaves out those two fields.
    """

    project: str
    versions: Mapping[str, str]
    planner: str
    curve: tuple[CurvePoint, ...]
    aupec_reduced: Optional[float]
    aupec_increased: Optional[float]
    changes_per_plan: ChangesSummary
    matched_classes: int
    matched_defects: int
    plan_changes: tuple[int, ...]
    followed: tuple[int, int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "versions", MappingProxyType(dict(self.versions)))
        object.__setattr__(self, "curve", tuple(self.curve))

    def to_dict(self) -> dict:
        # Field by field: asdict cannot copy the read-only versions, and would
        # copy the plan tallies, which the document leaves out, one by one.
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("plan_changes", "followed")}
        return dict(doc, versions=dict(self.versions), curve=list(map(asdict, self.curve)),
                    changes_per_plan=asdict(self.changes_per_plan))


def _aupec(curve_heights: list[int], matched_defects: int) -> Optional[float]:
    """Area under one curve as a percentage of the theoretical best.

    The best possible curve sits at the matched releases' full defect count
    across every overlap level, so its area is that count times the span of
    the bucket midpoints. None when no matched class held a defect, and so
    when no class matched.
    """
    if matched_defects <= 0:
        return None
    points = list(zip(BUCKET_MIDPOINTS, (float(h) for h in curve_heights)))
    area = simpson_integrate(points)
    return 100.0 * area / (matched_defects * CURVE_SPAN)


def _matched_classes(version_j, version_k, epsilon: float) -> dict:
    """A window's matched classes: name -> (developer moves, their no-change
    count, defects in release ``k``)."""
    k_records = version_k.by_name()
    return {name: (moves, list(moves.values()).count(NO_CHANGE), k_records[name].defects)
            for name, moves in diff_versions(version_j, version_k, epsilon).items()}


def ktest(
    project: Project,
    i: int,
    j: int,
    k: int,
    planner: PlannerBase,
    epsilon: float = 0.0,
    *, _matched: dict | None = None,
) -> KTestResult:
    """Score a fitted planner: plan for release ``j``, validate against ``k``.

    ``i`` names the training release (``evaluate_windows`` fits). Indices
    address ``project.versions``; they must be strictly increasing.
    ``_matched`` is the window's ``_matched_classes`` table, which
    ``evaluate_windows`` builds once for all its planners.

    Each class is planned once, in record order. A matched class's overlap
    starts from the metrics its developers left unchanged; each metric the
    plan changes adds one where they moved it the same way and takes one
    away where they left it. This is ``overlap`` of the direction vectors.
    A matched class followed its plan when the plan changes some metric and
    its developers moved every such metric the planned way.
    """
    if not 0 <= i < j < k < len(project.versions):
        raise ValueError(
            f"need three ordered releases, got indices {(i, j, k)} for "
            f"{len(project.versions)} available"
        )
    version_j, version_k = project.versions[j], project.versions[k]
    if _matched is None:  # not a truth test: a window without matches is empty
        _matched = _matched_classes(version_j, version_k, epsilon)
    reduced = [0] * N_BUCKETS
    increased = [0] * N_BUCKETS
    classes = [0] * N_BUCKETS
    counts = []
    matched_defects = 0
    followed = (0, 0, 0)
    for rec in version_j.records:
        changed = [
            (metric, action.direction)
            for metric, action in planner.plan(rec).actions.items()
            if action.direction != NO_CHANGE
        ]
        counts.append(len(changed))
        memo = _matched.get(rec.class_name)
        if memo is None:
            continue
        moves, agree, k_defects = memo
        made = left = 0
        for metric, direction in changed:
            move = moves[metric]
            made += move == direction
            left += move == NO_CHANGE
        agree += made - left
        bucket = bucket_index(100.0 * agree / len(moves))
        delta = rec.defects - k_defects
        lost, gained = max(0, delta), max(0, -delta)
        reduced[bucket] += lost
        increased[bucket] += gained
        classes[bucket] += 1
        matched_defects += rec.defects
        if changed and made == len(changed):
            followed = (followed[0] + 1, followed[1] + lost, followed[2] + gained)

    matched_classes = sum(classes)
    curve = [
        CurvePoint(mid, reduced[b], increased[b], classes[b])
        for b, mid in enumerate(BUCKET_MIDPOINTS)
    ] if matched_classes else []

    return KTestResult(
        project=project.name,
        versions={
            "train": project.versions[i].version,
            "test": version_j.version,
            "validation": version_k.version,
        },
        planner=planner.name,
        curve=curve,
        aupec_reduced=_aupec(reduced, matched_defects),
        aupec_increased=_aupec(increased, matched_defects),
        changes_per_plan=ChangesSummary.from_counts(counts),
        matched_classes=matched_classes,
        matched_defects=matched_defects,
        plan_changes=tuple(counts),
        followed=followed,
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
    planners: Sequence[tuple[PlannerBase, VersionedDataset | None]],
    epsilon: float = 0.0,
) -> list[list[KTestResult]]:
    """Fit and score each ``(planner, train)`` pair on every consecutive
    three-release window; one result list per pair, in window order.

    A ``None`` train fits the planner on each window's first release; an
    external one (cross-project planning) is fitted once, serves every
    window, and is each result's ``versions["train"]``. Windows run outside
    and planners inside, so a window's developer diff is built once for all.
    """
    starts = windows(project)
    _check_epsilon(epsilon)  # before any fit
    results: list[list[KTestResult]] = [[] for _ in planners]
    for s in starts:
        matched = _matched_classes(project.versions[s + 1], project.versions[s + 2], epsilon)
        for (planner, train), scored in zip(planners, results):
            if train is None or s == starts[0]:
                planner.fit(project.versions[s] if train is None else train)
            result = ktest(project, s, s + 1, s + 2, planner, epsilon, _matched=matched)
            if train is not None:
                result = replace(result, versions=dict(
                    result.versions, train=f"{train.project}-{train.version}"))
            scored.append(result)
    return results
