"""Defect-scored decision tree over discretized metrics.

Internal nodes split on one metric's discretized ranges; every leaf keeps
the mean raw defect count of the training records that reached it. The same
tree doubles as the defect predictor used for exemplar-project discovery.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from operator import itemgetter
from typing import Optional

from .datasets import METRIC_INDEX, METRICS, ClassRecord, VersionedDataset
from .discretize import BinMap, mdlp_cuts
from .stats import _entropy_of_counts

DEFAULT_MAX_DEPTH = 10
PREDICT_THRESHOLD = 0.5


@dataclass(frozen=True)
class Condition:
    """One branch condition: a metric constrained to one discretized range."""

    metric: str
    range_index: int
    low: float
    high: float

    def key(self) -> tuple[str, int]:
        return (self.metric, self.range_index)


@dataclass(frozen=True)
class Branch:
    """Root-to-leaf conditions plus the leaf's defect score."""

    conditions: tuple[Condition, ...]
    score: float

    def condition_keys(self) -> frozenset[tuple[str, int]]:
        return frozenset(c.key() for c in self.conditions)

    def sort_key(self) -> tuple:
        return tuple(c.key() for c in self.conditions)


@dataclass(frozen=True)
class TreeNode:
    """Node of the defect tree; a leaf when ``split_metric`` is None.

    ``route`` maps each range index of the split metric to ``(child key,
    child)``: the range's own child, or the nearest child when that range had
    no training rows (ties to the smaller key). ``conditions`` maps each child
    key to the ``Condition`` of its range, built once here for ``locate`` and
    ``leaves``, and ``split_index`` is the split metric's position in a
    record's ``values``. Leaves have an empty route, no conditions and no
    split index.
    """

    score: float
    support: int
    level: int
    split_metric: Optional[str] = None
    split_bins: Optional[BinMap] = None
    children: Optional[dict[int, "TreeNode"]] = None
    route: tuple[tuple[int, "TreeNode"], ...] = field(
        init=False, compare=False, repr=False
    )
    conditions: dict[int, Condition] = field(init=False, compare=False, repr=False)
    split_index: Optional[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        route, conditions, split_index = (), {}, None
        if self.split_metric is not None:
            if not self.children:
                raise ValueError("a split node needs at least one child")
            keys = (
                min(self.children, key=lambda k: (abs(k - idx), k))
                for idx in range(self.split_bins.n_ranges)
            )
            route = tuple((key, self.children[key]) for key in keys)
            conditions = {
                key: Condition(self.split_metric, key, *self.split_bins.range_bounds(key))
                for key in self.children
            }
            split_index = METRIC_INDEX[self.split_metric]
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "conditions", conditions)
        object.__setattr__(self, "split_index", split_index)

    @property
    def is_leaf(self) -> bool:
        return self.split_metric is None


def default_min_leaf(n_records: int) -> int:
    return max(5, n_records // 50)


def fit_bins(train: VersionedDataset) -> dict[str, BinMap]:
    """Discretize every metric of a training set against defectiveness."""
    labels = [1 if r.is_defective() else 0 for r in train.records]
    return {
        metric: mdlp_cuts(train.column(metric), labels, metric=metric)
        for metric in METRICS
    }


def build_tree(
    train: VersionedDataset,
    bins: dict[str, BinMap],
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_leaf: int | None = None,
) -> TreeNode:
    """Grow the defect tree by recursive information-gain splitting.

    At each node the metric with the highest gain on the binary defective
    label wins (ties go to canonical metric order); growth stops at
    ``max_depth``, when a split would leave a child below ``min_leaf``
    records, or when no split has positive gain.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    records = train.records
    if min_leaf is None:
        min_leaf = default_min_leaf(len(records))
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    # Each row's defect count, label and range index per splittable metric
    # (apply_bins) are computed once; a node gathers its rows of each with one
    # itemgetter, which for a single row returns the item, not a 1-tuple.
    defects = [r.defects for r in records]
    labels = [1 if d > 0 else 0 for d in defects]
    columns = {
        metric: list(map(partial(bisect_left, bins[metric].cut_points),
                         train.column(metric)))
        for metric in METRICS
        if bins[metric].n_ranges >= 2
    }

    def grow(rows: list[int], level: int, used: frozenset[str]) -> TreeNode:
        support = len(rows)
        pick = itemgetter(*rows) if support > 1 else lambda seq: (seq[rows[0]],)
        score = sum(pick(defects)) / support
        leaf = TreeNode(score=score, support=support, level=level)
        if level >= max_depth:
            return leaf
        here = pick(labels)
        positives = sum(here)
        if positives == 0 or positives == support:
            return leaf
        parent = _entropy_of_counts((support - positives, positives))

        best_metric = None
        best_gain = 0.0
        best_keys: list[int] = []
        for metric, column in columns.items():
            if metric in used:
                continue
            keys = pick(column)
            # Groups in key order: with three or more groups the weighted-
            # entropy sum depends on the order of its terms, so a fixed order
            # keeps the tree independent of the row order.
            groups = sorted(set(keys))
            sizes = [keys.count(key) for key in groups]
            if len(groups) < 2 or min(sizes) < min_leaf:
                continue
            positive_keys = list(compress(keys, here))
            weighted = sum(
                size * _entropy_of_counts((size - p, p))
                for size, p in zip(sizes, map(positive_keys.count, groups))
            ) / support
            gain = parent - weighted
            if gain > best_gain + 1e-12:
                best_metric, best_gain, best_keys = metric, gain, groups
        if best_metric is None:
            return leaf

        column = columns[best_metric]
        parts: dict[int, list[int]] = {key: [] for key in best_keys}
        for i in rows:
            parts[column[i]].append(i)
        used = used | {best_metric}
        return TreeNode(
            score=score,
            support=support,
            level=level,
            split_metric=best_metric,
            split_bins=bins[best_metric],
            children={key: grow(part, level + 1, used) for key, part in parts.items()},
        )

    # ``grow`` reaches itself through its closure; deleting it breaks the cycle.
    try:
        return grow(list(range(len(records))), 0, frozenset())
    finally:
        del grow


def locate(tree: TreeNode, record: ClassRecord) -> Branch:
    """The unique root-to-leaf branch a record satisfies."""
    conditions: list[Condition] = []
    node = tree
    while not node.is_leaf:
        key, child = node.route[
            bisect_left(node.split_bins.cut_points, record.values[node.split_index])
        ]
        conditions.append(node.conditions[key])
        node = child
    return Branch(tuple(conditions), node.score)


def leaves(node: TreeNode, prefix: tuple[Condition, ...] = ()) -> list[Branch]:
    """Every leaf branch under ``node`` in child-key order; ``prefix`` holds
    the conditions that lead from the root to ``node``."""
    if node.is_leaf:
        return [Branch(prefix, node.score)]
    out: list[Branch] = []
    for key in sorted(node.children):
        out.extend(leaves(node.children[key], prefix + (node.conditions[key],)))
    return out


def predict_defective(tree: TreeNode, record: ClassRecord) -> bool:
    """True when the located leaf's mean defect count exceeds PREDICT_THRESHOLD.

    Routes exactly like ``locate``, through each node's ``route``.
    """
    node = tree
    while node.split_metric is not None:  # is_leaf, minus a property call per level
        node = node.route[
            bisect_left(node.split_bins.cut_points, record.values[node.split_index])
        ][1]
    return node.score > PREDICT_THRESHOLD


def tree_to_dict(node: TreeNode) -> dict:
    """JSON-ready representation of a tree for CLI inspection."""
    doc: dict = {
        "score": node.score,
        "support": node.support,
        "level": node.level,
    }
    if not node.is_leaf:
        doc["split_metric"] = node.split_metric
        doc["cut_points"] = list(node.split_bins.cut_points)
        doc["children"] = {
            str(key): tree_to_dict(child)
            for key, child in sorted(node.children.items())
        }
    return doc
