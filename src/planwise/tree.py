"""Defect-scored decision tree over discretized metrics.

Internal nodes split on one metric's discretized ranges; every leaf keeps
the mean raw defect count of the training records that reached it. The same
tree doubles as the defect predictor used for exemplar-project discovery.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from operator import lt
from typing import Optional

from .datasets import METRIC_INDEX, METRICS, ClassRecord, VersionedDataset
from .discretize import BinMap, mdlp_cuts
from .stats import _entropy_of_counts

DEFAULT_MAX_DEPTH = 10
PREDICT_THRESHOLD = 0.5


@dataclass(frozen=True)
class Branch:
    """Root-to-leaf conditions plus the leaf's defect score.

    Each condition is a ``(metric, range index)`` pair: the metric a node
    splits on and the discretized range the branch takes there. The range's
    bounds are the split's ``BinMap.range_bounds(index)``.
    """

    conditions: tuple[tuple[str, int], ...]
    score: float


@dataclass(frozen=True)
class TreeNode:
    """Node of the defect tree; a leaf when ``split_bins`` is None.

    A split node splits on ``split_bins.metric``, kept as ``split_metric``;
    ``split_index`` is that metric's position in a record's ``values``.
    ``route`` maps each of its range indexes to ``(child key, child)``: the
    range's own child, or the nearest child when that range had no training
    rows (ties to the smaller key). Every child key must name a range of the
    split. Leaves have an empty route and no split metric or index.
    ``verdict`` is the prediction every leaf under the node gives: a leaf's
    ``score > PREDICT_THRESHOLD``, a split's the one its children share, or
    None when they differ.
    """

    score: float
    support: int
    level: int
    split_bins: Optional[BinMap] = None
    children: Optional[dict[int, "TreeNode"]] = None
    split_metric: Optional[str] = field(init=False, compare=False, repr=False)
    route: tuple[tuple[int, "TreeNode"], ...] = field(
        init=False, compare=False, repr=False
    )
    split_index: Optional[int] = field(init=False, compare=False, repr=False)
    verdict: Optional[bool] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        metric, route, split_index = None, (), None
        verdict = self.score > PREDICT_THRESHOLD
        if self.split_bins is not None:
            metric = self.split_bins.metric
            if not self.children:
                raise ValueError("a split node needs at least one child")
            n_ranges = self.split_bins.n_ranges
            for key in self.children:
                if not 0 <= key < n_ranges:
                    raise ValueError(f"child key {key} names no range of {metric}")
            keys = (
                min(self.children, key=lambda k: (abs(k - idx), k))
                for idx in range(n_ranges)
            )
            route = tuple((key, self.children[key]) for key in keys)
            split_index = METRIC_INDEX[metric]
            verdicts = {child.verdict for child in self.children.values()}
            verdict = verdicts.pop() if len(verdicts) == 1 else None
        object.__setattr__(self, "split_metric", metric)
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "split_index", split_index)
        object.__setattr__(self, "verdict", verdict)

    @property
    def is_leaf(self) -> bool:
        return self.split_bins is None


# Translates the 0/1 bytes of flags to the digits of a base-2 numeral.
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _rows_where(flags) -> int:
    """The rows whose flag is true, as an int with bit i for row i."""
    return int(bytes(flags).translate(_DIGITS)[::-1], 2)


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
    # A set of rows is an int with bit i for row i. Each splittable metric
    # keeps one mask per non-empty range, and range k holds the rows with k
    # cut points below their value, as apply_bins gives. planes[b] holds bit b
    # of every defect count, so a node's counts are each a ``&`` and a
    # ``bit_count``.
    defects = [r.defects for r in records]
    positive = _rows_where(d > 0 for d in defects)
    planes = [_rows_where(d >> b & 1 for d in defects)
              for b in range(max(defects).bit_length())]
    everyone = (1 << len(records)) - 1
    masks = {}
    for metric in METRICS:
        cuts = bins[metric].cut_points
        if cuts:
            column = train.column(metric)
            above = [everyone, *(_rows_where(map(lt, repeat(cut), column)) for cut in cuts), 0]
            masks[metric] = [(key, mask) for key in range(len(cuts) + 1)
                             if (mask := above[key] & ~above[key + 1])]

    def grow(rows: int, level: int, used: frozenset[str]) -> TreeNode:
        support = rows.bit_count()
        total = sum((rows & plane).bit_count() << b for b, plane in enumerate(planes))
        score = total / support
        leaf = TreeNode(score=score, support=support, level=level)
        positives = (rows & positive).bit_count()
        if level >= max_depth or positives in (0, support):
            return leaf
        parent = _entropy_of_counts((support - positives, positives))

        best_metric = None
        best_gain = 0.0
        best_parts: list[tuple[int, int]] = []
        for metric, ranges in masks.items():
            if metric in used:
                continue
            # Groups in key order: with three or more groups the weighted-
            # entropy sum depends on the order of its terms, so a fixed order
            # keeps the tree independent of the row order.
            parts = [(key, part) for key, mask in ranges if (part := rows & mask)]
            sizes = [part.bit_count() for _, part in parts]
            if len(parts) < 2 or min(sizes) < min_leaf:
                continue
            weighted = sum(
                size * _entropy_of_counts((size - p, p))
                for size, p in zip(sizes, [(part & positive).bit_count() for _, part in parts])
            ) / support
            gain = parent - weighted
            if gain > best_gain + 1e-12:
                best_metric, best_gain, best_parts = metric, gain, parts
        if best_metric is None:
            return leaf

        used = used | {best_metric}
        return TreeNode(
            score=score,
            support=support,
            level=level,
            split_bins=bins[best_metric],
            children={key: grow(part, level + 1, used) for key, part in best_parts},
        )

    # ``grow`` reaches itself through its closure; deleting it breaks the cycle.
    try:
        return grow(everyone, 0, frozenset())
    finally:
        del grow


def locate(tree: TreeNode, record: ClassRecord) -> Branch:
    """The unique root-to-leaf branch a record satisfies."""
    conditions: list[tuple[str, int]] = []
    node = tree
    while not node.is_leaf:
        key, child = node.route[
            bisect_left(node.split_bins.cut_points, record.values[node.split_index])
        ]
        conditions.append((node.split_metric, key))
        node = child
    return Branch(tuple(conditions), node.score)


def leaves(node: TreeNode, prefix: tuple[tuple[str, int], ...] = ()) -> list[Branch]:
    """Every leaf branch under ``node`` in child-key order; ``prefix`` holds
    the conditions that lead from the root to ``node``."""
    if node.is_leaf:
        return [Branch(prefix, node.score)]
    out: list[Branch] = []
    for key in sorted(node.children):
        out.extend(leaves(node.children[key], prefix + ((node.split_metric, key),)))
    return out


def predict_defective(tree: TreeNode, record: ClassRecord) -> bool:
    """True when the located leaf's mean defect count exceeds PREDICT_THRESHOLD.

    Routes like ``locate``, through each node's ``route``, but stops at the
    first node whose leaves all agree and returns their ``verdict``.
    """
    node = tree
    while node.verdict is None:
        node = node.route[
            bisect_left(node.split_bins.cut_points, record.values[node.split_index])
        ][1]
    return node.verdict


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
