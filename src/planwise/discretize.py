"""Supervised discretization of metric columns by recursive entropy splitting.

Cut points are accepted only when the information gain of a binary split
clears the minimum-description-length criterion, so noisy metrics end up
with no cuts at all.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .stats import _entropy_of_counts


@dataclass(frozen=True)
class BinMap:
    """Cut points splitting one metric into ordered half-open ranges.

    ``cut_points`` of length k yield k+1 ranges: ``(-inf, c1], (c1, c2], ...,
    (ck, inf)``. ``vmin``/``vmax`` record the observed training range and
    stand in for the unbounded endpoints when a concrete boundary is needed.
    """

    metric: str
    cut_points: tuple[float, ...]
    vmin: float
    vmax: float

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.cut_points, self.cut_points[1:])):
            raise ValueError("cut points must be strictly increasing")

    @property
    def n_ranges(self) -> int:
        return len(self.cut_points) + 1

    def range_bounds(self, index: int) -> tuple[float, float]:
        """Concrete (low, high) endpoints of one range."""
        if not 0 <= index < self.n_ranges:
            raise IndexError(f"range index {index} out of bounds")
        low = self.vmin if index == 0 else self.cut_points[index - 1]
        high = self.vmax if index == len(self.cut_points) else self.cut_points[index]
        return low, high


def apply_bins(bins: BinMap, value: float) -> int:
    """Index of the range containing ``value`` (left range is value <= cut)."""
    return bisect_left(bins.cut_points, value)


def _group_by_value(
    values: Sequence[float], labels: Sequence[int]
) -> tuple[list[float], list[Counter]]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    distinct: list[float] = []
    counts: list[Counter] = []
    for i in order:
        v = float(values[i])
        if distinct and distinct[-1] == v:
            counts[-1][labels[i]] += 1
        else:
            distinct.append(v)
            counts.append(Counter({labels[i]: 1}))
    return distinct, counts


def _mdl_accepts(
    gain: float, n: int, whole: Counter, left: Counter, right: Counter
) -> bool:
    k = len(whole)
    k1, k2 = len(left), len(right)
    delta = math.log2(3.0**k - 2.0) - (
        k * _entropy_of_counts(whole)
        - k1 * _entropy_of_counts(left)
        - k2 * _entropy_of_counts(right)
    )
    return gain > (math.log2(n - 1) + delta) / n


def _split_interval(
    distinct: list[float], counts: list[Counter], lo: int, hi: int
) -> list[float]:
    """Recursively find accepted cut points within groups ``[lo, hi)``."""
    whole = Counter()
    for i in range(lo, hi):
        whole += counts[i]
    n = sum(whole.values())
    if len(whole) < 2 or n < 2:
        return []
    whole_entropy = _entropy_of_counts(whole)

    best = None  # (gain, cut, split_index, left, right)
    left = Counter()
    n_left = 0
    for i in range(lo, hi - 1):
        left += counts[i]
        n_left += sum(counts[i].values())
        # Boundary points only: skip midpoints between two pure groups of
        # the same class (the optimal split never lies there).
        if (
            len(counts[i]) == 1
            and len(counts[i + 1]) == 1
            and next(iter(counts[i])) == next(iter(counts[i + 1]))
        ):
            continue
        right = whole - left
        n_right = n - n_left
        gain = whole_entropy - (
            n_left * _entropy_of_counts(left) + n_right * _entropy_of_counts(right)
        ) / n
        cut = (distinct[i] + distinct[i + 1]) / 2.0
        if best is None or gain > best[0] + 1e-15:
            best = (gain, cut, i + 1, Counter(left), right)

    if best is None:
        return []
    gain, cut, split_index, left_counts, right_counts = best
    if not _mdl_accepts(gain, n, whole, left_counts, right_counts):
        return []
    return (
        _split_interval(distinct, counts, lo, split_index)
        + [cut]
        + _split_interval(distinct, counts, split_index, hi)
    )


def mdlp_cuts(
    values: Sequence[float], labels: Sequence[int], metric: str = ""
) -> BinMap:
    """Discretize one metric column against binary class labels.

    Recursive binary splitting at class-boundary midpoints, each split
    accepted only if its information gain exceeds the MDL threshold. Ties
    between equal-gain cuts are broken toward the smallest cut value.
    """
    if len(values) != len(labels):
        raise ValueError("values and labels must have equal length")
    if len(values) < 2:
        return BinMap(
            metric,
            (),
            float(min(values, default=0.0)),
            float(max(values, default=0.0)),
        )
    distinct, counts = _group_by_value(values, labels)
    cuts = _split_interval(distinct, counts, 0, len(distinct))
    return BinMap(metric, tuple(cuts), distinct[0], distinct[-1])
