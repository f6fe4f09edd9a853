"""Supervised discretization of metric columns by recursive entropy splitting.

Cut points are accepted only when the information gain of a binary split
clears the minimum-description-length criterion, so noisy metrics end up
with no cuts at all.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
) -> tuple[list[float], list[list[int]]]:
    """Sorted distinct values, each with its ``[negatives, positives]`` count."""
    order = sorted(range(len(values)), key=values.__getitem__)
    distinct: list[float] = []
    counts: list[list[int]] = []
    last = None
    for i in order:
        v = float(values[i])
        if v != last:
            last = v
            distinct.append(v)
            pair = [0, 0]
            counts.append(pair)
        pair[1 if labels[i] else 0] += 1
    return distinct, counts


def _classes(counts: tuple[int, int]) -> int:
    return (counts[0] > 0) + (counts[1] > 0)


def _mdl_accepts(
    gain: float,
    n: int,
    whole: tuple[int, int],
    left: tuple[int, int],
    right: tuple[int, int],
) -> bool:
    k = _classes(whole)
    k1, k2 = _classes(left), _classes(right)
    delta = math.log2(3.0**k - 2.0) - (
        k * _entropy_of_counts(whole)
        - k1 * _entropy_of_counts(left)
        - k2 * _entropy_of_counts(right)
    )
    return gain > (math.log2(n - 1) + delta) / n


def _split_interval(
    distinct: list[float], counts: list[list[int]], lo: int, hi: int
) -> list[float]:
    """Recursively find accepted cut points within groups ``[lo, hi)``."""
    w0 = w1 = 0
    for c0, c1 in counts[lo:hi]:
        w0 += c0
        w1 += c1
    if not (w0 and w1):
        return []
    n = w0 + w1
    whole_entropy = _entropy_of_counts((w0, w1))

    best = None  # (gain, last group of the left side, left counts)
    l0 = l1 = 0
    for i in range(lo, hi - 1):
        c0, c1 = counts[i]
        l0 += c0
        l1 += c1
        # Boundary points only: skip midpoints between two pure groups of
        # the same class (the optimal split never lies there).
        d0, d1 = counts[i + 1]
        if (c0 == 0 and d0 == 0) or (c1 == 0 and d1 == 0):
            continue
        n_left = l0 + l1
        gain = whole_entropy - (
            n_left * _entropy_of_counts((l0, l1))
            + (n - n_left) * _entropy_of_counts((w0 - l0, w1 - l1))
        ) / n
        if best is None or gain > best[0] + 1e-15:
            best = (gain, i, (l0, l1))

    if best is None:
        return []
    gain, i, (l0, l1) = best
    if not _mdl_accepts(gain, n, (w0, w1), (l0, l1), (w0 - l0, w1 - l1)):
        return []
    cut = (distinct[i] + distinct[i + 1]) / 2.0
    return (
        _split_interval(distinct, counts, lo, i + 1)
        + [cut]
        + _split_interval(distinct, counts, i + 1, hi)
    )


def mdlp_cuts(
    values: Sequence[float], labels: Sequence[int], metric: str = ""
) -> BinMap:
    """Discretize one metric column against binary class labels.

    Recursive binary splitting at class-boundary midpoints, each split
    accepted only if its information gain exceeds the MDL threshold. Ties
    between equal-gain cuts are broken toward the smallest cut value.
    Labels must be 0 or 1 (bools are fine); anything else raises
    ``ValueError``.
    """
    if len(values) != len(labels):
        raise ValueError("values and labels must have equal length")
    if not set(labels) <= {0, 1}:
        bad = next(label for label in labels if label not in (0, 1))
        raise ValueError(f"labels must be binary 0/1, got {bad!r}")
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
