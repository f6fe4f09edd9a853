"""Supervised discretization of metric columns by recursive entropy splitting.

Cut points are accepted only when the information gain of a binary split
clears the minimum-description-length criterion, so noisy metrics end up
with no cuts at all. A column is grouped once into its distinct values' class
counts; the recursion reads every interval's counts from their prefix sums.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from math import inf, isfinite, log2
from operator import sub

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
) -> tuple[list[float], list[int], list[int]]:
    """Sorted distinct values as floats, with their negative and positive
    counts; the first seen of two equal values (``-0.0``/``0.0``) stands for both."""
    totals = Counter(map(float, values))
    positives = Counter(map(float, compress(values, labels)))
    distinct = sorted(totals)
    pos = list(map(positives.get, distinct, repeat(0)))
    return distinct, list(map(sub, map(totals.__getitem__, distinct), pos)), pos


def _mdl_accepts(
    gain: float,
    n: int,
    whole: tuple[int, int],
    left: tuple[int, int],
    right: tuple[int, int],
) -> bool:
    # ``whole`` holds both classes and a pure side has entropy 0, so the
    # class counts k, k1 and k2 of the criterion can all be taken as 2.
    delta = log2(3.0**2 - 2.0) - (
        2 * _entropy_of_counts(whole)
        - 2 * _entropy_of_counts(left)
        - 2 * _entropy_of_counts(right)
    )
    return gain > (log2(n - 1) + delta) / n


def _split_interval(
    distinct: list[float], cum0: list[int], cum1: list[int], boundaries: list[int],
    lo: int, hi: int,
) -> list[float]:
    """Recursively find accepted cut points within groups ``[lo, hi)``.

    ``cum0``/``cum1`` are the prefix sums of the groups' negative and positive
    counts, so each side of a candidate costs two subtractions. ``boundaries``
    lists, once per column, the gaps ``i`` (between groups ``i`` and ``i + 1``)
    that do not join two pure groups of the same class, where the optimal
    split never lies; only those in ``[lo, hi - 1)`` are scored.
    """
    base0, base1 = cum0[lo], cum1[lo]
    w0, w1 = cum0[hi] - base0, cum1[hi] - base1
    if not (w0 and w1):
        return []
    n = w0 + w1
    whole_entropy = _entropy_of_counts((w0, w1))

    best_gain, best = -inf, None  # best: last group of the left side
    for i in boundaries[bisect_left(boundaries, lo):bisect_left(boundaries, hi - 1)]:
        l0, l1 = cum0[i + 1] - base0, cum1[i + 1] - base1
        r0, r1, n_left = w0 - l0, w1 - l1, l0 + l1
        # Each side's _entropy_of_counts, inlined with the same float steps.
        p, q = l0 / n_left, l1 / n_left
        h_left = (0.0 - p * log2(p) if l0 else 0.0) - (q * log2(q) if l1 else 0.0)
        p, q = r0 / (n - n_left), r1 / (n - n_left)
        h_right = (0.0 - p * log2(p) if r0 else 0.0) - (q * log2(q) if r1 else 0.0)
        gain = whole_entropy - (n_left * h_left + (n - n_left) * h_right) / n
        if gain > best_gain + 1e-15:
            best_gain, best = gain, i

    if best is None:
        return []
    l0, l1 = cum0[best + 1] - base0, cum1[best + 1] - base1
    if not _mdl_accepts(best_gain, n, (w0, w1), (l0, l1), (w0 - l0, w1 - l1)):
        return []
    cut = (distinct[best] + distinct[best + 1]) / 2.0
    return (
        _split_interval(distinct, cum0, cum1, boundaries, lo, best + 1)
        + [cut]
        + _split_interval(distinct, cum0, cum1, boundaries, best + 1, hi)
    )


def mdlp_cuts(
    values: Sequence[float], labels: Sequence[int], metric: str = ""
) -> BinMap:
    """Discretize one metric column against binary class labels.

    Recursive binary splitting at class-boundary midpoints, each split
    accepted only if its information gain exceeds the MDL threshold. Ties
    between equal-gain cuts are broken toward the smallest cut value.
    Labels must be 0 or 1 (bools are fine) and values finite; anything else
    raises ``ValueError``.
    """
    if len(values) != len(labels):
        raise ValueError("values and labels must have equal length")
    if not set(labels) <= {0, 1}:
        bad = next(label for label in labels if label not in (0, 1))
        raise ValueError(f"labels must be binary 0/1, got {bad!r}")
    distinct, negatives, positives = _group_by_value(values, labels)
    if not all(map(isfinite, distinct)):
        bad = next(v for v in distinct if not isfinite(v))
        raise ValueError(f"metric {metric!r}: values must be finite, got {bad!r}")
    if not distinct:
        return BinMap(metric, (), 0.0, 0.0)
    gaps = enumerate(zip(negatives, positives, negatives[1:], positives[1:]))
    boundaries = [i for i, (a0, a1, b0, b1) in gaps if (a0 or b0) and (a1 or b1)]
    cum0, cum1 = [0, *accumulate(negatives)], [0, *accumulate(positives)]
    cuts = _split_interval(distinct, cum0, cum1, boundaries, 0, len(distinct))
    # The training range's ends as +0.0, not the first-seen zero of either
    # sign, so the row order cannot change them; a cut's sign is already fixed.
    return BinMap(metric, tuple(cuts), distinct[0] + 0.0, distinct[-1] + 0.0)
