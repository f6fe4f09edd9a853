import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwise.discretize import BinMap, _mdl_accepts, apply_bins, mdlp_cuts
from planwise.stats import _entropy_of_counts

from conftest import mirrored_tie_column


# --- Reference oracle -------------------------------------------------------
# Naive recursive search: test every class-boundary midpoint, score it with
# the entropy/MDL formulas computed from scratch, recurse on both halves.
# Ties between equal-gain cuts go to the smallest cut value (1e-15 guard).


def _ent(labels):
    n = len(labels)
    out = 0.0
    for c in Counter(labels).values():
        out -= (c / n) * math.log2(c / n)
    return out


def oracle_cuts(values, labels):
    pairs = sorted(zip(values, labels), key=lambda t: t[0])

    def recurse(pairs):
        n = len(pairs)
        here = [label for _, label in pairs]
        if n < 2 or len(set(here)) < 2:
            return []
        groups = []
        for v, label in pairs:
            if groups and groups[-1][0] == v:
                groups[-1][1].append(label)
            else:
                groups.append((v, [label]))
        best = None
        count_left = 0
        for gi in range(len(groups) - 1):
            count_left += len(groups[gi][1])
            left_g, right_g = groups[gi][1], groups[gi + 1][1]
            if (
                len(set(left_g)) == 1
                and len(set(right_g)) == 1
                and left_g[0] == right_g[0]
            ):
                continue
            left = [label for _, label in pairs[:count_left]]
            right = [label for _, label in pairs[count_left:]]
            gain = _ent(here) - (len(left) * _ent(left) + len(right) * _ent(right)) / n
            cut = (groups[gi][0] + groups[gi + 1][0]) / 2.0
            if best is None or gain > best[0] + 1e-15:
                best = (gain, cut, count_left)
        if best is None:
            return []
        gain, cut, split = best
        left = [label for _, label in pairs[:split]]
        right = [label for _, label in pairs[split:]]
        k, k1, k2 = len(set(here)), len(set(left)), len(set(right))
        delta = math.log2(3.0**k - 2.0) - (
            k * _ent(here) - k1 * _ent(left) - k2 * _ent(right)
        )
        if not gain > (math.log2(n - 1) + delta) / n:
            return []
        return recurse(pairs[:split]) + [cut] + recurse(pairs[split:])

    return recurse(pairs)


def random_dataset(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    if rng.random() < 0.5:
        values = rng.integers(0, 8, n).astype(float)  # many duplicates
    else:
        values = np.round(rng.random(n) * 10.0, 3)
    labels = rng.integers(0, 2, n).astype(int)
    if len(set(labels)) < 2 and n >= 2:
        labels[0] = 1 - labels[0]
    return list(values), list(labels)


def random_large_dataset(seed):
    """200-600 rows with many duplicate values and labels that follow the
    value often enough for the MDL criterion to accept cuts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 601))
    if seed % 2:
        values = rng.integers(0, int(rng.integers(5, 60)), n).astype(float)
    else:
        values = np.round(rng.random(n) * 10.0, 1)
    span = values.max() - values.min() or 1.0
    ramp = (values - values.min()) / span
    p = 1.0 / (1.0 + np.exp(-rng.uniform(2.0, 12.0) * (ramp - rng.uniform(0.2, 0.8))))
    labels = (rng.random(n) < p).astype(int)
    return list(values), list(labels)


# --- Scalar path oracle -----------------------------------------------------
# The grouping and interval search that the prefix-count pass replaced: an
# index sort walked in Python, each interval's counts summed afresh, the
# boundary rule tested at every level and each side's entropy from counts.


def scalar_group_by_value(values, labels):
    order = sorted(range(len(values)), key=values.__getitem__)
    distinct, counts, last = [], [], None
    for i in order:
        v = float(values[i])
        if v != last:
            last = v
            distinct.append(v)
            pair = [0, 0]
            counts.append(pair)
        pair[1 if labels[i] else 0] += 1
    return distinct, counts


def scalar_split_interval(distinct, counts, lo, hi):
    w0 = sum(c0 for c0, _ in counts[lo:hi])
    w1 = sum(c1 for _, c1 in counts[lo:hi])
    if not (w0 and w1):
        return []
    n = w0 + w1
    whole_entropy = _entropy_of_counts((w0, w1))
    best = None
    l0 = l1 = 0
    for i in range(lo, hi - 1):
        c0, c1 = counts[i]
        l0 += c0
        l1 += c1
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
    return (
        scalar_split_interval(distinct, counts, lo, i + 1)
        + [(distinct[i] + distinct[i + 1]) / 2.0]
        + scalar_split_interval(distinct, counts, i + 1, hi)
    )


def scalar_mdlp_cuts(values, labels):
    # The range's ends are stored as +0.0 where they are zeros of either sign.
    if len(values) < 2:
        low = float(min(values, default=0.0)) + 0.0
        return BinMap("", (), low, float(max(values, default=0.0)) + 0.0)
    distinct, counts = scalar_group_by_value(values, labels)
    cuts = scalar_split_interval(distinct, counts, 0, len(distinct))
    return BinMap("", tuple(cuts), distinct[0] + 0.0, distinct[-1] + 0.0)


# Ints, floats equal to them and both signed zeros, so groups merge values
# of different types and the first-seen one must stand for the group.
TIE_VALUES = (-2, -1.5, -1, -1.0, -0.0, 0, 0.0, 0.5, 1, 1.0, 2, 2.0, 2.25, 3, 7.5)


@st.composite
def tie_heavy_columns(draw):
    values = draw(st.lists(st.sampled_from(TIE_VALUES), max_size=80))
    threshold = draw(st.sampled_from(TIE_VALUES))
    flips = draw(st.lists(st.integers(0, 5), min_size=len(values), max_size=len(values)))
    labels = [(v > threshold) != (f == 0) for v, f in zip(values, flips)]
    if draw(st.booleans()):
        labels = [int(label) for label in labels]
    return values, labels


class TestMdlpCuts:
    def test_pure_labels_yield_no_cuts(self):
        bins = mdlp_cuts([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        assert bins.cut_points == ()

    def test_two_separated_blocks_yield_one_cut(self):
        rng = np.random.default_rng(5)
        low = rng.random(50)            # labels 0 in [0, 1]
        high = 2.0 + rng.random(50)     # labels 1 in [2, 3]
        values = list(low) + list(high)
        labels = [0] * 50 + [1] * 50
        bins = mdlp_cuts(values, labels)
        assert len(bins.cut_points) == 1
        assert 1.0 < bins.cut_points[0] < 2.0

    def test_matches_oracle_on_random_small_datasets(self):
        for seed in range(200):
            values, labels = random_dataset(seed)
            got = mdlp_cuts(values, labels).cut_points
            expected = tuple(oracle_cuts(values, labels))
            assert got == expected, f"seed {seed}: {got} != {expected}"

    def test_matches_oracle_on_large_tie_heavy_datasets(self):
        with_cuts = 0
        for seed in range(40):
            values, labels = random_large_dataset(seed)
            got = mdlp_cuts(values, labels).cut_points
            expected = tuple(oracle_cuts(values, labels))
            assert got == expected, f"seed {seed}: {got} != {expected}"
            with_cuts += bool(got)
        assert with_cuts >= 30  # the oracle is exercised beyond "no cuts"

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError, match="got 2"):
            mdlp_cuts([1.0, 2.0, 3.0], [0, 1, 2])
        with pytest.raises(ValueError, match="got -1"):
            mdlp_cuts([1.0, 2.0], [-1, 1])
        bools = mdlp_cuts([1.0, 2.0, 3.0, 4.0], [False, False, True, True])
        assert bools == mdlp_cuts([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])

    def test_exact_gain_tie_goes_to_the_smaller_cut(self):
        values, labels = mirrored_tie_column()
        assert mdlp_cuts(values, labels).cut_points == (0.5,)
        assert tuple(oracle_cuts(values, labels)) == (0.5,)
        assert mdlp_cuts(values[::-1], labels[::-1]).cut_points == (0.5,)

    @given(tie_heavy_columns())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_scalar_path_on_tie_heavy_columns(self, column):
        values, labels = column
        got, want = mdlp_cuts(values, labels), scalar_mdlp_cuts(values, labels)
        assert (got.cut_points, got.vmin, got.vmax) == (
            want.cut_points, want.vmin, want.vmax
        )
        # Types and signs too: -0.0 == 0.0 and 1 == 1.0 would hide a change.
        assert repr((got.cut_points, got.vmin, got.vmax)) == repr(
            (want.cut_points, want.vmin, want.vmax)
        )

    def test_scalar_path_oracle_sees_cuts_and_signed_zeros(self):
        values = [0.0, -0.0, 0, 1, 1.0, 2, 3, 3.0, 4, 5] * 3
        labels = [v >= 3 for v in values]
        assert mdlp_cuts(values, labels).cut_points == (2.5,)
        assert scalar_mdlp_cuts(values, labels).cut_points == (2.5,)
        assert repr(mdlp_cuts(values, labels).vmin) == "0.0"
        assert repr(mdlp_cuts(values[1:], labels[1:]).vmin) == "0.0"
        # A zero at either end is stored as 0.0, whichever sign came first.
        assert repr(mdlp_cuts([-1.0, -0.0, 0.0], [0, 1, 1]).vmax) == "0.0"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, bad):
        with pytest.raises(ValueError, match="'loc'.*finite"):
            mdlp_cuts([1.0, bad, 3.0, 4.0], [0, 1, 0, 1], metric="loc")
        with pytest.raises(ValueError, match="'wmc'"):
            mdlp_cuts([bad], [1], metric="wmc")

    def test_rerun_is_bit_identical(self):
        values, labels = random_dataset(123)
        assert mdlp_cuts(values, labels) == mdlp_cuts(values, labels)

    def test_records_observed_range(self):
        bins = mdlp_cuts([3.0, 9.0, 5.0], [0, 1, 0])
        assert bins.vmin == 3.0
        assert bins.vmax == 9.0


class TestApplyBins:
    def test_no_cuts_always_index_zero(self):
        bins = BinMap("m", (), 0.0, 10.0)
        assert apply_bins(bins, -1e9) == 0
        assert apply_bins(bins, 1e9) == 0

    def test_boundary_belongs_to_left_range(self):
        bins = BinMap("m", (5.0,), 0.0, 10.0)
        assert apply_bins(bins, 5.0) == 0
        assert apply_bins(bins, 5.0001) == 1

    def test_interior_range(self):
        bins = BinMap("m", (2.0, 7.0), 0.0, 10.0)
        assert apply_bins(bins, 3.0) == 1

    @given(st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=100)
    def test_monotone_and_total(self, a, b):
        bins = BinMap("m", (-10.0, 0.0, 10.0), -50.0, 50.0)
        lo, hi = min(a, b), max(a, b)
        assert 0 <= apply_bins(bins, lo) <= apply_bins(bins, hi) <= 3

    def test_every_training_value_maps(self):
        values, labels = random_dataset(9)
        bins = mdlp_cuts(values, labels)
        for v in values:
            assert 0 <= apply_bins(bins, v) < bins.n_ranges


class TestBinMap:
    def test_cut_points_must_increase(self):
        with pytest.raises(ValueError):
            BinMap("m", (3.0, 3.0), 0.0, 5.0)

    def test_range_bounds_use_observed_extremes(self):
        bins = BinMap("loc", (10.0, 50.0), 2.0, 400.0)
        assert bins.range_bounds(0) == (2.0, 10.0)
        assert bins.range_bounds(1) == (10.0, 50.0)
        assert bins.range_bounds(2) == (50.0, 400.0)
        for index in (-1, 3):
            with pytest.raises(IndexError, match="out of bounds"):
                bins.range_bounds(index)
