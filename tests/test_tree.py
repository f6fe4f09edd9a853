import gc
import math
from bisect import bisect_left
from functools import lru_cache
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwise.datasets import DECREASE, INCREASE, METRICS, NO_CHANGE, pool_versions
from planwise.discretize import BinMap
from planwise.planners import plan_targets, xtree_plan
from planwise.stats import _entropy_of_counts
from planwise.tree import (
    Branch,
    TreeNode,
    build_tree,
    default_min_leaf,
    fit_bins,
    leaves,
    locate,
    PREDICT_THRESHOLD,
    predict_defective,
    tree_to_dict,
)

from conftest import (
    TIE_HEAVY_RANGES,
    gain_floor_split,
    make_dataset,
    make_record,
    random_trees,
    stacked_releases,
    tie_heavy_community,
    tie_heavy_history,
    unpopulated_middle_tree,
)


def two_leaf_tree():
    bins = BinMap("loc", (50.0,), 0.0, 100.0)
    low = TreeNode(score=0.0, support=10, level=1)
    high = TreeNode(score=4.0, support=10, level=1)
    return TreeNode(
        score=2.0, support=20, level=0,
        split_bins=bins, children={0: low, 1: high},
    )


def three_level_tree():
    loc_bins = BinMap("loc", (50.0,), 0.0, 100.0)
    rfc_bins = BinMap("rfc", (10.0,), 0.0, 40.0)
    leaf_00 = TreeNode(score=0.0, support=5, level=2)
    leaf_01 = TreeNode(score=2.0, support=5, level=2)
    low = TreeNode(
        score=1.0, support=10, level=1,
        split_bins=rfc_bins,
        children={0: leaf_00, 1: leaf_01},
    )
    high = TreeNode(score=8.0, support=10, level=1)
    return TreeNode(
        score=4.5, support=20, level=0,
        split_bins=loc_bins, children={0: low, 1: high},
    )


def planted_dataset(n_per_side=20, seed=0):
    """loc perfectly separates defective from clean records."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_per_side):
        records.append(
            make_record(f"clean{i}", defects=0, loc=float(rng.uniform(1, 10)),
                        rfc=float(rng.uniform(0, 40)))
        )
        records.append(
            make_record(f"buggy{i}", defects=3, loc=float(rng.uniform(100, 200)),
                        rfc=float(rng.uniform(0, 40)))
        )
    return make_dataset(records)


def walk_depth(doc, depth=0):
    children = doc.get("children")
    if not children:
        return depth
    return max(walk_depth(child, depth + 1) for child in children.values())


def iter_leaves(doc):
    children = doc.get("children")
    if not children:
        yield doc
        return
    for child in children.values():
        yield from iter_leaves(child)


def scalar_build_tree(train, bins, max_depth, min_leaf):
    """``build_tree``'s growth with every node gathering its rows one by one
    in list comprehensions, each row's range from ``bisect_left`` as in
    ``apply_bins``: the oracle of the bitset growth."""
    defects = [r.defects for r in train.records]
    labels = [1 if d > 0 else 0 for d in defects]
    columns = {
        m: [bisect_left(bins[m].cut_points, r.metrics[m]) for r in train.records]
        for m in METRICS
        if bins[m].n_ranges >= 2
    }

    def grow(rows, level, used):
        support = len(rows)
        score = sum([defects[i] for i in rows]) / support
        leaf = TreeNode(score=score, support=support, level=level)
        here = [labels[i] for i in rows]
        positives = sum(here)
        if level >= max_depth or positives in (0, support):
            return leaf
        parent = _entropy_of_counts((support - positives, positives))
        best_metric, best_gain, best_keys = None, 0.0, []
        for metric, column in columns.items():
            if metric in used:
                continue
            keys = [column[i] for i in rows]
            groups = sorted(set(keys))
            sizes = [keys.count(key) for key in groups]
            if len(groups) < 2 or min(sizes) < min_leaf:
                continue
            positive_keys = list(compress(keys, here))
            weighted = sum(
                size * _entropy_of_counts((size - p, p))
                for size, p in zip(sizes, map(positive_keys.count, groups))
            ) / support
            if parent - weighted > best_gain + 1e-12:
                best_metric, best_gain, best_keys = metric, parent - weighted, groups
        if best_metric is None:
            return leaf
        parts = {key: [] for key in best_keys}
        for i in rows:
            parts[columns[best_metric][i]].append(i)
        return TreeNode(
            score=score, support=support, level=level,
            split_bins=bins[best_metric],
            children={
                key: grow(part, level + 1, used | {best_metric})
                for key, part in parts.items()
            },
        )

    return grow(list(range(len(train.records))), 0, frozenset())


def random_tie_heavy_dataset(seed):
    """5-120 rows of integer metrics from ``TIE_HEAVY_RANGES`` with defects
    that follow a few of them, so small nodes and one-row nodes occur."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 121))
    drivers = rng.choice(list(TIE_HEAVY_RANGES), size=3, replace=False)
    records = []
    for i in range(n):
        metrics = {m: float(rng.integers(0, hi)) for m, hi in TIE_HEAVY_RANGES.items()}
        risk = sum(metrics[m] / TIE_HEAVY_RANGES[m] for m in drivers) / 3.0
        defects = int(rng.binomial(3, risk)) if rng.random() < 0.9 else 0
        records.append(make_record(f"c{i}", defects=defects, **metrics))
    return make_dataset(records)


def supports(doc):
    yield doc["support"]
    for child in doc.get("children", {}).values():
        yield from supports(child)


class TestBuildTree:
    def test_defect_free_training_gives_single_zero_leaf(self):
        ds = make_dataset([make_record(f"c{i}", loc=float(i)) for i in range(20)])
        tree = build_tree(ds, fit_bins(ds), min_leaf=2)
        assert tree.is_leaf
        assert tree.score == 0.0
        assert tree.support == 20

    def test_separating_metric_wins_the_root_split(self):
        ds = planted_dataset()
        tree = build_tree(ds, fit_bins(ds), min_leaf=5)
        assert tree.split_metric == "loc"

    def test_depth_never_exceeds_max_depth(self):
        ds = planted_dataset(n_per_side=40, seed=3)
        for max_depth in (1, 2, 3):
            tree = build_tree(ds, fit_bins(ds), max_depth=max_depth, min_leaf=1)
            assert walk_depth(tree_to_dict(tree)) <= max_depth

    def test_growth_stops_at_max_depth(self):
        # Defects are the majority of three 0/1 metrics, each cut at 0.5, so
        # an uncapped tree needs all three levels: every cap is reached exactly.
        records = [
            make_record(f"c{a}{b}{c}{copy}", defects=int(a + b + c >= 2),
                        loc=float(a), rfc=float(b), wmc=float(c))
            for a in (0, 1) for b in (0, 1) for c in (0, 1) for copy in range(5)
        ]
        ds = make_dataset(records)
        bins = {m: BinMap(m, (), 1.0, 1.0) for m in METRICS}
        bins.update((m, BinMap(m, (0.5,), 0.0, 1.0)) for m in ("loc", "rfc", "wmc"))
        assert walk_depth(tree_to_dict(build_tree(ds, bins, min_leaf=1))) == 3
        for max_depth in (1, 2):
            tree = build_tree(ds, bins, max_depth=max_depth, min_leaf=1)
            assert walk_depth(tree_to_dict(tree)) == max_depth

    def test_score_books_balance_to_total_defects(self):
        ds = planted_dataset(seed=11)
        tree = build_tree(ds, fit_bins(ds), min_leaf=3)
        leaf_total = sum(
            leaf["score"] * leaf["support"] for leaf in iter_leaves(tree_to_dict(tree))
        )
        assert leaf_total == pytest.approx(sum(r.defects for r in ds.records))

    def test_row_order_does_not_change_the_tree(self):
        ds = planted_dataset(seed=21)
        rng = np.random.default_rng(77)
        shuffled = list(ds.records)
        rng.shuffle(shuffled)
        permuted = make_dataset(shuffled)
        tree_a = build_tree(ds, fit_bins(ds), min_leaf=3)
        tree_b = build_tree(permuted, fit_bins(permuted), min_leaf=3)
        assert tree_to_dict(tree_a) == tree_to_dict(tree_b)

    def test_gain_at_the_floor_does_not_depend_on_row_order(self):
        # The same rows in two orders, with a gain within two float steps of
        # the 1e-12 floor: the groups' weighted entropies are added in key
        # order, so both orders agree, and the gain stays below the floor.
        forward = build_tree(*gain_floor_split())
        backward = build_tree(*gain_floor_split(reverse=True))
        assert tree_to_dict(forward) == tree_to_dict(backward)
        assert forward.is_leaf and backward.is_leaf

    def test_gain_at_the_floor_is_summed_left_to_right(self, monkeypatch):
        # Added left to right from 0.0, this split's weighted entropies give
        # a gain one float step above the floor; added with compensation, as
        # Python 3.12's ``sum`` and ``math.fsum`` add them, one below. The
        # tree adds them with ``reduce``, so every Python splits here. A
        # ``sum`` in its place would call the ``fsum`` patched in here, on
        # any Python, and leave a leaf.
        monkeypatch.setattr("planwise.tree.sum", math.fsum, raising=False)
        assert not build_tree(*gain_floor_split(largest_first=True)).is_leaf

    def test_matches_the_scalar_path_on_random_datasets(self):
        one_row_nodes = splits = 0
        for seed in range(60):
            ds = random_tie_heavy_dataset(seed)
            # Fitted bins, or a cut between every two integers of a third of
            # the metrics: those split into many small ranges, down to one row.
            bins = fit_bins(ds)
            if seed % 2:
                bins.update(
                    (m, BinMap(m, tuple(k + 0.5 for k in range(hi - 1)), 0.0, hi - 1.0))
                    for m, hi in list(TIE_HEAVY_RANGES.items())[seed % 3::3]
                )
            for max_depth, min_leaf in ((10, 1), (3, 1), (10, 2), (10, None)):
                got = tree_to_dict(
                    build_tree(ds, bins, max_depth=max_depth, min_leaf=min_leaf)
                )
                floor = default_min_leaf(len(ds)) if min_leaf is None else min_leaf
                want = tree_to_dict(scalar_build_tree(ds, bins, max_depth, floor))
                assert got == want, f"seed {seed}, {max_depth}, {min_leaf}"
                one_row_nodes += list(supports(got)).count(1)
                splits += "children" in got
        assert one_row_nodes >= 100 and splits >= 100  # both paths exercised

    def test_a_fitted_tree_leaves_no_garbage_cycle(self):
        ds = stacked_releases(tie_heavy_community().projects[0])
        bins = fit_bins(ds)
        gc.collect()
        gc.disable()
        try:
            build_tree(ds, bins, min_leaf=2)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_default_min_leaf_floor(self):
        assert default_min_leaf(100) == 5
        assert default_min_leaf(1000) == 20

    def test_bad_parameters_rejected(self):
        ds = planted_dataset()
        with pytest.raises(ValueError):
            build_tree(ds, fit_bins(ds), max_depth=0)
        with pytest.raises(ValueError):
            build_tree(ds, fit_bins(ds), min_leaf=0)


def assert_matches_scalar(ds, bins, options=((10, None), (20, 1), (3, 1), (10, 2))):
    """``build_tree`` equals ``scalar_build_tree`` at each ``(max_depth,
    min_leaf)``; returns the tree of the first option."""
    trees = []
    for max_depth, min_leaf in options:
        got = build_tree(ds, bins, max_depth=max_depth, min_leaf=min_leaf)
        floor = default_min_leaf(len(ds)) if min_leaf is None else min_leaf
        want = scalar_build_tree(ds, bins, max_depth, floor)
        assert tree_to_dict(got) == tree_to_dict(want), (max_depth, min_leaf)
        trees.append(got)
    return trees[0]


def cut_free_bins(**cuts):
    """Bins with no cut point, except the given metrics' cut tuples."""
    bins = {m: BinMap(m, (), 0.0, 0.0) for m in METRICS}
    bins.update((m, BinMap(m, c, c[0], c[-1])) for m, c in cuts.items())
    return bins


def root_ranges(tree):
    return {key: child.support for key, child in tree.children.items()}


class TestBitsetGrowth:
    """Growth counts a node's rows as int bitsets: each checks against the
    row-by-row ``scalar_build_tree`` on data chosen to reach its edges."""

    def test_a_metric_with_more_than_256_ranges(self):
        # 300 ranges of loc, two rows each; the label follows loc's parity.
        records = [make_record(f"c{i}", defects=(i % 300) % 2, loc=float(i % 300))
                   for i in range(600)]
        bins = cut_free_bins(loc=tuple(k + 0.5 for k in range(299)))
        tree = assert_matches_scalar(make_dataset(records), bins, options=((10, 1), (10, 2)))
        assert root_ranges(tree) == dict.fromkeys(range(300), 2)

    def test_defect_counts_past_six_bit_planes(self):
        rng = np.random.default_rng(5)
        records = [
            make_record(f"c{i}", defects=int(d), loc=float(rng.integers(0, 20)),
                        wmc=float(rng.integers(0, 8)))
            for i, d in enumerate(rng.integers(0, 101, size=200) * rng.integers(0, 2, size=200))
        ]
        assert max(r.defects for r in records) >= 64
        ds = make_dataset(records)
        for bins in (fit_bins(ds), cut_free_bins(loc=(4.5, 9.5, 14.5), wmc=(3.5,))):
            assert_matches_scalar(ds, bins)

    def test_all_zero_defects(self):
        ds = make_dataset([make_record(f"c{i}", loc=float(i)) for i in range(70)])
        tree = assert_matches_scalar(ds, cut_free_bins(loc=(10.5, 40.5)))
        assert tree.is_leaf and tree.score == 0.0 and tree.support == 70

    def test_values_on_a_cut_and_signed_zeros(self):
        # A value equal to a cut lies in the range below it; -0.0 equals the
        # 0.0 cut, so both zeros lie in range 0, as bisect_left places them.
        values = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0] * 4
        records = [make_record(f"c{i}", defects=int(v > 0), loc=v)
                   for i, v in enumerate(values)]
        tree = assert_matches_scalar(make_dataset(records), cut_free_bins(loc=(0.0, 1.0)),
                                     options=((10, 1), (10, 2)))
        assert root_ranges(tree) == {0: 12, 1: 8, 2: 4}

    @pytest.mark.parametrize("n", [1, 63, 64, 65])
    def test_datasets_around_a_word_of_rows(self, n):
        rng = np.random.default_rng(n)
        records = [
            make_record(f"c{i}", defects=int(rng.integers(0, 4)) * int(rng.random() < 0.5),
                        **{m: float(rng.integers(0, hi)) for m, hi in TIE_HEAVY_RANGES.items()})
            for i in range(n)
        ]
        ds = make_dataset(records)
        every_integer = {m: BinMap(m, tuple(k + 0.5 for k in range(hi - 1)), 0.0, hi - 1.0)
                         for m, hi in TIE_HEAVY_RANGES.items()}
        for bins in (fit_bins(ds), every_integer):
            assert_matches_scalar(ds, bins)

    def test_nan_values_with_hand_made_bins(self):
        # No cut lies below NaN, so NaN rows fall in range 0 (bisect_left).
        rng = np.random.default_rng(9)
        records = []
        for i in range(120):
            loc = math.nan if i % 7 == 0 else float(rng.integers(0, 60))
            wmc = math.nan if i % 5 == 0 else float(rng.integers(0, 30))
            defects = int(rng.integers(1, 4)) if (loc > 20) != (i % 5 == 0) else 0
            records.append(make_record(f"c{i}", defects=defects, loc=loc, wmc=wmc))
        tree = assert_matches_scalar(make_dataset(records),
                                     cut_free_bins(loc=(10.0, 20.0, 40.0), wmc=(15.0,)))
        assert tree.split_metric == "loc"
        assert tree.children[0].support >= len(range(0, 120, 7))  # the NaN locs

    @pytest.mark.parametrize("project", range(3))
    def test_pooled_tie_heavy_community(self, project):
        # Pooling keeps each class's last release; the stack keeps every
        # release's rows, so values tie across releases too.
        project = tie_heavy_community().projects[project]
        for ds in (pool_versions(project), stacked_releases(project)):
            tree = assert_matches_scalar(ds, fit_bins(ds), options=((10, None), (20, 1)))
            assert not tree.is_leaf


def tie_heavy_sets():
    """The 16 tie-heavy training sets: each project of ``tie_heavy_community``
    pooled and stacked, and each release of it and of ``tie_heavy_history``."""
    projects = tie_heavy_community().projects
    return [*(pool(p) for p in projects for pool in (pool_versions, stacked_releases)),
            *(release for p in (*projects, tie_heavy_history()) for release in p.versions)]


def entropy_moved(ulps, sign):
    """``_entropy_of_counts`` moved ``ulps`` floats, up when ``sign`` times
    the parity of the positive count is +1 and down otherwise; the direction
    is fixed by the counts, so no hash seed enters."""
    def moved(counts):
        value = _entropy_of_counts(counts)
        toward = math.inf if sign * (-1) ** counts[-1] > 0 else -math.inf
        for _ in range(ulps):
            value = math.nextafter(value, toward)
        return value
    return moved


def test_entropies_moved_a_few_ulps_grow_the_same_trees(monkeypatch):
    # On these 16 tie-heavy sets no split decision lies within 3 ulps of
    # the 1e-12 margin a gain must clear, so last-bit differences in the
    # entropies leave their trees alone. The margin does not remove the
    # cut-off, it moves it (``gain_floor_split`` sits on it); what keeps an
    # interpreter's ``sum`` out of the trees is the left-to-right ``reduce``,
    # which ``test_gain_at_the_floor_is_summed_left_to_right`` checks.
    cases = [(ds, fit_bins(ds), options) for ds in tie_heavy_sets()
             for options in ({}, {"min_leaf": 1, "max_depth": 20})]
    expected = [tree_to_dict(build_tree(ds, bins, **options)) for ds, bins, options in cases]
    for ulps in (1, 2, 3):
        for sign in (1, -1):
            monkeypatch.setattr("planwise.tree._entropy_of_counts", entropy_moved(ulps, sign))
            moved = [k for k, (ds, bins, options) in enumerate(cases)
                     if tree_to_dict(build_tree(ds, bins, **options)) != expected[k]]
            assert moved == [], (ulps, sign)


class TestLocate:
    def test_single_leaf_tree_gives_empty_branch(self):
        leaf = TreeNode(score=1.0, support=4, level=0)
        branch = locate(leaf, make_record("A"))
        assert branch.conditions == ()
        assert branch.score == 1.0

    def test_routes_below_cut_to_left_leaf(self):
        branch = locate(two_leaf_tree(), make_record("A", loc=10))
        assert branch.conditions == (("loc", 0),)
        assert branch.score == 0.0

    def test_routes_above_cut_to_right_leaf(self):
        branch = locate(two_leaf_tree(), make_record("A", loc=99))
        assert branch.score == 4.0

    def test_random_records_land_on_exactly_one_leaf(self):
        ds = planted_dataset(seed=5)
        tree = build_tree(ds, fit_bins(ds), min_leaf=3)
        doc = tree_to_dict(tree)
        all_leaves = {
            (leaf["score"], leaf["support"], leaf["level"])
            for leaf in iter_leaves(doc)
        }
        rng = np.random.default_rng(8)
        for i in range(100):
            record = make_record(
                f"r{i}", loc=float(rng.uniform(-50, 400)),
                rfc=float(rng.uniform(-10, 80)),
            )
            branch = locate(tree, record)
            assert leaves(tree).count(branch) == 1
            assert (branch.score, len(branch.conditions)) in {
                (s, lvl) for (s, _, lvl) in all_leaves
            }

    def test_unpopulated_range_falls_to_nearest_child(self):
        root = unpopulated_middle_tree()
        branch = locate(root, make_record("A", loc=30.0))  # middle range empty
        assert branch.conditions == (("loc", 0),)  # nearest, tie to smaller


class TestLeaves:
    def test_single_leaf_tree_is_its_own_branch(self):
        leaf = TreeNode(score=1.0, support=4, level=0)
        assert leaves(leaf) == [Branch((), 1.0)]
        assert leaves(leaf) == [locate(leaf, make_record("A"))]

    def test_two_leaf_tree_lists_both_leaves(self):
        tree = two_leaf_tree()
        assert [b.score for b in leaves(tree)] == [0.0, 4.0]
        assert leaves(tree)[1] == locate(tree, make_record("A", loc=80))

    def test_three_level_enumeration_matches_hand_count(self):
        tree = three_level_tree()
        all_leaves = leaves(tree)
        assert [b.conditions for b in all_leaves] == [
            (("loc", 0), ("rfc", 0)), (("loc", 0), ("rfc", 1)), (("loc", 1),),
        ]
        assert [b.score for b in all_leaves] == [0.0, 2.0, 8.0]
        # Below an inner node, branches start with the given prefix.
        branch = locate(tree, make_record("A", loc=10, rfc=5))
        prefix = branch.conditions[:1]
        assert leaves(tree.children[0], prefix) == all_leaves[:2]

    def test_every_located_branch_is_listed(self):
        ds = planted_dataset(seed=5)
        tree = build_tree(ds, fit_bins(ds), min_leaf=3)
        listed = leaves(tree)
        assert len(set(b.conditions for b in listed)) == len(listed)
        for record in ds.records:
            assert locate(tree, record) in listed


class TestPredict:
    def test_zero_score_leaf_is_never_defective(self):
        leaf = TreeNode(score=0.0, support=4, level=0)
        assert not predict_defective(leaf, make_record("A"))

    def test_score_above_threshold_is_defective(self):
        branch_tree = two_leaf_tree()
        assert predict_defective(branch_tree, make_record("A", loc=80))

    def test_training_accuracy_is_perfect_on_planted_data(self):
        ds = planted_dataset(seed=13)
        tree = build_tree(ds, fit_bins(ds), min_leaf=3)
        for record in ds.records:
            assert predict_defective(tree, record) == record.is_defective()


def gapped_tree():
    """Five ranges, children only at 1 and 3: values in ranges 0, 2 and 4 fall
    back to a neighbour, and range 2 is equidistant from both."""
    bins = BinMap("wmc", (5.0, 10.0, 20.0, 40.0), 0.0, 80.0)
    return TreeNode(
        score=2.0, support=10, level=0,
        split_bins=bins,
        children={
            1: TreeNode(score=0.5, support=5, level=1),
            3: TreeNode(score=3.5, support=5, level=1),
        },
    )


@lru_cache(maxsize=None)
def oracle_trees():
    trees = [two_leaf_tree(), three_level_tree(), gapped_tree(),
             unpopulated_middle_tree()]
    planted = planted_dataset(seed=5)
    trees.append(build_tree(planted, fit_bins(planted), min_leaf=3))
    for project in tie_heavy_community().projects:
        for pooled in (pool_versions(project), stacked_releases(project)):
            trees.append(build_tree(pooled, fit_bins(pooled), min_leaf=2))
    return tuple(trees)


def split_nodes(node):
    if node.is_leaf:
        return []
    out = [node]
    for child in node.children.values():
        out.extend(split_nodes(child))
    return out


def reference_route_index(node, value):
    """The per-record routing rule the route table replaced: the value's range
    of the split metric, or the nearest child when that range has no child
    (ties to the smaller key)."""
    idx = bisect_left(node.split_bins.cut_points, value)
    if idx in node.children:
        return idx
    return min(node.children, key=lambda k: (abs(k - idx), k))


def reference_locate(tree, record):
    """locate by ``reference_route_index`` alone, never reading ``route``."""
    conditions = []
    node = tree
    while not node.is_leaf:
        key = reference_route_index(node, record.metrics[node.split_metric])
        conditions.append((node.split_metric, key))
        node = node.children[key]
    return Branch(tuple(conditions), node.score)


def value_in_range(bins, index):
    cuts = bins.cut_points
    return cuts[index] if index < len(cuts) else cuts[-1] + 1.0


class TestRouteTable:
    def test_every_range_routes_like_the_reference(self):
        for tree in oracle_trees():
            for node in split_nodes(tree):
                assert len(node.route) == node.split_bins.n_ranges
                for index, (key, child) in enumerate(node.route):
                    value = value_in_range(node.split_bins, index)
                    assert bisect_left(node.split_bins.cut_points, value) == index
                    assert key == reference_route_index(node, value)
                    assert child is node.children[key]

    def test_gaps_route_to_the_nearest_child(self):
        assert [k for k, _ in gapped_tree().route] == [1, 1, 1, 3, 3]
        assert [k for k, _ in unpopulated_middle_tree().route] == [0, 0, 2]

    def test_leaves_have_an_empty_route(self):
        assert TreeNode(score=1.0, support=4, level=0).route == ()

    def test_route_is_not_part_of_equality_or_repr(self):
        assert two_leaf_tree() == two_leaf_tree()
        assert "route" not in repr(two_leaf_tree())
        other = two_leaf_tree()
        object.__setattr__(other, "route", ())
        assert other == two_leaf_tree()

    def test_split_node_without_children_is_rejected(self):
        with pytest.raises(ValueError, match="at least one child"):
            TreeNode(
                score=1.0, support=4, level=0,
                split_bins=BinMap("loc", (50.0,), 0.0, 100.0), children={},
            )

    @pytest.mark.parametrize("key", [-1, 2, 3])
    def test_child_key_outside_the_split_is_rejected(self, key):
        children = {0: TreeNode(score=0.0, support=2, level=1),
                    key: TreeNode(score=1.0, support=2, level=1)}
        with pytest.raises(ValueError, match=f"child key {key} names no range of loc"):
            TreeNode(
                score=1.0, support=4, level=0,
                split_bins=BinMap("loc", (50.0,), 0.0, 100.0), children=children,
            )


class TestSplitMetric:
    """A node splits on its ``BinMap``'s metric; nothing else names it."""

    def test_split_metric_is_not_a_constructor_field(self):
        with pytest.raises(TypeError, match="split_metric"):
            TreeNode(
                score=2.0, support=20, level=0, split_metric="wmc",
                split_bins=BinMap("loc", (50.0,), 0.0, 100.0),
                children={0: TreeNode(score=0.0, support=10, level=1)},
            )

    def test_bins_and_children_make_a_split_on_the_bins_metric(self):
        tree = TreeNode(
            score=2.0, support=20, level=0,
            split_bins=BinMap("wmc", (10.0,), 0.0, 30.0),
            children={0: TreeNode(score=0.0, support=10, level=1),
                      1: TreeNode(score=4.0, support=10, level=1)},
        )
        assert not tree.is_leaf
        assert (tree.split_metric, tree.split_index) == ("wmc", METRICS.index("wmc"))
        # Routed by the wmc column alone: loc and every other metric disagree.
        low = make_record("low", base=100.0, wmc=5.0)
        high = make_record("high", base=0.0, wmc=20.0)
        assert locate(tree, low) == Branch((("wmc", 0),), 0.0)
        assert locate(tree, high) == Branch((("wmc", 1),), 4.0)
        assert [predict_defective(tree, r) for r in (low, high)] == [False, True]
        assert tree_to_dict(tree)["split_metric"] == "wmc"
        action = xtree_plan(tree, plan_targets(tree), high).actions["wmc"]
        assert (action.direction, action.target_range) == (DECREASE, (0.0, 10.0))

    def test_a_leaf_has_no_split_metric(self):
        leaf = TreeNode(score=1.0, support=4, level=0)
        assert leaf.is_leaf
        assert (leaf.split_metric, leaf.split_index) == (None, None)

    def test_split_metric_is_not_part_of_equality_or_repr(self):
        assert "split_metric" not in repr(two_leaf_tree())
        other = two_leaf_tree()
        object.__setattr__(other, "split_metric", "wmc")
        assert other == two_leaf_tree()


def reference_leaves(node, prefix=()):
    """leaves as a plain walk of the children in key order."""
    if node.is_leaf:
        return [Branch(prefix, node.score)]
    out = []
    for key in sorted(node.children):
        out.extend(reference_leaves(node.children[key],
                                    prefix + ((node.split_metric, key),)))
    return out


def with_leaf_scores(tree, scores):
    """A one-split tree with its leaves rescored in child-key order."""
    return TreeNode(
        score=tree.score, support=tree.support, level=tree.level,
        split_bins=tree.split_bins,
        children={
            key: TreeNode(score=score, support=child.support, level=child.level)
            for score, (key, child) in zip(scores, sorted(tree.children.items()))
        },
    )


class TestConditionTable:
    """A branch condition is a ``(metric, range index)`` pair; ``xtree_plan``
    reads the range's bounds from the split's ``BinMap``."""

    # Per range of the split, in range order: the plan's change to the split
    # metric, or None. Ranges without a child reach their nearest child.
    @pytest.mark.parametrize("tree, expected", [
        (unpopulated_middle_tree(), [None, None, (DECREASE, 0, (0.0, 10.0))]),
        (with_leaf_scores(unpopulated_middle_tree(), (6.0, 0.0)),
         [(INCREASE, 2, (50.0, 100.0))] * 2 + [None]),
        (gapped_tree(), [None] * 3 + [(DECREASE, 1, (5.0, 10.0))] * 2),
        (with_leaf_scores(gapped_tree(), (3.5, 0.5)),
         [(INCREASE, 3, (20.0, 40.0))] * 3 + [None] * 2),
    ])
    def test_plans_target_the_desired_range_bounds(self, tree, expected):
        targets = plan_targets(tree, 0.5)
        bins = tree.split_bins
        for index, change in enumerate(expected):
            record = make_record("r", **{tree.split_metric: value_in_range(bins, index)})
            action = xtree_plan(tree, targets, record).actions[tree.split_metric]
            if change is None:
                assert action.direction == NO_CHANGE
                continue
            direction, desired, bounds = change
            desired_branch = targets[locate(tree, record).conditions]
            assert desired_branch.conditions == ((tree.split_metric, desired),)
            assert action.target_range == bins.range_bounds(desired) == bounds
            assert action.direction == direction
            assert bounds[0] <= action.suggested <= bounds[1]

    def test_leaves_match_the_rebuild(self):
        for tree in oracle_trees():
            assert leaves(tree) == reference_leaves(tree)

    def test_locate_matches_the_rebuild_on_every_edge(self):
        for tree in oracle_trees():
            nodes = split_nodes(tree)
            for node in nodes:
                for cut in node.split_bins.cut_points:
                    for value in (cut, math.nextafter(cut, math.inf)):
                        record = make_record("r", **{node.split_metric: value})
                        assert locate(tree, record) == reference_locate(tree, record)


class TestPredictMatchesLocate:
    """locate and predict_defective both read the route table; a walk by the
    old per-record rule (``reference_locate``) is their oracle."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_answer_as_the_located_leaf(self, data):
        tree = data.draw(st.sampled_from(oracle_trees()))
        nodes = split_nodes(tree)
        # Values inside, outside and exactly on every cut of the split
        # metrics; the other metrics never affect routing.
        metrics = {}
        for metric in sorted({n.split_metric for n in nodes}):
            edges = [
                v for n in nodes if n.split_metric == metric
                for c in n.split_bins.cut_points
                for v in (c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf))
            ] + [
                v for n in nodes if n.split_metric == metric
                for v in (n.split_bins.vmin, n.split_bins.vmax)
            ]
            metrics[metric] = data.draw(st.one_of(
                st.sampled_from(edges),
                st.floats(min(edges) - 100.0, max(edges) + 100.0),
            ))
        record = make_record("r", **metrics)
        expected = reference_locate(tree, record)
        assert locate(tree, record) == expected
        assert predict_defective(tree, record) == (expected.score > PREDICT_THRESHOLD)

    def test_fallbacks_route_like_locate(self):
        tree = gapped_tree()
        for wmc, expected in ((1.0, 0.5), (7.0, 0.5), (15.0, 0.5), (60.0, 3.5)):
            record = make_record("r", wmc=wmc)
            assert locate(tree, record).score == expected
            assert reference_locate(tree, record).score == expected
            assert predict_defective(tree, record) == (expected > PREDICT_THRESHOLD)


def subtrees(node):
    """``node`` and every node below it."""
    out = [node]
    for child in (node.children or {}).values():
        out.extend(subtrees(child))
    return out


def check_verdicts(tree):
    for node in subtrees(tree):
        found = {b.score > PREDICT_THRESHOLD for b in leaves(node)}
        assert node.verdict is (found.pop() if len(found) == 1 else None)


class TestVerdict:
    """``verdict`` is the prediction every leaf below a node gives, or None
    when they differ; ``predict_defective`` returns the first one its route
    meets, which must be the located leaf's."""

    @settings(max_examples=300, deadline=None)
    @given(tree=random_trees())
    def test_a_node_holds_its_leaves_common_verdict(self, tree):
        check_verdicts(tree)

    def test_fitted_and_hand_built_trees_hold_their_leaves_verdict(self):
        for tree in oracle_trees():
            check_verdicts(tree)

    def test_a_leaf_on_the_threshold_is_not_defective(self):
        leaves_at = [TreeNode(score=s, support=1, level=1) for s in (0.5, 0.25, 0.75)]
        assert [leaf.verdict for leaf in leaves_at] == [False, False, True]
        bins = BinMap("wmc", (10.0,), 0.0, 20.0)
        agree = TreeNode(score=0.4, support=2, level=0, split_bins=bins,
                         children={0: leaves_at[0], 1: leaves_at[1]})
        differ = TreeNode(score=0.6, support=2, level=0, split_bins=bins,
                          children={0: leaves_at[0], 1: leaves_at[2]})
        assert (agree.verdict, differ.verdict) == (False, None)

    @settings(max_examples=300, deadline=None)
    @given(tree=random_trees(), values=st.lists(
        st.sampled_from((0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)),
        min_size=6, max_size=6,
    ))
    def test_prediction_is_the_located_leafs(self, tree, values):
        record = make_record("r", **dict(zip(METRICS[:6], values)))
        assert predict_defective(tree, record) == (
            locate(tree, record).score > PREDICT_THRESHOLD
        )

    def test_fitted_trees_settle_above_their_leaves(self):
        # The early stop runs on the oracle trees of TestPredictMatchesLocate:
        # some of their splits have one verdict for all their leaves.
        settled = [node for tree in oracle_trees() for node in split_nodes(tree)
                   if node.verdict is not None]
        assert len(settled) >= 5

    def test_verdict_is_not_a_constructor_field_nor_part_of_equality(self):
        with pytest.raises(TypeError, match="verdict"):
            TreeNode(score=1.0, support=4, level=0, verdict=True)
        assert "verdict" not in repr(two_leaf_tree())
        other = two_leaf_tree()
        object.__setattr__(other, "verdict", True)
        assert other == two_leaf_tree()
