import gc
import math
from bisect import bisect_left
from functools import lru_cache
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwise.datasets import METRICS, pool_versions
from planwise.discretize import BinMap
from planwise.stats import _entropy_of_counts
from planwise.tree import (
    Branch,
    Condition,
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
    tie_heavy_community,
    unpopulated_middle_tree,
)


def two_leaf_tree():
    bins = BinMap("loc", (50.0,), 0.0, 100.0)
    low = TreeNode(score=0.0, support=10, level=1)
    high = TreeNode(score=4.0, support=10, level=1)
    return TreeNode(
        score=2.0, support=20, level=0,
        split_metric="loc", split_bins=bins, children={0: low, 1: high},
    )


def three_level_tree():
    loc_bins = BinMap("loc", (50.0,), 0.0, 100.0)
    rfc_bins = BinMap("rfc", (10.0,), 0.0, 40.0)
    leaf_00 = TreeNode(score=0.0, support=5, level=2)
    leaf_01 = TreeNode(score=2.0, support=5, level=2)
    low = TreeNode(
        score=1.0, support=10, level=1,
        split_metric="rfc", split_bins=rfc_bins,
        children={0: leaf_00, 1: leaf_01},
    )
    high = TreeNode(score=8.0, support=10, level=1)
    return TreeNode(
        score=4.5, support=20, level=0,
        split_metric="loc", split_bins=loc_bins, children={0: low, 1: high},
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
    in list comprehensions: the scalar path the itemgetter gathering replaced."""
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
            split_metric=best_metric, split_bins=bins[best_metric],
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
        ds = pool_versions(tie_heavy_community().projects[0])
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


class TestLocate:
    def test_single_leaf_tree_gives_empty_branch(self):
        leaf = TreeNode(score=1.0, support=4, level=0)
        branch = locate(leaf, make_record("A"))
        assert branch.conditions == ()
        assert branch.score == 1.0

    def test_routes_below_cut_to_left_leaf(self):
        branch = locate(two_leaf_tree(), make_record("A", loc=10))
        assert branch.conditions == (Condition("loc", 0, 0.0, 50.0),)
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
        assert branch.conditions[0].range_index in (0, 2)
        assert branch.conditions[0].range_index == 0  # nearest, tie to smaller


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
        assert [b.sort_key() for b in all_leaves] == [
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
        split_metric="wmc", split_bins=bins,
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
        pooled = pool_versions(project)
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
        low, high = node.split_bins.range_bounds(key)
        conditions.append(Condition(node.split_metric, key, low, high))
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
        assert "conditions" not in repr(two_leaf_tree())
        other = two_leaf_tree()
        object.__setattr__(other, "route", ())
        object.__setattr__(other, "conditions", {})
        assert other == two_leaf_tree()

    def test_split_node_without_children_is_rejected(self):
        with pytest.raises(ValueError, match="at least one child"):
            TreeNode(
                score=1.0, support=4, level=0, split_metric="loc",
                split_bins=BinMap("loc", (50.0,), 0.0, 100.0), children={},
            )


def reference_conditions(node):
    """Each child's Condition, rebuilt from the split's range bounds."""
    return {
        key: Condition(node.split_metric, key, *node.split_bins.range_bounds(key))
        for key in node.children
    }


def reference_leaves(node, prefix=()):
    """leaves as it was written before nodes kept their conditions."""
    if node.is_leaf:
        return [Branch(prefix, node.score)]
    out = []
    for key, cond in sorted(reference_conditions(node).items()):
        out.extend(reference_leaves(node.children[key], prefix + (cond,)))
    return out


class TestConditionTable:
    """Every split node builds its children's Conditions once; the rebuild
    from ``range_bounds`` that locate and leaves used to do is the oracle."""

    def test_every_child_has_its_range_condition(self):
        for tree in oracle_trees():
            for node in split_nodes(tree):
                assert node.conditions == reference_conditions(node)
                assert node.conditions.keys() == node.children.keys()
        assert TreeNode(score=1.0, support=4, level=0).conditions == {}

    def test_gapped_and_unpopulated_ranges_keep_their_own_bounds(self):
        assert unpopulated_middle_tree().conditions == {
            0: Condition("loc", 0, 0.0, 10.0), 2: Condition("loc", 2, 50.0, 100.0),
        }
        assert gapped_tree().conditions == {
            1: Condition("wmc", 1, 5.0, 10.0), 3: Condition("wmc", 3, 20.0, 40.0),
        }

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
