import copy
import dataclasses
import json
import math
import pickle
import random
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planwise import planners
from planwise.datasets import DECREASE, INCREASE, METRICS, NO_CHANGE, pool_versions
from planwise.discretize import BinMap, apply_bins
from planwise.refactorings import SHARED_METRICS
from planwise.planners import (
    Action,
    Plan,
    ThresholdPlanner,
    XTreePlanner,
    alves_thresholds,
    make_planner,
    no_change_plan,
    oliveira_thresholds,
    plan_targets,
    shatnawi_thresholds,
    suggest_refactorings,
    threshold_plan,
    ThresholdRule,
    varl,
    weighted_percentile,
    xtree_plan,
)
from planwise.stats import LogisticFit, fit_univariate_logistic
from planwise.tree import TreeNode, build_tree, fit_bins, leaves, locate, tree_to_dict

from conftest import (
    changes_count,
    count_calls,
    make_dataset,
    make_record,
    planted_community,
    random_trees,
    stacked_releases,
    tie_heavy_community,
    tie_heavy_history,
    unpopulated_middle_tree,
)


def plan_with(directions: dict[str, str], name="c", planner="test") -> Plan:
    actions = {m: Action() for m in METRICS}
    for metric, direction in directions.items():
        actions[metric] = Action(direction=direction)
    return Plan(name, actions, planner)


def contrast_tree():
    """Root splits rfc at 10: low leaf scores 4, high leaf scores 10."""
    bins = BinMap("rfc", (10.0,), 0.0, 40.0)
    low = TreeNode(score=4.0, support=5, level=1)
    high = TreeNode(score=10.0, support=5, level=1)
    return TreeNode(
        score=7.0, support=10, level=0,
        split_bins=bins, children={0: low, 1: high},
    )


def two_level_tree():
    """loc splits the root; the low-loc side splits again on rfc.

    Leaves: [loc<=50, rfc<=10] scores 6, [loc<=50, rfc>10] scores 8,
    [loc>50] scores 2.
    """
    loc_bins = BinMap("loc", (50.0,), 0.0, 100.0)
    rfc_bins = BinMap("rfc", (10.0,), 0.0, 40.0)
    leaf_low = TreeNode(score=6.0, support=5, level=2)
    leaf_high = TreeNode(score=8.0, support=5, level=2)
    left = TreeNode(
        score=7.0, support=10, level=1,
        split_bins=rfc_bins,
        children={0: leaf_low, 1: leaf_high},
    )
    right = TreeNode(score=2.0, support=10, level=1)
    return TreeNode(
        score=4.5, support=20, level=0,
        split_bins=loc_bins, children={0: left, 1: right},
    )


def plan_for(tree, record, gamma=0.5, seed=planners.DEFAULT_SEED):
    return xtree_plan(tree, plan_targets(tree, gamma), record, seed)


class TestXtreePlan:
    def test_better_sibling_drives_a_single_metric_action(self):
        tree = contrast_tree()
        record = make_record("A", rfc=30.0)
        plan = plan_for(tree, record, gamma=0.5, seed=1)
        assert plan.actions["rfc"].direction == DECREASE
        assert plan.actions["rfc"].target_range == (0.0, 10.0)
        assert 0.0 <= plan.actions["rfc"].suggested <= 10.0
        for metric in METRICS:
            if metric != "rfc":
                assert plan.actions[metric].direction == NO_CHANGE
        assert plan.expected_score_drop == pytest.approx(6.0)

    def test_no_plan_when_sibling_not_good_enough(self):
        bins = BinMap("rfc", (10.0,), 0.0, 40.0)
        tree = TreeNode(
            score=8.0, support=10, level=0, split_bins=bins,
            children={
                0: TreeNode(score=6.0, support=5, level=1),
                1: TreeNode(score=10.0, support=5, level=1),
            },
        )
        plan = plan_for(tree, make_record("A", rfc=30.0), gamma=0.5, seed=1)
        assert changes_count(plan) == 0

    def test_zero_score_leaf_never_gets_a_plan(self):
        tree = contrast_tree()
        record = make_record("A", rfc=5.0)  # lands on score-4 leaf
        plan = plan_for(tree, record, gamma=0.5, seed=1)
        # gamma * 4 = 2 beats nothing: the only sibling scores 10.
        assert changes_count(plan) == 0

    def test_ascends_until_a_level_offers_better_siblings(self):
        tree = two_level_tree()
        record = make_record("A", loc=10.0, rfc=20.0)  # leaf scoring 8
        plan = plan_for(tree, record, gamma=0.5, seed=3)
        assert plan.actions["loc"].direction == INCREASE
        assert plan.actions["loc"].target_range == (50.0, 100.0)
        assert plan.actions["rfc"].direction == NO_CHANGE
        assert plan.expected_score_drop == pytest.approx(6.0)

    def test_same_seed_reproduces_suggested_values(self):
        tree = contrast_tree()
        record = make_record("A", rfc=30.0)
        first = plan_for(tree, record, seed=99)
        second = plan_for(tree, record, seed=99)
        assert first == second
        other = plan_for(tree, record, seed=100)
        assert other.actions["rfc"].suggested != first.actions["rfc"].suggested

    def test_gamma_must_be_a_proper_fraction(self):
        tree = contrast_tree()
        train = make_dataset([make_record("A", defects=1), make_record("B")])
        for gamma in (0.0, 1.0, -0.2, 3.0):
            with pytest.raises(ValueError):
                plan_targets(tree, gamma)
            with pytest.raises(ValueError):
                XTreePlanner(gamma=gamma).fit(train)

    def test_a_suggestion_never_lands_on_its_ranges_excluded_low_end(self):
        # Range 1 is (1e16, 1e16 + 4], and floats there are 2 apart, so
        # low + 4 * u rounds onto the cut 1e16 for every draw u below 1/4.
        bins = BinMap("wmc", (1e16, 1e16 + 4), 0.0, 2e16)
        tree = TreeNode(score=4.0, support=15, level=0, split_bins=bins, children={
            key: TreeNode(score=score, support=5, level=1)
            for key, score in enumerate((8.0, 1.0, 8.0))
        })
        rounded = 0
        for seed in range(6):
            rounded += 1e16 + 4 * planners._draws(seed, 1)[0] == 1e16
            action = plan_for(tree, make_record("A", wmc=0.0), seed=seed).actions["wmc"]
            assert action.target_range == (1e16, 1e16 + 4)
            assert 1e16 < action.suggested <= 1e16 + 4
            assert apply_bins(bins, action.suggested) == 1
        assert rounded == 3  # seeds 1, 3 and 4

    def test_changes_bounded_by_max_depth(self):
        rng = np.random.default_rng(6)
        records = []
        for i in range(300):
            defective = int(rng.random() < 0.4)
            records.append(
                make_record(
                    f"c{i}",
                    defects=defective * int(rng.integers(1, 5)),
                    loc=float(rng.uniform(10, 500) + 300 * defective),
                    rfc=float(rng.uniform(0, 50) + 30 * defective),
                    wmc=float(rng.uniform(0, 30) + 10 * defective),
                    cbo=float(rng.uniform(0, 20)),
                )
            )
        train = make_dataset(records)
        planner = XTreePlanner(max_depth=3, min_leaf=5).fit(train)
        for record in records[:50]:
            plan = planner.plan(record)
            changed = sum(
                1 for a in plan.actions.values() if a.direction != NO_CHANGE
            )
            assert changed <= 3


def reference_xtree_plan(tree, targets, record, seed):
    """xtree_plan as it was written with one seeded generator per class."""
    current = locate(tree, record)
    desired = targets[current.conditions]
    if desired is None:
        return no_change_plan(record.class_name, "xtree")
    rng = random.Random(seed)
    actions = dict.fromkeys(METRICS, Action())
    node = tree
    for metric, index in desired.conditions:
        idx = apply_bins(node.split_bins, record.metrics[metric])
        if idx != index:
            low, high = node.split_bins.range_bounds(index)
            actions[metric] = Action(
                direction=INCREASE if idx < index else DECREASE,
                target_range=(low, high),
                suggested=rng.uniform(low, high),
            )
        node = node.children[index]
    return Plan(record.class_name, actions, "xtree",
                expected_score_drop=current.score - desired.score)


class TestXtreePlanOracle:
    """Suggested values come from draws shared by every class; the per-class
    ``Random(seed).uniform`` they replace is the oracle, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, planners.DEFAULT_SEED, 2**40 + 7])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
    def test_plans_equal_the_per_class_generator(self, seed, gamma):
        records = tie_heavy_history().versions[3].records
        changed = 0
        for tree in fitted_trees()[::3]:
            targets = plan_targets(tree, gamma)
            for record in records:
                plan = xtree_plan(tree, targets, record, seed)
                expected = reference_xtree_plan(tree, targets, record, seed)
                assert plan == expected
                assert repr(plan) == repr(expected)  # float bits, -0.0 included
                changed += changes_count(plan)
        assert changed > 0


def reference_targets(tree, gamma):
    """The level-ascent search XTREE once ran for every class, as an oracle.

    From the leaf's parent up to the root, the first ancestor with another
    leaf below it scoring under ``gamma`` times the leaf's score wins; among
    that ancestor's such leaves, fewest differing conditions, then lower
    score, then branch order.
    """
    out = {}
    for current in leaves(tree):
        desired = None
        for lvl in range(len(current.conditions) - 1, -1, -1):
            prefix = current.conditions[:lvl]
            node = tree
            for _, index in prefix:
                node = node.children[index]
            better = [
                b for b in leaves(node, prefix)
                if b.conditions != current.conditions
                and b.score < gamma * current.score
            ]
            if better:
                desired = min(better, key=lambda b: (
                    len(set(b.conditions) ^ set(current.conditions)),
                    b.score, b.conditions,
                ))
                break
        out[current.conditions] = desired
    return out


def assert_matches_the_level_ascent(tree, gamma):
    """plan_targets equals the level ascent, entry by entry and in its order."""
    targets = plan_targets(tree, gamma)
    assert list(targets.items()) == list(reference_targets(tree, gamma).items())


def three_way_tree(scores=(2.0, 2.0, 8.0)):
    """cbo splits the root into three ranges with the given leaf scores."""
    bins = BinMap("cbo", (5.0, 15.0), 0.0, 30.0)
    return TreeNode(
        score=4.0, support=15, level=0, split_bins=bins,
        children={
            key: TreeNode(score=score, support=5, level=1)
            for key, score in enumerate(scores)
        },
    )


def deep_tie_tree(scores=(1.0, 6.0, 1.0, 1.0)):
    """A depth-3 tree whose leaves repeat scores at several depths.

    loc splits the root; its low side splits on rfc, and rfc's high side on
    wmc. Leaves, with the default ``scores``: [loc0 rfc0] 1, [loc0 rfc1 wmc0]
    6, [loc0 rfc1 wmc1] 1, [loc1] 1, so leaf 6 sees score-1 leaves at every
    level.
    """
    def leaf(score, level):
        return TreeNode(score=score, support=5, level=level)

    wmc = TreeNode(
        score=3.5, support=10, level=2,
        split_bins=BinMap("wmc", (7.0,), 0.0, 20.0),
        children={0: leaf(scores[1], 3), 1: leaf(scores[2], 3)},
    )
    rfc = TreeNode(
        score=2.7, support=15, level=1,
        split_bins=BinMap("rfc", (10.0,), 0.0, 40.0),
        children={0: leaf(scores[0], 2), 1: wmc},
    )
    return TreeNode(
        score=2.0, support=20, level=0,
        split_bins=BinMap("loc", (50.0,), 0.0, 100.0),
        children={0: rfc, 1: leaf(scores[3], 1)},
    )


def hand_built_trees():
    return (
        TreeNode(score=3.0, support=5, level=0),
        contrast_tree(),
        two_level_tree(),
        unpopulated_middle_tree(),
        three_way_tree(),
        three_way_tree((0.0, 0.0, 5.0)),
        three_way_tree((0.0, 3.0, 3.0)),
        deep_tie_tree(),
        # Equal and negative scores: a negative leaf is below its own bar.
        three_way_tree((3.0, 3.0, 3.0)),
        three_way_tree((-2.0, -1.0, 4.0)),
        deep_tie_tree((-1.0, -4.0, -2.0, -1.0)),
        deep_tie_tree((-2.0, 3.0, -2.0, 3.0)),
    )


def exact_ratios(tree):
    """Every leaf-score ratio inside (0, 1): gammas that put a leaf exactly
    on another leaf's bar."""
    scores = sorted({b.score for b in leaves(tree)})
    return sorted({a / b for a in scores for b in scores if 0 < a < b})


@lru_cache(maxsize=None)
def fitted_trees():
    rng = np.random.default_rng(6)
    records = []
    for i in range(300):
        defects = int(rng.integers(0, 4)) * int(rng.random() < 0.4)
        records.append(make_record(
            f"c{i}", defects=defects,
            loc=float(rng.integers(10, 500) + 80 * defects),
            rfc=float(rng.integers(0, 50) + 8 * defects),
            wmc=float(rng.integers(0, 30) + 4 * defects),
            cbo=float(rng.integers(0, 20)),
        ))
    shifted = make_dataset(records)
    trees = []
    pooled = [pool(p) for p in tie_heavy_community().projects
              for pool in (pool_versions, stacked_releases)]
    for train in pooled + [shifted]:
        bins = fit_bins(train)
        for min_leaf, max_depth in ((1, 10), (2, 10), (5, 10), (None, 10), (2, 3)):
            trees.append(build_tree(train, bins, max_depth=max_depth, min_leaf=min_leaf))
    return tuple(trees)


class TestPlanTargets:
    """plan_targets finds each leaf's target once; the level ascent is its oracle."""

    @pytest.mark.parametrize("index", range(len(hand_built_trees())))
    def test_hand_built_trees_match_the_level_ascent(self, index):
        tree = hand_built_trees()[index]
        for gamma in (0.1, 0.25, 0.5, 0.75, 0.9, *exact_ratios(tree)):
            assert_matches_the_level_ascent(tree, gamma)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_fitted_trees_match_the_level_ascent(self, data):
        tree = data.draw(st.sampled_from(fitted_trees()))
        gamma = data.draw(st.one_of(
            st.floats(0.01, 0.99), st.sampled_from(exact_ratios(tree) or [0.5]),
        ))
        assert_matches_the_level_ascent(tree, gamma)

    @settings(max_examples=300, deadline=None)
    @given(tree=random_trees(), gamma=st.one_of(
        st.sampled_from((0.25, 0.5, 0.75)), st.floats(0.01, 0.99),
    ))
    def test_random_trees_match_the_level_ascent(self, tree, gamma):
        assert_matches_the_level_ascent(tree, gamma)

    def test_fitted_trees_have_targets_to_find(self):
        # The oracle comparison means something only if targets are found
        # at several ancestor levels.
        ascents = set()
        for tree in fitted_trees():
            targets = plan_targets(tree, 0.5)
            for leaf in leaves(tree):
                target = targets[leaf.conditions]
                if target is not None:
                    shared = next(i for i, (x, y) in enumerate(
                        zip(leaf.conditions, target.conditions)) if x != y)
                    ascents.add(len(leaf.conditions) - shared)
        assert len(ascents) >= 3

    def test_every_leaf_has_an_entry(self):
        for tree in hand_built_trees() + fitted_trees()[:3]:
            assert list(plan_targets(tree)) == [b.conditions for b in leaves(tree)]

    def test_equal_scores_tie_to_branch_order(self):
        tree = three_way_tree()  # scores 2, 2, 8
        worst = leaves(tree)[2]
        target = plan_targets(tree, 0.5)[worst.conditions]
        assert target.conditions == (("cbo", 0),)

    def test_deepest_ancestor_wins_over_closer_scores(self):
        tree = deep_tie_tree()
        targets = plan_targets(tree, 0.5)
        six = next(b for b in leaves(tree) if b.score == 6.0)
        assert targets[six.conditions].conditions == (
            ("loc", 0), ("rfc", 1), ("wmc", 1),
        )

    def test_zero_score_leaves_get_no_target(self):
        tree = three_way_tree((0.0, 0.0, 5.0))
        targets = plan_targets(tree, 0.9)
        assert [t is None for t in targets.values()] == [True, True, False]

    def test_searched_once_per_fit_and_never_per_plan(self, monkeypatch):
        rng = np.random.default_rng(8)
        records = []
        for i in range(200):
            wmc, loc = float(rng.integers(0, 40)), float(rng.integers(10, 500))
            defects = int(wmc > 20) + int(loc > 300) + int(rng.integers(0, 2))
            records.append(make_record(f"c{i}", defects=defects, wmc=wmc, loc=loc))
        searches = count_calls(monkeypatch, planners, "plan_targets")
        enumerations = count_calls(monkeypatch, planners, "leaves")
        planner = XTreePlanner(min_leaf=5).fit(make_dataset(records))
        assert (len(searches), len(enumerations)) == (1, 1)
        plans = [planner.plan(r) for r in make_dataset(records).records]
        assert (len(searches), len(enumerations)) == (1, 1)
        assert any(changes_count(p) for p in plans)


def records_on_the_cuts_grid(values):
    """One record per row of ``values``, each over the six metrics that
    ``random_trees`` split."""
    return [make_record(f"r{i}", **dict(zip(METRICS[:6], row))) for i, row in enumerate(values)]


def twin_split_tree():
    """loc splits the root; each side splits rfc at its own cut (10 on the
    low side, 20 on the high side), and each side's high rfc leaf scores 8
    against its low leaf's 1. Moves on both sides share a metric, range
    index, direction and position, but not a range."""
    def side(cut, level):
        return TreeNode(
            score=4.5, support=10, level=level,
            split_bins=BinMap("rfc", (cut,), 0.0, 40.0),
            children={0: TreeNode(score=1.0, support=5, level=level + 1),
                      1: TreeNode(score=8.0, support=5, level=level + 1)},
        )

    return TreeNode(
        score=4.5, support=20, level=0,
        split_bins=BinMap("loc", (50.0,), 0.0, 100.0),
        children={0: side(10.0, 1), 1: side(20.0, 1)},
    )


class TestSharedMoves:
    """Plans planned with one memo of moves share their Actions; the plans
    each class gets from ``reference_xtree_plan`` are the oracle, bit for bit."""

    @staticmethod
    def assert_memoised_plans_match(tree, records, seeds, gamma=0.5):
        targets = plan_targets(tree, gamma)
        moves = {}  # one memo for the tree, across seeds
        for seed in seeds:
            for record in records:
                plan = xtree_plan(tree, targets, record, seed, moves=moves)
                expected = reference_xtree_plan(tree, targets, record, seed)
                assert plan == expected
                assert repr(plan) == repr(expected)  # float bits, -0.0 included
        return moves

    @settings(max_examples=200, deadline=None)
    @given(tree=random_trees(), gamma=st.sampled_from((0.25, 0.5, 0.75)),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
           values=st.lists(st.lists(st.sampled_from((5.0, 10.0, 15.0, 25.0, 35.0)),
                                    min_size=6, max_size=6), min_size=1, max_size=12))
    def test_random_trees(self, tree, gamma, seeds, values):
        self.assert_memoised_plans_match(tree, records_on_the_cuts_grid(values), seeds, gamma)

    @pytest.mark.parametrize("index", range(len(hand_built_trees())))
    def test_hand_built_trees(self, index):
        grid = [[a, b, c, 1.0, 1.0, 1.0] for a in (5.0, 35.0) for b in (5.0, 15.0, 60.0)
                for c in (5.0, 25.0)]
        records = records_on_the_cuts_grid(grid)
        records += [make_record(f"loc{loc}", loc=loc, rfc=rfc, wmc=wmc, cbo=cbo)
                    for loc in (10.0, 90.0) for rfc in (5.0, 30.0)
                    for wmc in (3.0, 15.0) for cbo in (2.0, 10.0, 20.0)]
        tree = hand_built_trees()[index]
        moves = 0
        for gamma in (0.25, 0.5, 0.9):
            moves += len(self.assert_memoised_plans_match(tree, records, (0, 7), gamma))
        assert (moves > 0) == any(t is not None for t in plan_targets(tree, 0.9).values())

    def test_a_metric_split_at_two_cuts_keeps_two_moves(self):
        records = [make_record("low", loc=10.0, rfc=15.0), make_record("high", loc=90.0, rfc=30.0)]
        moves = self.assert_memoised_plans_match(twin_split_tree(), records, (0,))
        ranges = sorted(action.target_range for action in moves.values())
        assert ranges == [(0.0, 10.0), (0.0, 20.0)]

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_communities(self, seed):
        projects = planted_community(seed).projects
        planner = make_planner("xtree", seed=seed).fit(projects[2].versions[0])
        changed = 0
        for project in projects:
            for record in project.versions[0].records:
                plan = planner.plan(record)
                expected = reference_xtree_plan(planner.tree, planner.targets, record, seed)
                assert plan == expected and repr(plan) == repr(expected)
                changed += changes_count(plan)
        assert changed > 0

    def test_a_refit_never_reuses_a_move_of_the_previous_tree(self):
        history = tie_heavy_history()
        first, second = history.versions[0], history.versions[2]
        records = [r for version in history.versions for r in version.records]
        planner = make_planner("xtree").fit(first)
        before = [planner.plan(record) for record in records]
        planner.fit(second)
        # Keyed by the id of a tree's BinMap, a kept move could be found
        # again by a later tree's BinMap at a freed one's address.
        assert planner._moves == {}
        after = [planner.plan(record) for record in records]
        fresh = make_planner("xtree").fit(second)
        assert [repr(p) for p in after] == [repr(fresh.plan(r)) for r in records]
        old = {id(a) for plan in before for a in plan.actions.values() if a.direction != NO_CHANGE}
        new = {id(a) for plan in after for a in plan.actions.values() if a.direction != NO_CHANGE}
        assert old and new and not old & new
        assert [repr(p) for p in before] != [repr(p) for p in after]


class TestPlanEntries:
    """An Action's entry in ``Plan.to_dict`` is built once, shared and read-only."""

    @staticmethod
    def entry():
        return Action(DECREASE, (0.0, 3.0), 1.5)._entry

    @pytest.mark.parametrize("mutate", [
        lambda e: e.update(action="+"), lambda e: e.setdefault("x", 1),
        lambda e: e.pop("action"), lambda e: e.pop("missing", None), lambda e: e.popitem(),
        lambda e: e.clear(),
    ], ids=["update", "setdefault", "pop", "pop-default", "popitem", "clear"])
    def test_every_mutator_raises(self, mutate):
        entry = self.entry()
        with pytest.raises(TypeError):
            mutate(entry)
        assert entry == {"action": DECREASE, "target_low": 0.0, "target_high": 3.0,
                         "suggested": 1.5}

    def test_in_place_operators_raise(self):
        entry = self.entry()
        with pytest.raises(TypeError):
            entry["action"] = "+"
        with pytest.raises(TypeError):
            entry |= {"x": 1}
        with pytest.raises(TypeError):
            del entry["suggested"]

    @pytest.mark.parametrize("action", [
        Action(), Action(INCREASE, (1.0, 2.0)), Action(DECREASE, (-0.0, 0.0), -0.0),
        Action(DECREASE, (0.0, 3.0), 1.5),
    ])
    def test_an_entry_equals_its_plain_dict(self, action):
        plain = {"action": action.direction}
        if action.target_range is not None:
            plain["target_low"], plain["target_high"] = action.target_range
        if action.suggested is not None:
            plain["suggested"] = action.suggested
        entry = action._entry
        assert entry == plain and plain == entry
        assert repr(entry) == repr(plain)
        assert json.dumps(entry, indent=2, sort_keys=True) == json.dumps(
            plain, indent=2, sort_keys=True)
        assert entry is action._entry

    def test_copies_and_pickles_are_plain_dicts(self):
        entry = self.entry()
        for copied in (copy.copy(entry), copy.deepcopy(entry), entry.copy(),
                       pickle.loads(pickle.dumps(entry)), dict(entry)):
            assert type(copied) is dict and copied == entry
            copied["action"] = "+"
        assert entry["action"] == DECREASE

    def test_a_copied_action_builds_its_own_read_only_entry(self):
        action = Action(DECREASE, (0.0, 3.0), 1.5)
        action._entry  # built before the copy
        for copied in (copy.deepcopy(action), pickle.loads(pickle.dumps(action))):
            assert copied == action
            assert type(copied._entry) is planners._Entry
            assert copied._entry is not action._entry
            assert copied._entry == action._entry

    def test_a_plan_document_holds_the_shared_entries(self):
        plan = threshold_plan([ThresholdRule("loc", 3.0)], make_record("A", loc=5.0))
        doc = plan.to_dict()
        assert doc["actions"]["loc"] is plan.actions["loc"]._entry
        doc["actions"]["loc"] = {"action": "+"}  # the plan's own dict stays mutable
        assert plan.to_dict()["actions"]["loc"]["action"] == DECREASE
        assert json.loads(json.dumps(plan.to_dict()))["actions"]["loc"] == {
            "action": DECREASE, "target_low": 0.0, "target_high": 3.0}

    def test_the_no_change_entry_is_one_object(self):
        train = tie_heavy_community().projects[0].versions[0]
        entries = {id(no_change_plan("A", "test").to_dict()["actions"]["loc"])}
        for name in ("xtree", "alves", "oliveira"):
            planner = make_planner(name).fit(train)
            for record in train.records:
                actions = planner.plan(record).to_dict()["actions"]
                entries |= {id(e) for e in actions.values() if e["action"] == NO_CHANGE}
        assert entries == {id(planners._KEEP._entry)}


class TestAlves:
    def test_single_shared_value_is_its_own_threshold(self):
        assert weighted_percentile([7.0, 7.0, 7.0], [1.0, 2.0, 3.0], 70) == 7.0
        assert weighted_percentile([7.0, 7.0, 7.0], [1.0, 2.0, 3.0], 5) == 7.0

    def test_three_class_weighted_example(self):
        values = [1.0, 2.0, 3.0]
        weights = [100.0, 100.0, 800.0]
        # cumulative weight shares: 0.1, 0.2, 1.0
        assert weighted_percentile(values, weights, 70) == 3.0
        assert weighted_percentile(values, weights, 15) == 2.0
        assert weighted_percentile(values, weights, 10) == 1.0

    def test_zero_total_weight_degrades_to_equal_weights(self):
        assert weighted_percentile([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 50) == 2.0

    def _training_set(self):
        rng = np.random.default_rng(42)
        records = []
        for i in range(200):
            defective = i % 2
            records.append(
                make_record(
                    f"c{i}",
                    defects=defective,
                    wmc=2 + 1.5 * defective + rng.uniform(0, 2),
                    cbo=rng.uniform(0, 10),
                    loc=rng.uniform(50, 150),
                )
            )
        return make_dataset(records)

    def test_uncorrelated_metrics_are_screened_out(self):
        train = self._training_set()
        rules = alves_thresholds(train, 70)
        assert [r.metric for r in rules] == ["wmc"]

    def test_threshold_is_the_loc_weighted_percentile(self):
        train = self._training_set()
        rules = alves_thresholds(train, 70)
        expected = weighted_percentile(
            [r.metrics["wmc"] for r in train.records],
            [r.metrics["loc"] for r in train.records],
            70,
        )
        assert rules[0].upper == expected

    def test_percentile_domain(self):
        # Constant metrics fail every fit, so alves checks the percentile
        # itself, not through weighted_percentile.
        unscreened = make_dataset([make_record("a"), make_record("b", defects=1)])
        for percentile in (0.0, 100.0):
            with pytest.raises(ValueError):
                weighted_percentile([1.0], [1.0], percentile)
            for train in (self._training_set(), unscreened):
                with pytest.raises(ValueError):
                    alves_thresholds(train, percentile)


class TestShatnawi:
    def test_risk_threshold_worked_values(self):
        assert varl(LogisticFit(0.0, 1.0, 0.0, True), p1=0.5) == pytest.approx(
            0.0, abs=1e-9
        )
        assert varl(LogisticFit(0.0, 1.0, 0.0, True), p1=0.05) == pytest.approx(
            math.log(1.0 / 19.0), abs=1e-9
        )
        assert varl(LogisticFit(-3.0, 0.5, 0.0, True), p1=0.05) == pytest.approx(
            (math.log(1.0 / 19.0) + 3.0) / 0.5, abs=1e-9
        )

    def _risky_metric_set(self, alpha, beta, seed, span=20.0):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(400):
            x = rng.uniform(0, span)
            p = 1.0 / (1.0 + math.exp(-(alpha + beta * x)))
            records.append(
                make_record(f"c{i}", defects=int(rng.random() < p), rfc=x)
            )
        return make_dataset(records)

    def test_threshold_matches_fitted_inverse(self):
        train = self._risky_metric_set(alpha=-4.0, beta=0.35, seed=11)
        rules = shatnawi_thresholds(train)
        assert [r.metric for r in rules] == ["rfc"]
        fit = fit_univariate_logistic(
            [r.metrics["rfc"] for r in train.records],
            [1 if r.is_defective() else 0 for r in train.records],
        )
        assert rules[0].upper == pytest.approx(varl(fit, 0.05), abs=1e-12)

    def test_negative_threshold_dropped_even_when_significant(self):
        train = self._risky_metric_set(alpha=0.5, beta=0.3, seed=13, span=10.0)
        assert shatnawi_thresholds(train) == []

    @pytest.mark.parametrize("low, threshold, kept", [
        (0.0, 0.0, False),
        (2.0, 2.0, True),
        (2.0, math.nextafter(2.0, -math.inf), False),
        (2.0, 9.0, True),
        (2.0, math.nextafter(9.0, math.inf), False),
    ])
    def test_boundaries_of_the_kept_thresholds(self, low, threshold, kept):
        # At p1 = 0.5 the logit is 0, so the threshold is exactly -alpha.
        train = make_dataset([make_record(f"c{i}", loc=v) for i, v in enumerate((low, 5.0, 9.0))])
        train.screen["loc"] = LogisticFit(-threshold, 1.0, 0.0, True)
        expected = [ThresholdRule("loc", upper=threshold)] if kept else []
        assert shatnawi_thresholds(train, p1=0.5) == expected

    def test_a_p_value_equal_to_p0_passes_the_screen(self):
        train = make_dataset([make_record(f"c{i}", loc=v) for i, v in enumerate((2.0, 5.0, 9.0))])
        train.screen["loc"] = LogisticFit(-5.0, 1.0, 0.05, True)
        assert shatnawi_thresholds(train, p0=0.05, p1=0.5) == [ThresholdRule("loc", upper=5.0)]
        assert shatnawi_thresholds(train, p0=math.nextafter(0.05, 0.0), p1=0.5) == []

    def test_a_zero_slope_fit_makes_no_rule(self):
        # Each value holds one defective class of two: the fit converges with
        # a zero slope, so z = 0 and p = erfc(0) = 1, which no p0 in (0, 1)
        # admits; the screen drops it before varl would divide by the slope.
        loc, defects = [1.0, 1.0, 2.0, 2.0], [0, 1, 0, 1]
        fit = fit_univariate_logistic(loc, defects)
        assert fit == LogisticFit(alpha=0.0, beta=0.0, p_value=1.0, converged=True)
        train = make_dataset([make_record(f"c{i}", defects=d, loc=v)
                              for i, (v, d) in enumerate(zip(loc, defects))])
        for p0 in (0.05, 0.5, math.nextafter(1.0, 0.0)):
            assert shatnawi_thresholds(train, p0=p0, p1=0.5) == []
        assert train.screen["loc"] == fit

    def test_parameter_domain(self):
        train = self._risky_metric_set(alpha=-4.0, beta=0.35, seed=11)
        for p in (0.0, 1.0):
            with pytest.raises(ValueError, match="p0 and p1"):
                shatnawi_thresholds(train, p0=p)
            with pytest.raises(ValueError, match="p0 and p1"):
                shatnawi_thresholds(train, p1=p)


class TestSharedScreen:
    """alves and shatnawi filter one set of 20 logistic fits per dataset."""

    @pytest.fixture
    def fits(self, monkeypatch):
        return count_calls(monkeypatch, planners, "fit_univariate_logistic")

    def test_alves_then_shatnawi_fit_each_metric_once(self, fits):
        train = continuous_set(17, -4.0)
        alves, shatnawi = alves_thresholds(train), shatnawi_thresholds(train)
        assert len(fits) == len(METRICS)
        assert alves and shatnawi
        # The shared fits give the rules that fresh fits give.
        assert alves == alves_thresholds(make_dataset(list(train.records)))
        assert shatnawi == shatnawi_thresholds(make_dataset(list(train.records)))

    def test_a_fit_that_raised_is_remembered_too(self, fits):
        # One class label throughout: every fit raises, and no metric passes.
        train = make_dataset([make_record(f"c{i}", wmc=float(i)) for i in range(10)])
        assert alves_thresholds(train) == shatnawi_thresholds(train) == []
        assert len(fits) == len(METRICS)
        assert list(train.screen.values()) == [None] * len(METRICS)


def oracle_relative_threshold(values, min_compliance, tail):
    """Naive full-grid search used to pin the penalty minimization."""
    values = np.asarray(values, dtype=float)
    ks = sorted(set(values.tolist()))
    tail_cut = float(np.percentile(values, tail))
    above = values[values > tail_cut]
    tail_median = float(np.median(above)) if above.size else float(values.max())
    denominator = tail_median if tail_median > 0 else 1.0
    best = None
    for p in range(1, 100):
        for k in ks:
            frac = 100.0 * float(np.count_nonzero(values <= k)) / len(values)
            rate = frac if frac >= p else 0.0
            penalty = max(0.0, min_compliance - rate)
            penalty += abs(k - tail_median) / denominator
            if (
                best is None
                or penalty < best[0]
                or (penalty == best[0] and (p, -k) > (best[1], -best[2]))
            ):
                best = (penalty, p, k)
    return best[1], best[2]


def compliance_rate(values, p, k):
    """Percentage of entities below ``k``, zeroed when the rule itself fails.

    The rule "p% of entities must have M <= k" holds system-wide when at
    least p percent of values are <= k; a system that violates its own rule
    contributes no compliance. ``p`` and ``k`` broadcast against each other;
    scalar ``p`` and ``k`` give a float. At ``p = 0`` the rule always holds,
    so the rate is the plain share of values <= k.
    """
    counts = np.searchsorted(np.sort(values), k, side="right")
    frac = 100.0 * counts / len(values)
    rate = np.where(frac >= p, frac, 0.0)
    return float(rate) if rate.ndim == 0 else rate


def matrix_relative_threshold(values, min_compliance, tail):
    """The 99 x K penalty search that the closed form replaced: every integer
    p against every distinct k through the broadcast ``compliance_rate``;
    returns ``(upper, p_fraction)``."""
    values = np.asarray(values, dtype=float)
    ps = np.arange(1, 100, dtype=float)
    ks = np.unique(values)
    tail_cut = float(np.percentile(values, tail))
    above = values[values > tail_cut]
    tail_median = float(np.median(above)) if above.size else float(values.max())
    denominator = tail_median if tail_median > 0 else 1.0
    with np.errstate(over="ignore"):  # a subnormal tail median gives +inf
        penalty2 = np.abs(ks - tail_median) / denominator
    rate = compliance_rate(values, ps[:, None], ks[None, :])
    total = np.maximum(0.0, min_compliance - rate) + penalty2[None, :]
    rows, cols = np.nonzero(total == total.min())
    order = max(range(len(rows)), key=lambda i: (rows[i], -cols[i]))
    return float(ks[cols[order]]), float(ps[rows[order]]) / 100.0


# Integer columns of up to 400 values over a small range, so values tie
# heavily, plus up to three rare negative values: with n > 100 a value held
# by fewer than n/100 classes has a share below 1%, which no p reaches.
TIE_HEAVY_COLUMNS = st.tuples(
    st.integers(1, 40).flatmap(
        lambda hi: st.lists(st.integers(0, hi), min_size=1, max_size=400)),
    st.lists(st.integers(-30, -1), max_size=3),
).map(lambda parts: [float(v) for v in parts[0] + parts[1]])
# Finite values with many ties, holding both signed zeros in any order.
SIGNED_ZERO_COLUMNS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-1e6, 1e6)),
    max_size=60,
).flatmap(lambda column: st.permutations(column + [0.0, -0.0]))
PERCENTAGES = st.one_of(st.integers(1, 99).map(float), st.floats(0.01, 99.99))


class TestOliveira:
    def test_max_value_complies_at_any_p(self):
        values = np.array([1.0, 5.0, 9.0, 14.0])
        for p in (1, 50, 99):
            assert compliance_rate(values, p, 14.0) == 100.0

    def test_worked_toy_compliance_and_penalty(self):
        # 17 of 20 entities at or below 14: the rule "85% must have M <= 14"
        # holds exactly, so min_compliance at 85 incurs no shortfall.
        values = np.array(
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 13, 13, 14, 14, 20, 22, 24],
            dtype=float,
        )
        assert compliance_rate(values, 85, 14.0) == 85.0
        assert max(0.0, 85.0 - compliance_rate(values, 85, 14.0)) == 0.0
        assert max(0.0, 90.0 - compliance_rate(values, 85, 14.0)) == 5.0
        # Asking for more compliance than the data shows breaks the rule.
        assert compliance_rate(values, 86, 14.0) == 0.0

    def test_matches_grid_oracle_on_synthetic_metric(self):
        rng = np.random.default_rng(17)
        column = rng.integers(1, 30, 20).astype(float)
        records = [
            make_record(f"c{i}", loc=v) for i, v in enumerate(column)
        ]
        train = make_dataset(records)
        rules = {r.metric: r for r in oliveira_thresholds(train)}
        p, k = oracle_relative_threshold(column, 90.0, 90.0)
        assert rules["loc"].upper == k
        assert rules["loc"].p_fraction == pytest.approx(p / 100.0)

    @settings(max_examples=150, deadline=None)
    @given(column=TIE_HEAVY_COLUMNS, min_compliance=PERCENTAGES, tail=PERCENTAGES)
    @example(column=[-1.0] + [0.0] * 199 + [3.0] * 50, min_compliance=90.0, tail=90.0)
    # Penalties near 1e19 absorb the compliance term, so every p ties at the
    # two best k and the smaller k wins with p = 99.
    @example(column=[-3e19, -2e19, 0.0], min_compliance=90.0, tail=10.0)
    def test_closed_form_matches_the_matrix_search(self, column, min_compliance, tail):
        train = make_dataset([make_record(f"c{i}", loc=v) for i, v in enumerate(column)])
        rules = {r.metric: r for r in oliveira_thresholds(train, min_compliance, tail)}
        assert (rules["loc"].upper, rules["loc"].p_fraction) == matrix_relative_threshold(
            column, min_compliance, tail)

    @settings(max_examples=300, deadline=None)
    @given(column=SIGNED_ZERO_COLUMNS, min_compliance=PERCENTAGES, tail=PERCENTAGES)
    # The tail's virtual index 2.5 lands halfway between the subnormals 5e-324
    # and 1e-323, where numpy interpolates down from 1e-323; up from 5e-324
    # gives a cut one ulp lower, which lets 1e-323 into the tail.
    @example(column=[-0.0, 0.0, 1.0, 5e-324, 1e-323, 0.0, 1e-323, 3.0],
             min_compliance=10.0, tail=100 * 2.5 / 7)
    # Both zeros first, in either order, and a tail cut at -0.0.
    @example(column=[-0.0, 0.0, 1.0], min_compliance=90.0, tail=50.0)
    @example(column=[0.0, -0.0], min_compliance=90.0, tail=90.0)
    @example(column=[-0.0, 0.0], min_compliance=90.0, tail=90.0)
    def test_rules_match_numpy_bit_for_bit(self, column, min_compliance, tail):
        # -0.0 == 0.0, so the bounds are compared by float.hex: a rule must
        # keep the value np.unique keeps, and a zero of either sign as 0.0.
        train = make_dataset([make_record(f"c{i}", loc=v) for i, v in enumerate(column)])
        rule = {r.metric: r for r in oliveira_thresholds(train, min_compliance, tail)}["loc"]
        upper, p_fraction = matrix_relative_threshold(column, min_compliance, tail)
        assert (rule.upper.hex(), rule.p_fraction) == ((upper + 0.0).hex(), p_fraction)

    def test_a_subnormal_tail_median_overflows_without_a_warning(self):
        # The tail median is 5e-324, so 1.0's penalty overflows to +inf;
        # numpy's matrix search picks the same rule.
        column = [0.0, 5e-324, 5e-324, 5e-324, 1.0]
        train = make_dataset([make_record(f"c{i}", loc=v) for i, v in enumerate(column)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rules = oliveira_thresholds(train, tail=10.0)
        rule = {r.metric: r for r in rules}["loc"]
        assert (rule.upper, rule.p_fraction) == (5e-324, 0.8)
        assert matrix_relative_threshold(column, 90.0, 10.0) == (5e-324, 0.8)

    def test_a_column_with_nan_fails_as_under_numpy(self):
        # numpy's NaN percentile made every penalty NaN, so its search found
        # no minimum; a plain sort would place NaN anywhere and find a rule.
        # load_csv rejects such a cell, so only hand-built records hold one.
        for bad in (math.nan, math.inf):
            train = make_dataset([make_record(f"c{i}", loc=v)
                                  for i, v in enumerate([1.0, bad, 3.0, bad])])
            with pytest.raises(ValueError, match="metric 'loc' holds a non-finite value"):
                oliveira_thresholds(train)

    def test_broadcast_matches_the_scalar_rule(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 12, 37).astype(float)
        ps = np.arange(1, 100, dtype=float)
        ks = np.unique(values)
        grid = compliance_rate(values, ps[:, None], ks[None, :])
        assert grid.shape == (99, ks.size)
        for i, p in enumerate(ps):
            for j, k in enumerate(ks):
                scalar = compliance_rate(values, p, k)
                assert type(scalar) is float
                frac = 100.0 * float(np.count_nonzero(values <= k)) / len(values)
                assert scalar == grid[i, j] == (frac if frac >= p else 0.0)

    def test_all_metrics_get_rules(self):
        train = make_dataset([make_record(f"c{i}", loc=float(i)) for i in range(10)])
        rules = oliveira_thresholds(train)
        assert [r.metric for r in rules] == list(METRICS)

    def test_parameter_domain(self):
        train = make_dataset([make_record("a")])
        for bound in (0.0, 100.0):
            with pytest.raises(ValueError):
                oliveira_thresholds(train, min_compliance=bound)
            with pytest.raises(ValueError):
                oliveira_thresholds(train, tail=bound)


class TestThresholdPlan:
    def test_rule_and_action_bounds(self):
        assert ThresholdRule("loc", 1.0, p_fraction=1.0).p_fraction == 1.0
        with pytest.raises(ValueError, match="p_fraction"):
            ThresholdRule("loc", 1.0, p_fraction=0.0)
        assert Action(DECREASE, target_range=(5.0, 5.0)).target_range == (5.0, 5.0)
        with pytest.raises(ValueError, match="target range"):
            Action(DECREASE, target_range=(6.0, 5.0))

    def test_an_unknown_metric_is_rejected_when_the_rule_is_built(self):
        with pytest.raises(ValueError, match="unknown metric 'nope'"):
            ThresholdRule("nope", 1.0)

    def test_derived_values_are_not_compared_hashed_or_printed(self):
        rule = ThresholdRule("loc", 1.0, p_fraction=0.5)
        twin = ThresholdRule("loc", 1.0, p_fraction=0.5)
        assert rule.decrease is not twin.decrease
        assert rule == twin and hash(rule) == hash(twin)
        assert repr(rule) == "ThresholdRule(metric='loc', upper=1.0, p_fraction=0.5)"
        assert rule.index == METRICS.index("loc")

    def test_record_under_every_threshold_gets_no_changes(self):
        rules = [ThresholdRule("loc", 100.0), ThresholdRule("wmc", 10.0)]
        plan = threshold_plan(rules, make_record("A", loc=50, wmc=5))
        assert changes_count(plan) == 0

    def test_exceeding_value_gets_a_decrease_with_target(self):
        rules = [ThresholdRule("loc", 100.0)]
        plan = threshold_plan(rules, make_record("A", loc=250))
        action = plan.actions["loc"]
        assert action.direction == DECREASE
        assert action.target_range == (0.0, 100.0)

    @pytest.mark.parametrize("name", ["alves", "oliveira"])
    def test_a_negative_bound_is_its_own_target(self, name):
        # wmc runs from -100 to -1, twice each, and the share of defective
        # classes grows with it, so both baselines put its bound below 0.
        train = make_dataset([
            make_record(f"c{i}", defects=int((i * 37) % 100 < i // 2), wmc=i // 2 - 100)
            for i in range(200)
        ])
        planner = make_planner(name).fit(train)
        (upper,) = [rule.upper for rule in planner.rules if rule.metric == "wmc"]
        assert upper < 0
        plans = [planner.plan(r) for r in train.records]
        decreases = [plan.actions["wmc"] for plan in plans
                     if plan.actions["wmc"].direction == DECREASE]
        assert decreases
        assert {action.target_range for action in decreases} == {(upper, upper)}

    def test_baselines_only_ever_decrease(self):
        rng = np.random.default_rng(3)
        rules = [
            ThresholdRule(m, float(rng.uniform(0, 5))) for m in METRICS[:10]
        ]
        for i in range(20):
            record = make_record(f"r{i}", base=float(rng.uniform(0, 10)))
            plan = threshold_plan(rules, record)
            assert all(
                a.direction in (DECREASE, NO_CHANGE) for a in plan.actions.values()
            )

    def test_monotone_in_metric_value(self):
        rules = [ThresholdRule("loc", 100.0)]
        low = threshold_plan(rules, make_record("A", loc=150))
        high = threshold_plan(rules, make_record("A", loc=151))
        assert low.actions["loc"].direction == DECREASE
        assert high.actions["loc"].direction == DECREASE


def followed(record, values):
    """``record`` with the given metric values."""
    return make_record(record.class_name, record.defects, **(record.metrics | values))


class TestFollowedPlans:
    """A class that follows its plan lands where the plan aimed."""

    @given(community_seed=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1),
           gamma=st.sampled_from([0.3, 0.5, 0.7]), name=st.sampled_from(["xtree", "belltree"]))
    @settings(max_examples=100, deadline=None)
    def test_a_followed_tree_plan_reaches_its_target(self, community_seed, seed, gamma, name):
        alpha, beta, exemplar = (
            p.versions[0] for p in planted_community(community_seed, n=120).projects
        )
        # xtree plans the release it learned from; belltree learns from the
        # exemplar and plans another project.
        train, test = (alpha, alpha) if name == "xtree" else (exemplar, beta)
        planner = make_planner(name, gamma=gamma, seed=seed).fit(train)
        for record in test.records:
            changes = {m: a.suggested for m, a in planner.plan(record).actions.items()
                       if a.direction != NO_CHANGE}
            if changes:
                current = locate(planner.tree, record)
                reached = locate(planner.tree, followed(record, changes))
                assert reached.conditions == planner.targets[current.conditions].conditions
                assert reached.score < gamma * current.score

    @pytest.mark.parametrize("name", ["alves", "shatnawi", "oliveira"])
    def test_a_followed_threshold_plan_leaves_nothing_to_change(self, name):
        decreased = 0
        for release in tie_heavy_history().versions:
            planner = make_planner(name).fit(release)
            bounds = {rule.metric: rule.upper for rule in planner.rules}
            for record in release.records:
                changes = {m: bounds[m] for m, a in planner.plan(record).actions.items()
                           if a.direction == DECREASE}
                after = threshold_plan(planner.rules, followed(record, changes))
                assert changes_count(after) == 0
                decreased += len(changes)
        assert decreased > 0


def move_keys(planner, record):
    """The record's moves by metric, range index, direction and position
    among its plan's changes: the conditions of its desired branch that it
    does not yet satisfy."""
    desired = planner.targets[locate(planner.tree, record).conditions]
    node, keys = planner.tree, []
    for metric, index in desired.conditions if desired is not None else ():
        idx = apply_bins(node.split_bins, record.metrics[metric])
        if idx != index:
            keys.append((metric, index, INCREASE if idx < index else DECREASE, len(keys)))
        node = node.children[index]
    return keys


class TestPlanAllocation:
    """No-change entries share one frozen Action; only changes construct one."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        return count_calls(monkeypatch, Action, "__post_init__")

    def test_no_change_plans_construct_no_action(self, constructed):
        rule = ThresholdRule("loc", 100.0)
        del constructed[:]  # building a rule may construct its decrease
        no_change_plan("A", "test")
        threshold_plan([rule], make_record("A", loc=50))
        assert changes_count(plan_for(contrast_tree(), make_record("A", rfc=5.0))) == 0
        assert constructed == []

    @pytest.mark.parametrize("upper, target", [
        (-2.5, (-2.5, -2.5)), (-0.0, (0.0, 0.0)), (0.0, (0.0, 0.0)), (3.0, (0.0, 3.0)),
    ])
    def test_a_rule_builds_its_one_decrease(self, constructed, upper, target):
        rule = ThresholdRule("loc", upper)
        plans = [threshold_plan([rule], make_record(f"r{i}", loc=upper + 1 + i))
                 for i in range(5)]
        assert len(constructed) <= 1
        assert all(plan.actions["loc"] is rule.decrease for plan in plans)
        assert rule.decrease.direction == DECREASE
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(rule.decrease.target_range) == repr(target)

    def test_equal_rules_write_equal_plans(self):
        # -0.0 == 0.0, so the two rules compare and hash equal; a plan that
        # breaks one must write the bytes of a plan that breaks the other.
        negative, positive = ThresholdRule("loc", -0.0), ThresholdRule("loc", 0.0)
        assert negative == positive and hash(negative) == hash(positive)
        record = make_record("A", loc=1.0)
        docs = [repr(threshold_plan([rule], record).to_dict()) for rule in (negative, positive)]
        assert docs[0] == docs[1]
        assert repr((negative.upper, negative.decrease.target_range)) == "(0.0, (0.0, 0.0))"

    def test_threshold_plan_constructs_no_action(self, constructed):
        rng = np.random.default_rng(5)
        uppers = [-0.0, *rng.uniform(-5, 5, size=9)]
        rules = [ThresholdRule(m, float(u)) for m, u in zip(METRICS[::2], uppers)]
        del constructed[:]
        broken = 0
        for i in range(30):
            record = make_record(f"r{i}", base=float(rng.uniform(-6, 6)))
            plan = threshold_plan(rules, record)
            for rule in rules:
                if record.metrics[rule.metric] > rule.upper:
                    broken += 1
                    assert plan.actions[rule.metric] is rule.decrease
                else:
                    assert plan.actions[rule.metric].direction == NO_CHANGE
        assert constructed == []
        assert 0 < broken < 30 * len(rules)

    def test_a_fit_constructs_one_action_per_distinct_move(self, constructed):
        # Both releases' rows: one release's tree plans no class two moves.
        project = tie_heavy_community().projects[0]
        planner = XTreePlanner().fit(stacked_releases(project))
        records = project.versions[1].records
        plans = [planner.plan(record) for record in records]
        keys = [move_keys(planner, record) for record in records]
        distinct = {key for plan_keys in keys for key in plan_keys}
        assert len(constructed) == len(distinct)
        assert 0 < len(distinct) < sum(map(len, keys))  # some plans share a move
        assert {len(plan_keys) for plan_keys in keys} >= {0, 2}
        assert [changes_count(plan) for plan in plans] == list(map(len, keys))
        by_key = {}  # equal moves are one Action
        for plan, plan_keys in zip(plans, keys):
            for key in plan_keys:
                action = plan.actions[key[0]]
                assert by_key.setdefault(key, action) is action

        # The same records again: every move comes from the memo.
        del constructed[:]
        again = [planner.plan(record) for record in records]
        assert constructed == []
        for first, second in zip(plans, again):
            assert first == second
            assert all(first.actions[m] is second.actions[m] for m in METRICS)

    def test_plans_never_share_an_actions_dict(self):
        train = tie_heavy_community().projects[0].versions[0]
        plans = [no_change_plan("A", "test"), no_change_plan("B", "test")]
        for name in ("xtree", "alves", "oliveira"):
            planner = make_planner(name).fit(train)
            plans += [planner.plan(r) for r in train.records]
        assert len({id(p.actions) for p in plans}) == len(plans)
        plans[0].actions["loc"] = Action(direction=DECREASE)
        assert plans[1].actions["loc"].direction == NO_CHANGE

    def test_shared_no_change_action_is_frozen(self):
        first, second = no_change_plan("A", "test"), no_change_plan("B", "test")
        shared = first.actions["loc"]
        assert shared is second.actions["wmc"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.direction = INCREASE
        assert changes_count(second) == 0


class TestSuggestRefactorings:
    def test_additive_plan_matches_extract_method_first(self):
        plan = plan_with({"rfc": "+", "wmc": "+", "loc": "+", "lcom": "+"})
        suggestions = suggest_refactorings(plan)
        assert suggestions[0] == "Extract Method"
        assert "Inline Class" in suggestions

    def test_no_change_plan_suggests_nothing(self):
        assert suggest_refactorings(plan_with({})) == []

    def test_reducing_plan_ties_inline_and_remove_setting(self):
        plan = plan_with({"rfc": "-", "wmc": "-", "loc": "-", "lcom": "-"})
        suggestions = suggest_refactorings(plan)
        assert suggestions[:2] == ["Inline Method", "Remove Setting Method"]
        assert suggestions[2] == "Extract Class"

    def test_blank_rows_never_appear(self):
        plan = plan_with({m: "+" for m in METRICS})
        suggestions = suggest_refactorings(plan)
        assert "Hide Method" not in suggestions
        assert "Reverse Conditional" not in suggestions

    @settings(max_examples=300, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["keep", "fresh", INCREASE, DECREASE]),
                          min_size=len(METRICS), max_size=len(METRICS)))
    @example(kinds=["fresh"] * len(METRICS))
    def test_matches_the_two_pass_reference(self, kinds):
        # Each metric holds the shared no-change Action, a fresh no-change
        # Action(), or a fresh increase/decrease with a target range.
        actions = {}
        for metric, kind in zip(METRICS, kinds):
            if kind == "keep":
                actions[metric] = planners._KEEP
            elif kind == "fresh":
                actions[metric] = Action(NO_CHANGE)
            else:
                actions[metric] = Action(kind, target_range=(0.0, 1.0))
        plan = Plan("c", actions, "test")
        assert suggest_refactorings(plan) == reference_suggest_refactorings(plan)

    def test_builds_the_catalog_once_per_call(self, monkeypatch):
        calls = count_calls(monkeypatch, planners, "refactoring_table")
        suggest_refactorings(plan_with({"loc": "-"}))
        suggest_refactorings(plan_with({}))
        assert len(calls) == 2


def reference_suggest_refactorings(plan: Plan) -> list[str]:
    """The ranking as first written: a dict of the plan's active directions,
    matched against each catalog row's shared signature."""
    active = {m: a.direction for m, a in plan.actions.items() if a.direction != NO_CHANGE}
    ranked = []
    for position, row in enumerate(planners.refactoring_table()):
        shared = {m: s for m, s in row.signature.items() if m in SHARED_METRICS}
        if not row.signature:
            continue
        matches = sum(1 for m, sign in shared.items() if active.get(m) == sign)
        if matches == 0:
            continue
        ranked.append((-matches, len(shared) - matches, position, row.name))
    ranked.sort()
    return [name for *_, name in ranked]


class TestPlannerInterface:
    def test_factory_builds_each_planner(self):
        assert isinstance(make_planner("xtree"), XTreePlanner)
        assert make_planner("belltree").name == "belltree"
        for name in ("alves", "shatnawi", "oliveira"):
            planner = make_planner(name)
            assert isinstance(planner, ThresholdPlanner)
            assert planner.name == name

    def test_factory_hands_each_planner_only_its_own_options(self):
        train = tie_heavy_history().versions[0]
        every = {"gamma": 0.3, "seed": 5, "max_depth": 2, "min_leaf": 7,
                 "percentile": 80.0, "p0": 0.2, "p1": 0.1,
                 "min_compliance": 80.0, "tail": 80.0}
        assert set(every) == {o for _, takes in planners.PLANNERS.values() for o in takes}
        shatnawi = make_planner("shatnawi", p1=0.1, gamma=0.3, percentile=80)
        assert shatnawi.fit(train).rules == shatnawi_thresholds(train, p1=0.1)
        assert shatnawi.rules != shatnawi_thresholds(train)
        expected = {
            "shatnawi": shatnawi_thresholds(train, p0=0.2, p1=0.1),
            "alves": alves_thresholds(train, percentile=80.0),
            "oliveira": oliveira_thresholds(train, min_compliance=80.0, tail=80.0),
        }
        for name, rules in expected.items():
            assert make_planner(name, **every).fit(train).rules == rules
        tree = make_planner("belltree", **every)
        assert (tree.name, tree.gamma, tree.seed, tree.max_depth, tree.min_leaf) == (
            "belltree", 0.3, 5, 2, 7)

    @pytest.mark.parametrize(
        "options", [{"max_depth": 2}, {"min_leaf": 40}, {"max_depth": 3, "min_leaf": 20}])
    def test_grow_grows_at_the_planners_depth_and_leaf_size(self, options):
        # Both releases' rows: one release's tree is too small for these
        # options to change it.
        train = stacked_releases(tie_heavy_community().projects[0])
        grown = tree_to_dict(make_planner("xtree", **options).grow(train))
        assert grown == tree_to_dict(build_tree(train, fit_bins(train), **options))
        assert grown != tree_to_dict(make_planner("xtree").grow(train))

    def test_threshold_planner_rejects_other_names(self):
        with pytest.raises(ValueError, match="unknown threshold planner"):
            ThresholdPlanner("xtree")

    def test_factory_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown planner"):
            make_planner("nsga-ii")

    def test_planning_before_fit_is_an_error(self):
        with pytest.raises(RuntimeError):
            make_planner("xtree").plan(make_record("A"))
        with pytest.raises(RuntimeError):
            make_planner("oliveira").plan(make_record("A"))

    def test_plan_covers_every_metric(self):
        train = make_dataset(
            [make_record(f"c{i}", defects=i % 2, loc=float(10 + i)) for i in range(30)]
        )
        for name in ("xtree", "oliveira"):
            planner = make_planner(name, min_leaf=2).fit(train)
            plan = planner.plan(train.records[0])
            assert set(plan.actions) == set(METRICS)
            assert plan.source_planner == name


def continuous_set(seed, intercept):
    """400 classes with lognormal metrics and a logistic defect risk; a low
    enough base rate that shatnawi's risk level falls inside the data."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(400):
        metrics = {m: float(rng.lognormal(1.5, 0.8)) for m in ("wmc", "cbo", "rfc", "loc")}
        risk = intercept + 0.12 * metrics["wmc"] + 0.06 * metrics["rfc"]
        defects = int(rng.random() < 1.0 / (1.0 + math.exp(-risk)))
        records.append(make_record(f"c{i}", defects=defects, **metrics))
    return make_dataset(records)


@lru_cache(maxsize=None)
def row_order_sets():
    """The tie-heavy projects (integer metrics), pooled and stacked, and two
    sets of continuous metrics, where the order of a floating-point sum shows."""
    pooled = [pool(p) for p in tie_heavy_community().projects
              for pool in (pool_versions, stacked_releases)]
    return tuple(pooled) + (continuous_set(17, -4.0), continuous_set(18, -3.0))


def fitted_state(name, train):
    planner = make_planner(name).fit(train)
    if isinstance(planner, XTreePlanner):
        return planner.tree, planner.targets
    return planner.rules


class TestRowOrderInvariance:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shuffled_train_fits_the_same_planner(self, seed):
        for train in row_order_sets():
            records = list(train.records)
            random.Random(seed).shuffle(records)
            shuffled = make_dataset(records)
            for name in ("xtree", "alves", "shatnawi", "oliveira"):
                assert fitted_state(name, shuffled) == fitted_state(name, train), name

    def test_the_continuous_sets_keep_screened_rules(self):
        # Otherwise the property above could hold on empty rule lists.
        for train in row_order_sets()[-2:]:
            assert fitted_state("shatnawi", train)
            assert fitted_state("alves", train)
