import math

import numpy as np
import pytest

from planwise.datasets import DECREASE, INCREASE, METRICS, NO_CHANGE
from planwise.discretize import BinMap
from planwise.planners import (
    Action,
    AlvesPlanner,
    OliveiraPlanner,
    Plan,
    ShatnawiPlanner,
    XTreePlanner,
    alves_thresholds,
    compliance_rate,
    make_planner,
    oliveira_thresholds,
    shatnawi_thresholds,
    suggest_refactorings,
    threshold_plan,
    ThresholdRule,
    varl,
    weighted_percentile,
    xtree_plan,
)
from planwise.stats import LogisticFit, fit_univariate_logistic
from planwise.tree import TreeNode

from conftest import make_dataset, make_record


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
        split_metric="rfc", split_bins=bins, children={0: low, 1: high},
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
        split_metric="rfc", split_bins=rfc_bins,
        children={0: leaf_low, 1: leaf_high},
    )
    right = TreeNode(score=2.0, support=10, level=1)
    return TreeNode(
        score=4.5, support=20, level=0,
        split_metric="loc", split_bins=loc_bins, children={0: left, 1: right},
    )


class TestXtreePlan:
    def test_better_sibling_drives_a_single_metric_action(self):
        tree = contrast_tree()
        record = make_record("A", rfc=30.0)
        plan = xtree_plan(tree, record, gamma=0.5, seed=1)
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
            score=8.0, support=10, level=0, split_metric="rfc", split_bins=bins,
            children={
                0: TreeNode(score=6.0, support=5, level=1),
                1: TreeNode(score=10.0, support=5, level=1),
            },
        )
        plan = xtree_plan(tree, make_record("A", rfc=30.0), gamma=0.5, seed=1)
        assert plan.is_no_change()

    def test_zero_score_leaf_never_gets_a_plan(self):
        tree = contrast_tree()
        record = make_record("A", rfc=5.0)  # lands on score-4 leaf
        plan = xtree_plan(tree, record, gamma=0.5, seed=1)
        # gamma * 4 = 2 beats nothing: the only sibling scores 10.
        assert plan.is_no_change()

    def test_ascends_until_a_level_offers_better_siblings(self):
        tree = two_level_tree()
        record = make_record("A", loc=10.0, rfc=20.0)  # leaf scoring 8
        plan = xtree_plan(tree, record, gamma=0.5, seed=3)
        assert plan.actions["loc"].direction == INCREASE
        assert plan.actions["loc"].target_range == (50.0, 100.0)
        assert plan.actions["rfc"].direction == NO_CHANGE
        assert plan.expected_score_drop == pytest.approx(6.0)

    def test_same_seed_reproduces_suggested_values(self):
        tree = contrast_tree()
        record = make_record("A", rfc=30.0)
        first = xtree_plan(tree, record, seed=99)
        second = xtree_plan(tree, record, seed=99)
        assert first == second
        other = xtree_plan(tree, record, seed=100)
        assert other.actions["rfc"].suggested != first.actions["rfc"].suggested

    def test_gamma_must_be_a_proper_fraction(self):
        tree = contrast_tree()
        for gamma in (0.0, 1.0, -0.2, 3.0):
            with pytest.raises(ValueError):
                xtree_plan(tree, make_record("A"), gamma=gamma)

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
        with pytest.raises(ValueError):
            weighted_percentile([1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            alves_thresholds(self._training_set(), 100.0)


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

    def test_parameter_domain(self):
        train = self._risky_metric_set(alpha=-4.0, beta=0.35, seed=11)
        with pytest.raises(ValueError):
            shatnawi_thresholds(train, p0=0.0)
        with pytest.raises(ValueError):
            shatnawi_thresholds(train, p1=1.0)


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
        with pytest.raises(ValueError):
            oliveira_thresholds(train, min_compliance=0.0)
        with pytest.raises(ValueError):
            oliveira_thresholds(train, tail=100.0)


class TestThresholdPlan:
    def test_record_under_every_threshold_gets_no_changes(self):
        rules = [ThresholdRule("loc", 100.0), ThresholdRule("wmc", 10.0)]
        plan = threshold_plan(rules, make_record("A", loc=50, wmc=5))
        assert plan.is_no_change()

    def test_exceeding_value_gets_a_decrease_with_target(self):
        rules = [ThresholdRule("loc", 100.0)]
        plan = threshold_plan(rules, make_record("A", loc=250))
        action = plan.actions["loc"]
        assert action.direction == DECREASE
        assert action.target_range == (0.0, 100.0)

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


class TestPlannerInterface:
    def test_factory_builds_each_planner(self):
        assert isinstance(make_planner("xtree"), XTreePlanner)
        assert make_planner("belltree").name == "belltree"
        assert isinstance(make_planner("alves"), AlvesPlanner)
        assert isinstance(make_planner("shatnawi"), ShatnawiPlanner)
        assert isinstance(make_planner("oliveira"), OliveiraPlanner)

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
