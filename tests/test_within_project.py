"""Within-project planning on a planted history: the abstract's XTREE claim.

``planted_history`` fixes the defect rule and plants the developers' moves,
so the defects that classes lost after following their plans tell planners
apart. Each planner is fitted on every window's first release, and
``KTestResult.followed`` and ``plan_changes``, summed over the windows,
score it. A planner's rate is the defects its followed plans reduced, less
those they increased, per planned metric change. Overlap also counts
agreeing no-change entries, so a control that never plans anything is
scored beside them. Three facts hold on all 20 seeds in 0..19; each is
pinned on five seeds, and once more on all 20:

- followed xtree plans reduce at least as many defects as alves' and
  oliveira's;
- xtree's rate is at least 1.25x shatnawi's (1.28x at least, on seed 6)
  and at least 7x oliveira's (7.14x at least, on seed 3);
- the control's ``aupec_reduced`` is at least xtree's.

xtree's rate is at least alves' on 13 of the 20 seeds (alves' is 0.336
against 0.263 on seed 3), although xtree reduces more defects on all 20.
That bar is counted, not pinned: it must hold on 13 seeds or more.

Another bar, every planner's ``aupec_reduced`` above its
``aupec_increased``, is left out: it follows the history's net drift, not
the planner. With decay in 20% of the classes per release it fails on 6 of
the seeds 0..19 for xtree and for alves, and on 2 for the control; with
decay in 10% it holds on all 20 for xtree, alves, oliveira and the control.
"""
from functools import lru_cache

import pytest

from planwise.evaluate import evaluate_windows
from planwise.planners import PlannerBase, make_planner, no_change_plan

from conftest import ALL_SEEDS, assert_holds_on_at_least, followed_tallies, planted_history

SEEDS = range(5)


class NoChangePlanner(PlannerBase):
    """The control: a plan with no changes for every class."""

    name = "no-change"

    def fit(self, train):
        return self

    def plan(self, record):
        return no_change_plan(record.class_name, self.name)


@lru_cache
def tallies(seed: int) -> tuple[dict[str, int], dict[str, float]]:
    names = ("xtree", "alves", "shatnawi", "oliveira")
    return followed_tallies(planted_history(seed), {name: (name, None) for name in names})


@pytest.mark.parametrize("seed", SEEDS)
def test_followed_xtree_plans_reduce_at_least_the_baselines_defects(seed):
    reduced = tallies(seed)[0]
    assert reduced["xtree"] > 0
    assert reduced["xtree"] >= max(reduced["alves"], reduced["oliveira"]), reduced


@pytest.mark.parametrize("seed", SEEDS)
def test_xtree_reduces_more_per_change_than_shatnawi_and_oliveira(seed):
    rate = tallies(seed)[1]
    assert rate["xtree"] >= max(1.25 * rate["shatnawi"], 7 * rate["oliveira"]), rate


def mean_aupec_reduced(project, planner) -> float:
    [results] = evaluate_windows(project, [(planner, None)])
    return sum(result.aupec_reduced for result in results) / len(results)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_no_change_control_scores_at_least_xtree(seed):
    # Overlap also rewards agreeing no-change entries: doing nothing scores well.
    project = planted_history(seed)
    control = mean_aupec_reduced(project, NoChangePlanner())
    assert control >= mean_aupec_reduced(project, make_planner("xtree"))


@lru_cache
def aupecs(seed: int) -> tuple[float, float]:
    """The control's and xtree's mean ``aupec_reduced`` on one seed."""
    project = planted_history(seed)
    return (mean_aupec_reduced(project, NoChangePlanner()),
            mean_aupec_reduced(project, make_planner("xtree")))


def reduces_at_least_the_baselines(seed: int) -> bool:
    reduced = tallies(seed)[0]
    return 0 < reduced["xtree"] >= max(reduced["alves"], reduced["oliveira"])


def outpaces_shatnawi_and_oliveira(seed: int) -> bool:
    rate = tallies(seed)[1]
    return rate["xtree"] >= max(1.25 * rate["shatnawi"], 7 * rate["oliveira"])


@pytest.mark.parametrize("fact, row", [
    (reduces_at_least_the_baselines, tallies),
    (outpaces_shatnawi_and_oliveira, tallies),
    (lambda seed: aupecs(seed)[0] >= aupecs(seed)[1], aupecs),
], ids=["defects", "rate", "control"])
def test_each_pinned_fact_holds_on_all_twenty_seeds(fact, row):
    assert_holds_on_at_least(len(ALL_SEEDS), fact, row)


def test_xtree_reduces_at_least_as_much_per_change_as_alves_on_13_seeds():
    def holds(seed: int) -> bool:
        rate = tallies(seed)[1]
        return rate["xtree"] >= rate["alves"]

    assert_holds_on_at_least(13, holds, tallies)
