"""Within-project planning on a planted history: the abstract's XTREE claim.

``planted_history`` fixes the defect rule and plants the developers' moves,
so the defects that classes lost after following their plans tell planners
apart. Overlap also counts agreeing no-change entries, so a control that
never plans anything is scored beside them. Both facts below hold on every
seed in 0..19; they are pinned on five.

A third bar, every planner's ``aupec_reduced`` above its
``aupec_increased``, is left out: it follows the history's net drift, not
the planner. With decay in 20% of the classes per release it fails on 6 of
the seeds 0..19 for xtree and for alves, and on 2 for the control; with
decay in 10% it holds on all 20 for xtree, alves, oliveira and the control.
"""

import pytest

from planwise.evaluate import evaluate_windows
from planwise.planners import PlannerBase, make_planner, no_change_plan

from conftest import followed_plan_tally, planted_history

SEEDS = range(5)


class NoChangePlanner(PlannerBase):
    """The control: a plan with no changes for every class."""

    name = "no-change"

    def fit(self, train):
        return self

    def plan(self, record):
        return no_change_plan(record.class_name, self.name)


@pytest.mark.parametrize("seed", SEEDS)
def test_followed_xtree_plans_reduce_at_least_the_baselines_defects(seed):
    project = planted_history(seed)
    reduced = {name: followed_plan_tally(project, make_planner(name))[1]
               for name in ("xtree", "alves", "oliveira")}
    assert reduced["xtree"] > 0
    assert reduced["xtree"] >= max(reduced["alves"], reduced["oliveira"]), reduced


def mean_aupec_reduced(project, planner) -> float:
    results = evaluate_windows(project, planner)
    return sum(result.aupec_reduced for result in results) / len(results)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_no_change_control_scores_at_least_xtree(seed):
    # Overlap also rewards agreeing no-change entries: doing nothing scores well.
    project = planted_history(seed)
    control = mean_aupec_reduced(project, NoChangePlanner())
    assert control >= mean_aupec_reduced(project, make_planner("xtree"))
