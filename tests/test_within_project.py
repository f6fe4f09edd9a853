"""Within-project planning on a planted history: the abstract's XTREE claim.

``planted_history`` fixes the defect rule and plants the developers' moves,
so the defects that classes lost after following their plans tell planners
apart. Each planner is fitted on every window's first release, and
``KTestResult.followed`` and ``plan_changes``, summed over the windows,
score it. A planner's rate is the defects its followed plans reduced, less
those they increased, per planned metric change. Overlap also counts
agreeing no-change entries, so a control that never plans anything is
scored beside them, in the same ``window_totals`` call. Three facts hold
on all 20 seeds in 0..19; each is an entry of ``PINNED``, asserted on five
seeds and once more on all 20:

- followed xtree plans reduce at least as many defects as alves' and
  oliveira's;
- xtree's rate is at least 1.25x shatnawi's (1.28x at least, on seed 6)
  and at least 7x oliveira's (7.14x at least, on seed 3);
- the control's ``aupec_reduced`` is at least xtree's.

xtree's rate is at least alves' on 13 of the 20 seeds (alves' is 0.336
against 0.263 on seed 3), although xtree reduces more defects on all 20.
That bar is counted, not pinned: its ``COUNTED`` entry must hold on 13
seeds or more.

Another bar, every planner's ``aupec_reduced`` above its
``aupec_increased``, is left out: it follows the history's net drift, not
the planner. With decay in 20% of the classes per release it fails on 6 of
the seeds 0..19 for xtree and for alves, and on 2 for the control; with
decay in 10% it holds on all 20 for xtree, alves, oliveira and the control.
"""
from functools import lru_cache

import pytest

from conftest import (
    ALL_SEEDS, NoChangePlanner, assert_holds_on_at_least, planted_history, rate_at_least,
    window_totals,
)

SEEDS = range(5)


@lru_cache
def tallies(seed: int) -> dict:
    """The ``window_totals`` of xtree, the three baselines and the control."""
    planners = {name: (name, None) for name in ("xtree", "alves", "shatnawi", "oliveira")}
    return window_totals(planted_history(seed), planners | {"control": (NoChangePlanner(), None)})


# Each pinned fact, as a check of one seed's ``tallies``.
PINNED = {
    "defects": lambda t: 0 < t["xtree"].reduced >= max(t["alves"].reduced, t["oliveira"].reduced),
    "rate": lambda t: (rate_at_least(t, "xtree", 1.25, "shatnawi")
                       and rate_at_least(t, "xtree", 7, "oliveira")),
    # Overlap also rewards agreeing no-change entries: doing nothing scores well.
    "control": lambda t: t["control"].aupec_reduced >= t["xtree"].aupec_reduced,
}

# Each counted bar: the seeds of 0..19 it holds on today, and its check.
COUNTED = {"alves-rate": (13, lambda t: rate_at_least(t, "xtree", 1, "alves"))}


@pytest.mark.parametrize("seed", SEEDS)
def test_followed_xtree_plans_reduce_at_least_the_baselines_defects(seed):
    assert PINNED["defects"](tallies(seed)), tallies(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_xtree_reduces_more_per_change_than_shatnawi_and_oliveira(seed):
    assert PINNED["rate"](tallies(seed)), tallies(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_no_change_control_scores_at_least_xtree(seed):
    assert PINNED["control"](tallies(seed)), tallies(seed)


@pytest.mark.parametrize("fact", PINNED)
def test_each_pinned_fact_holds_on_all_twenty_seeds(fact):
    assert_holds_on_at_least(len(ALL_SEEDS), lambda seed: PINNED[fact](tallies(seed)), tallies)


def test_xtree_reduces_at_least_as_much_per_change_as_alves_on_13_seeds():
    count, holds = COUNTED["alves-rate"]
    assert_holds_on_at_least(count, lambda seed: holds(tallies(seed)), tallies)
