"""Cross-project planning on a planted community: the abstract's BELLTREE claim.

Projects s0, s1 and s2 share ``planted_history``'s defect rule,
``wmc/60 + cbo/40``; a fourth, ``odd``, follows ``rfc/100 + loc/1000``.
The target is s0. Belltree and the threshold baselines are fitted on
``exemplar_train(community, s0)``, local xtree on each window's first
release, and a control belltree on ``odd``, all in one ``window_totals``
call. ``KTestResult.followed`` and ``plan_changes``, summed over the
windows, score each: by the defects lost
by classes that followed their plans, and by its rate, those defects less
the ones the same classes gained, per planned metric change. A planner that
plans no change has no rate (None), and every rate bar fails on it
(``rate_at_least``). Each pool holds a class once, as its latest row
(``pool_versions``). Seven facts hold on all 20 seeds in 0..19; each is an
entry of ``PINNED``, asserted on 0..4 and 14 and once more on all 20:

- the exemplar is never ``odd``;
- belltree reduces at least as many defects as oliveira on the same exemplar;
- the control reduces under 0.4x local xtree's defects (0.153x at most,
  on seed 6), so a wrong exemplar cannot pass for a right one;
- belltree reduces at least 2.5x the control's defects (6.67x at least,
  on seed 6);
- local xtree's rate is at least 1.8x shatnawi's (1.911x at least, on
  seed 14) and at least 5x oliveira's (5.953x at least, on seed 17), both
  fitted on the exemplar;
- belltree's rate is at least shatnawi's (1.243x at least, on seed 17).

Bars that fail on some seeds of this community are counted, not pinned:
each ``COUNTED`` entry must hold on at least as many of the 20 seeds as it
does today.

- belltree at least 0.85x local xtree holds on 19 (70 defects against 86
  on seed 14);
- local xtree's rate at least alves's holds on 18 (0.756x on seed 14);
  at least 1.6x alves's, on only 10, and that bar is left out;
- belltree at least alves holds on 15 (70 against 86 on seed 14), and
  belltree's rate at least alves's on 15.

Left out too:

- shatnawi, fitted on the exemplar, matches or beats belltree and local
  xtree on all 20 seeds. Its rules cap only ``wmc`` and ``cbo``, far below
  their ranges (10.6 and 5.6 on seed 0), so it plans the planted fix for
  561 of the 600 classes it scores there, and every fixed class follows
  it. The tally cannot rank a planner that asks every class for the fix
  against one that asks only some; the rate bars above can.

Before the pool kept one row per class, it stacked every release, so a
class that lives through four releases counted as four nearly equal rows,
and MDL's stopping rule and the logistic screen read them as independent
evidence. On seeds 0, 3 and 19, ``fit_bins`` cut other metrics on the
pools of s1 and s2 (``cbm`` and ``dam`` for s1 on seed 0), though no single
release of theirs did; they now cut only ``wmc`` and ``cbo`` (the last
test). Belltree's tree could split on those cuts, and alves's screen passed
noise metrics (``noc``, ``moa``, ``ic``, ``cbm`` and ``avg_cc`` for s2 on
seed 14, where it now passes ``wmc`` and ``cbo``). The bars measured on the
stacked pool, and what became of them:

- belltree at least 0.85x local xtree failed on seeds 0, 5, 7, 11, 14 and
  19 (23 defects against 103 on seed 5, now 97);
- belltree's rate at least shatnawi's failed on seeds 5, 7 and 19 (0.025
  against 0.098 on seed 5); it is now pinned;
- local xtree's rate was at least 1.6x that of each of alves, shatnawi and
  oliveira (1.65x at least, on seed 2, against alves). Split per baseline,
  it is now 1.8x for shatnawi (1.66x at least before, on seed 12) and 5x
  for oliveira (5.88x at least before, on seed 14); alves's rate rose with
  its screen's, and its bar is counted above;
- belltree at least alves failed on seed 5 only (23 against 42);
- the control bars were 0.4x (0.358x at most, on seed 18) and 2.5x
  (2.63x at least, on seed 18), and seed 14 could not be scored: its
  control planned no change, and its rate divided by zero.
"""

from functools import lru_cache

import pytest

from planwise.bellwether import discover, exemplar_train
from planwise.datasets import Community, Project, load_community, pool_versions
from planwise.stats import median
from planwise.tree import fit_bins

from conftest import (
    ALL_SEEDS, assert_holds_on_at_least, make_dataset, make_record, planted_history,
    rate_at_least, window_totals, write_community,
)

SEEDS = (0, 1, 2, 3, 4, 14)
BASELINES = ("alves", "shatnawi", "oliveira")


def odd_one_out_community(seed: int) -> Community:
    """s0..s2 from the default rule and ``odd`` from ``rfc/100 + loc/1000``;
    project ``i`` of the four is drawn with seed ``100 * seed + i``."""
    projects = [Project(f"s{i}", planted_history(100 * seed + i).versions) for i in range(3)]
    odd = planted_history(100 * seed + 3, rule=(("rfc", 100.0), ("loc", 1000.0)))
    return Community((*projects, Project("odd", odd.versions)))


def community_tallies(community: Community) -> tuple[str, dict]:
    """The exemplar picked for s0, and the ``window_totals`` of local xtree,
    of belltree and each baseline fitted on the exemplar, and of the control."""
    target = community.get("s0")
    train = exemplar_train(community, target)
    planners = {name: (name, train) for name in ("belltree", *BASELINES)}
    odd = pool_versions(community.get("odd"))
    planners |= {"local xtree": ("xtree", None), "control": ("belltree", odd)}
    return train.project, window_totals(target, planners)


@lru_cache
def tallies(seed: int) -> tuple[str, dict]:
    return community_tallies(odd_one_out_community(seed))


# Each pinned fact, as a check of one seed's ``tallies``.
PINNED = {
    "exemplar": lambda exemplar, t: exemplar != "odd",
    "belltree-oliveira": lambda _, t: t["belltree"].reduced >= t["oliveira"].reduced,
    "control-local": lambda _, t: t["control"].reduced < 0.4 * t["local xtree"].reduced,
    "belltree-control": lambda _, t: t["belltree"].reduced >= 2.5 * t["control"].reduced,
    "local-shatnawi-rate": lambda _, t: rate_at_least(t, "local xtree", 1.8, "shatnawi"),
    "local-oliveira-rate": lambda _, t: rate_at_least(t, "local xtree", 5, "oliveira"),
    "belltree-shatnawi-rate": lambda _, t: rate_at_least(t, "belltree", 1, "shatnawi"),
}

# Each counted bar: the seeds of 0..19 it holds on today, and its check.
COUNTED = {
    "belltree-local": (19, lambda _, t: t["belltree"].reduced >= 0.85 * t["local xtree"].reduced),
    "local-alves-rate": (18, lambda _, t: rate_at_least(t, "local xtree", 1, "alves")),
    "belltree-alves": (15, lambda _, t: t["belltree"].reduced >= t["alves"].reduced),
    "belltree-alves-rate": (15, lambda _, t: rate_at_least(t, "belltree", 1, "alves")),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_the_exemplar_shares_the_targets_defect_rule(seed):
    assert PINNED["exemplar"](*tallies(seed)), tallies(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_belltree_reduces_at_least_oliveira_on_the_same_exemplar(seed):
    assert PINNED["belltree-oliveira"](*tallies(seed)), tallies(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_belltree_trained_on_the_odd_project_falls_short(seed):
    assert PINNED["control-local"](*tallies(seed)), tallies(seed)
    assert PINNED["belltree-control"](*tallies(seed)), tallies(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_local_xtree_reduces_more_per_change_than_shatnawi_and_oliveira(seed):
    assert PINNED["local-shatnawi-rate"](*tallies(seed)), tallies(seed)
    assert PINNED["local-oliveira-rate"](*tallies(seed)), tallies(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_belltree_reduces_at_least_as_much_per_change_as_shatnawi(seed):
    assert PINNED["belltree-shatnawi-rate"](*tallies(seed)), tallies(seed)


@pytest.mark.parametrize("fact", PINNED)
def test_each_pinned_fact_holds_on_all_twenty_seeds(fact):
    assert_holds_on_at_least(len(ALL_SEEDS), lambda seed: PINNED[fact](*tallies(seed)), tallies)


@pytest.mark.parametrize("bar", COUNTED)
def test_each_counted_bar_holds_on_at_least_its_count(bar):
    count, holds = COUNTED[bar]
    assert_holds_on_at_least(count, lambda seed: holds(*tallies(seed)), tallies)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_community_read_back_from_csvs_scores_as_in_memory(tmp_path, seed):
    # load_community lists the projects by name, so odd comes first.
    community = load_community(write_community(odd_one_out_community(seed).projects, tmp_path))
    assert community.projects[0].name == "odd"
    assert community_tallies(community) == tallies(seed)


def test_a_planner_that_plans_no_change_has_no_rate():
    # A tree fitted on defect-free classes is one leaf, so it plans nothing.
    clean = make_dataset([make_record(f"z{i}", loc=float(i)) for i in range(30)])
    totals = window_totals(
        planted_history(0), {"none": ("xtree", clean), "local xtree": ("xtree", None)}
    )
    assert (totals["none"].reduced, totals["none"].rate) == (0, None)
    assert totals["local xtree"].rate > 0
    assert not rate_at_least(totals, "local xtree", 0, "none")
    assert not rate_at_least(totals, "none", 0, "local xtree")


def test_leave_target_out_oracle():
    # As in test_bellwether: a pair's score depends only on its source and
    # target, so each target's exemplar ranks first in the whole community's
    # scores once the target's row and column are deleted.
    community = odd_one_out_community(0)
    scores = discover(community).scores
    for target in community.projects:
        medians = {
            source: median([s for t, s in row.items() if t != target.name and s is not None])
            for source, row in scores.items() if source != target.name
        }
        expected = min(medians, key=lambda name: (-medians[name], name))
        assert exemplar_train(community, target) == pool_versions(community.get(expected))


def cut_metrics(dataset):
    return {metric for metric, bins in fit_bins(dataset).items() if bins.cut_points}


@pytest.mark.parametrize("name", ["s1", "s2"])
@pytest.mark.parametrize("seed", [0, 3, 19])
def test_a_pool_cuts_only_the_metrics_of_the_rule_as_each_release_does(seed, name):
    project = odd_one_out_community(seed).get(name)
    rule = {"wmc", "cbo"}
    for release in project.versions:
        assert cut_metrics(release) <= rule, release.version
    assert cut_metrics(pool_versions(project)) <= rule
