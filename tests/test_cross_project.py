"""Cross-project planning on a planted community: the abstract's BELLTREE claim.

Projects s0, s1 and s2 share ``planted_history``'s defect rule,
``wmc/60 + cbo/40``; a fourth, ``odd``, follows ``rfc/100 + loc/1000``.
The target is s0. Belltree and the threshold baselines are fitted on
``exemplar_train(community, s0)``, local xtree on each window's first
release, and a control belltree on ``odd``. ``KTestResult.followed`` and
``plan_changes``, summed over the windows, score each: by the defects lost
by classes that followed their plans, and by its rate, those defects less
the ones the same classes gained, per planned metric change. A planner that
plans no change has no rate (None), and every rate bar fails on it. Each
pool holds a class once, as its latest row (``pool_versions``). Seven facts
hold on every seed in 0..19 and are pinned on 0..4 and 14:

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

Bars left out, because they fail on this community:

- belltree at least 0.85x local xtree fails on seed 14 only: 70 defects
  against 86;
- local xtree's rate at least 1.6x alves's fails on 10 of the 20 seeds,
  and alves's rate is higher on seeds 5 and 14 (0.756x on seed 14);
- belltree at least alves fails on seeds 4, 5, 12, 14 and 17 (70 against
  86 on seed 14);
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
  its screen's, and its bar is left out above;
- belltree at least alves failed on seed 5 only (23 against 42);
- the control bars were 0.4x (0.358x at most, on seed 18) and 2.5x
  (2.63x at least, on seed 18), and seed 14 could not be scored: its
  control planned no change, and its rate divided by zero.
"""

from functools import lru_cache

import pytest

from planwise.bellwether import discover, exemplar_train
from planwise.datasets import Community, Project, pool_versions
from planwise.stats import median
from planwise.tree import fit_bins

from conftest import followed_tallies, make_dataset, make_record, planted_history

SEEDS = (0, 1, 2, 3, 4, 14)
BASELINES = ("alves", "shatnawi", "oliveira")


def odd_one_out_community(seed: int) -> Community:
    """s0..s2 from the default rule and ``odd`` from ``rfc/100 + loc/1000``;
    project ``i`` of the four is drawn with seed ``100 * seed + i``."""
    projects = [Project(f"s{i}", planted_history(100 * seed + i).versions) for i in range(3)]
    odd = planted_history(100 * seed + 3, rule=(("rfc", 100.0), ("loc", 1000.0)))
    return Community((*projects, Project("odd", odd.versions)))


@lru_cache
def tallies(seed: int) -> tuple[str, dict[str, int], dict[str, float | None]]:
    """The exemplar picked for s0, and ``followed_tallies`` of local xtree, of
    belltree and each baseline fitted on the exemplar, and of the control."""
    community = odd_one_out_community(seed)
    target = community.get("s0")
    train = exemplar_train(community, target)
    planners = {name: (name, train) for name in ("belltree", *BASELINES)}
    odd = pool_versions(community.get("odd"))
    planners |= {"local xtree": ("xtree", None), "control": ("belltree", odd)}
    return (train.project, *followed_tallies(target, planners))


def defined(rate: dict[str, float | None], *labels: str) -> list[float]:
    """The rates of ``labels``. A None rate, a planner that planned no
    change, fails the bar: 0/0 ranks against nothing."""
    values = [rate[label] for label in labels]
    assert None not in values, rate
    return values


@pytest.mark.parametrize("seed", SEEDS)
def test_the_exemplar_shares_the_targets_defect_rule(seed):
    assert tallies(seed)[0] != "odd"


@pytest.mark.parametrize("seed", SEEDS)
def test_belltree_reduces_at_least_oliveira_on_the_same_exemplar(seed):
    reduced = tallies(seed)[1]
    assert reduced["belltree"] >= reduced["oliveira"], reduced


@pytest.mark.parametrize("seed", SEEDS)
def test_a_belltree_trained_on_the_odd_project_falls_short(seed):
    reduced = tallies(seed)[1]
    assert reduced["control"] < 0.4 * reduced["local xtree"], reduced
    assert reduced["belltree"] >= 2.5 * reduced["control"], reduced


@pytest.mark.parametrize("seed", SEEDS)
def test_local_xtree_reduces_more_per_change_than_shatnawi_and_oliveira(seed):
    rate = tallies(seed)[2]
    local, shatnawi, oliveira = defined(rate, "local xtree", "shatnawi", "oliveira")
    assert local >= 1.8 * shatnawi, rate
    assert local >= 5 * oliveira, rate


@pytest.mark.parametrize("seed", SEEDS)
def test_belltree_reduces_at_least_as_much_per_change_as_shatnawi(seed):
    rate = tallies(seed)[2]
    belltree, shatnawi = defined(rate, "belltree", "shatnawi")
    assert belltree >= shatnawi, rate


def test_a_planner_that_plans_no_change_has_no_rate():
    # A tree fitted on defect-free classes is one leaf, so it plans nothing.
    clean = make_dataset([make_record(f"z{i}", loc=float(i)) for i in range(30)])
    reduced, rate = followed_tallies(
        planted_history(0), {"none": ("xtree", clean), "local xtree": ("xtree", None)}
    )
    assert (reduced["none"], rate["none"]) == (0, None)
    assert rate["local xtree"] > 0
    with pytest.raises(AssertionError):
        defined(rate, "local xtree", "none")


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
