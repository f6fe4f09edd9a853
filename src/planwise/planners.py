"""Plan generators: the contrast-set tree planner and three threshold baselines.

Every planner turns one class record into a `Plan`: a per-metric vector of
increase/decrease/no-change actions, optionally with a concrete target range.
``alves`` and ``shatnawi`` filter one logistic screen kept on the training
dataset, and ``oliveira`` minimises its (p, k) penalty in closed form. numpy
is loaded only by the screen (in ``stats``) and ``oliveira_thresholds``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .datasets import (
    ACTIONS,
    DECREASE,
    INCREASE,
    METRIC_INDEX,
    METRICS,
    METRIC_SET,
    NO_CHANGE,
    ClassRecord,
    VersionedDataset,
)
from .refactorings import SHARED_METRICS, table as refactoring_table
from .stats import LogisticFit, fit_univariate_logistic, median
from .tree import (
    DEFAULT_MAX_DEPTH,
    Branch,
    Condition,
    TreeNode,
    build_tree,
    fit_bins,
    leaves,
    locate,
)
from .discretize import apply_bins

DEFAULT_GAMMA = 0.5
DEFAULT_SEED = 42
DEFAULT_PERCENTILE = 70.0
DEFAULT_P0 = 0.05
DEFAULT_P1 = 0.05
DEFAULT_MIN_COMPLIANCE = 90.0
DEFAULT_TAIL = 90.0
SIGNIFICANCE_LEVEL = 0.05

# A leaf's conditions -> the branch its classes should move to, or None.
PlanTargets = dict[tuple[Condition, ...], Optional[Branch]]


@dataclass(frozen=True)
class Action:
    """One metric's recommendation: direction plus optional target range.

    Frozen: every plan's no-change entries share the one instance ``_KEEP``.
    """

    direction: str = NO_CHANGE
    target_range: Optional[tuple[float, float]] = None
    suggested: Optional[float] = None

    def __post_init__(self) -> None:
        if self.direction not in ACTIONS:
            raise ValueError(f"unknown action {self.direction!r}")
        if self.target_range is not None and self.target_range[0] > self.target_range[1]:
            raise ValueError("target range low must not exceed high")


@dataclass(frozen=True)
class Plan:
    """Per-class action vector; no-change entries share one frozen Action."""

    class_name: str
    actions: dict[str, Action]
    source_planner: str
    expected_score_drop: Optional[float] = None

    def __post_init__(self) -> None:
        if self.actions.keys() != METRIC_SET:
            raise ValueError("plan must cover all metrics")

    def to_dict(self) -> dict:
        actions = {}
        for metric in METRICS:
            action = self.actions[metric]
            entry: dict = {"action": action.direction}
            if action.target_range is not None:
                entry["target_low"] = action.target_range[0]
                entry["target_high"] = action.target_range[1]
            if action.suggested is not None:
                entry["suggested"] = action.suggested
            actions[metric] = entry
        doc = {
            "class_name": self.class_name,
            "planner": self.source_planner,
            "actions": actions,
        }
        if self.expected_score_drop is not None:
            doc["expected_score_drop"] = self.expected_score_drop
        return doc


@dataclass(frozen=True)
class ThresholdRule:
    """Upper bound on one metric, as derived by a threshold baseline."""

    metric: str
    upper: float
    p_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.upper):
            raise ValueError("threshold must be finite")
        if self.p_fraction is not None and not 0.0 < self.p_fraction <= 1.0:
            raise ValueError("p_fraction must lie in (0, 1]")


_KEEP = Action()


def no_change_plan(class_name: str, source_planner: str) -> Plan:
    return Plan(class_name, dict.fromkeys(METRICS, _KEEP), source_planner)


# ---------------------------------------------------------------------------
# XTREE


def _branch_distance(a: Branch, b: Branch) -> int:
    return len(a.condition_keys() ^ b.condition_keys())


def _shared_prefix(a: Branch, b: Branch) -> int:
    """Depth of the deepest common ancestor of two distinct leaf branches."""
    return next(i for i, (x, y) in enumerate(zip(a.conditions, b.conditions)) if x != y)


def plan_targets(tree: TreeNode, gamma: float = DEFAULT_GAMMA) -> PlanTargets:
    """Each leaf's desired branch, keyed by the leaf's conditions.

    A leaf's candidates are the other leaves scoring below ``gamma`` times
    its score. The search ascends from the leaf's parent and stops at the
    first ancestor with a candidate below it, so the winner is the candidate
    sharing the longest condition prefix with the leaf; ties go to fewest
    differing conditions, then lower score, then branch order. A leaf
    without candidates maps to None.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    branches = leaves(tree)
    targets: PlanTargets = {}
    for current in branches:
        better = [
            b for b in branches if b.score < gamma * current.score and b is not current
        ]
        targets[current.conditions] = min(better, default=None, key=lambda b: (
            -_shared_prefix(b, current), _branch_distance(b, current),
            b.score, b.sort_key(),
        ))
    return targets


@lru_cache
def _draws(seed: int, count: int) -> tuple[float, ...]:
    """The first ``count`` values of ``random.Random(seed).random()``."""
    rng = random.Random(seed)
    return tuple(rng.random() for _ in range(count))


def xtree_plan(
    tree: TreeNode,
    targets: PlanTargets,
    record: ClassRecord,
    seed: int = DEFAULT_SEED,
    source_planner: str = "xtree",
) -> Plan:
    """Plan by contrasting the record's branch with its leaf's desired branch.

    ``targets`` comes from ``plan_targets`` on the same tree. Each condition
    of the desired branch the record does not already satisfy becomes an
    increase or decrease toward that condition's range; a leaf without a
    desired branch gets a plan with no changes. The i-th change suggests
    ``low + (high - low) * u``, ``u`` the i-th draw of ``random.Random(seed)``:
    the value ``Random.uniform`` gives, without seeding a generator per class.
    """
    current = locate(tree, record)
    desired = targets[current.conditions]
    if desired is None:
        return no_change_plan(record.class_name, source_planner)

    draws = iter(_draws(seed, len(desired.conditions)))
    actions = dict.fromkeys(METRICS, _KEEP)
    values = record.values
    node = tree
    for cond in desired.conditions:  # cond.metric is node.split_metric
        idx = apply_bins(node.split_bins, values[node.split_index])
        if idx < cond.range_index:
            direction = INCREASE
        elif idx > cond.range_index:
            direction = DECREASE
        else:
            direction = NO_CHANGE
        if direction != NO_CHANGE:
            actions[cond.metric] = Action(
                direction=direction,
                target_range=(cond.low, cond.high),
                suggested=cond.low + (cond.high - cond.low) * next(draws),
            )
        node = node.children[cond.range_index]
    return Plan(
        record.class_name,
        actions,
        source_planner,
        expected_score_drop=current.score - desired.score,
    )


# ---------------------------------------------------------------------------
# Threshold baselines


def _screen(train: VersionedDataset, level: float) -> dict[str, LogisticFit]:
    """Logistic screen shared by the supervised baselines: metric -> fit, for
    each metric whose fit converged with a slope significant at ``level``.

    The 20 fits (None where a fit raised ValueError) are made once per
    dataset and kept in ``train.screen``; each baseline filters them.
    """
    if not train.screen:
        labels = [1 if r.is_defective() else 0 for r in train.records]
        fits = {}
        for metric in METRICS:
            try:
                fits[metric] = fit_univariate_logistic(train.column(metric), labels)
            except ValueError:
                fits[metric] = None
        train.screen.update(fits)
    return {m: fit for m, fit in train.screen.items()
            if fit is not None and fit.converged and not fit.p_value > level}


def weighted_percentile(
    values: list[float], weights: list[float], percentile: float
) -> float:
    """Smallest value whose cumulative weight share reaches ``percentile``.

    Weights that sum to zero degrade to equal weighting.
    """
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must lie in (0, 100)")
    if len(values) != len(weights) or not values:
        raise ValueError("values and weights must be equal-length and non-empty")
    total = math.fsum(weights)  # correctly rounded: independent of weight order
    if total <= 0:
        weights = [1.0] * len(values)
        total = float(len(values))
    pairs = sorted(zip(values, weights))
    target = percentile / 100.0
    cumulative = 0.0
    for value, group in groupby(pairs, key=itemgetter(0)):
        for _, weight in group:
            cumulative += weight
        if cumulative / total >= target:
            return float(value)
    return float(pairs[-1][0])


def alves_thresholds(
    train: VersionedDataset, percentile: float = DEFAULT_PERCENTILE
) -> list[ThresholdRule]:
    """Size-weighted percentile thresholds.

    Each class's metric value is weighted by its lines of code; the
    threshold is the smallest metric value whose cumulative weight reaches
    the percentile. Metrics failing the logistic defect screen are dropped.
    """
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must lie in (0, 100)")
    weights = train.column("loc")
    rules = []
    for metric in _screen(train, SIGNIFICANCE_LEVEL):
        threshold = weighted_percentile(train.column(metric), weights, percentile)
        rules.append(ThresholdRule(metric, upper=threshold))
    return rules


def varl(fit: LogisticFit, p1: float = DEFAULT_P1) -> float:
    """Metric value at which the fitted defect probability reaches ``p1``."""
    return (math.log(p1 / (1.0 - p1)) - fit.alpha) / fit.beta


def shatnawi_thresholds(
    train: VersionedDataset, p0: float = DEFAULT_P0, p1: float = DEFAULT_P1
) -> list[ThresholdRule]:
    """Inverse-logistic risk thresholds.

    For each metric surviving the logistic screen at significance ``p0``,
    the threshold is where the fitted curve crosses probability ``p1``.
    Non-positive, non-finite, or out-of-observed-range thresholds are
    dropped as vacuous.
    """
    if not 0.0 < p0 < 1.0 or not 0.0 < p1 < 1.0:
        raise ValueError("p0 and p1 must lie in (0, 1)")
    rules = []
    for metric, fit in _screen(train, p0).items():
        if fit.beta == 0.0:
            continue
        values = train.column(metric)
        threshold = varl(fit, p1)
        if not math.isfinite(threshold) or threshold <= 0.0:
            continue
        if threshold < min(values) or threshold > max(values):
            continue
        rules.append(ThresholdRule(metric, upper=float(threshold)))
    return rules


def oliveira_thresholds(
    train: VersionedDataset,
    min_compliance: float = DEFAULT_MIN_COMPLIANCE,
    tail: float = DEFAULT_TAIL,
) -> list[ThresholdRule]:
    """Relative thresholds ``(p, k)`` chosen by penalty minimization.

    Candidates pair every integer percentage p in 1..99 with every distinct
    observed metric value k. The first penalty charges compliance shortfall
    against ``min_compliance``; the second charges the normalized distance
    between k and the median of the values above the ``tail``-th percentile
    (an idealized upper value). Ties prefer larger p, then smaller k. The
    method is unsupervised, so no logistic screen applies.
    """
    if not 0.0 < min_compliance < 100.0 or not 0.0 < tail < 100.0:
        raise ValueError("min_compliance and tail must lie in (0, 100)")
    import numpy as np
    rules = []
    for metric in METRICS:
        ordered = np.sort(np.array(train.column(metric), dtype=float))
        n = len(ordered)
        first = np.ones(n, dtype=bool)  # the first of each run: np.unique's pick
        first[1:] = ordered[1:] != ordered[:-1]
        ks = ordered[first]

        # np.percentile's linear method, by its float steps. The cut is read
        # only through ``>``, so the sign of a zero cut cannot matter.
        virtual = (n - 1) * (tail / 100)
        low = math.floor(virtual)  # at most n - 1, as tail < 100
        a, b = float(ordered[low]), float(ordered[min(low + 1, n - 1)])
        t = virtual - low
        tail_cut = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
        above = ordered[ordered > tail_cut].tolist()
        tail_median = median(above) if above else float(ordered[-1])
        denominator = tail_median if tail_median > 0 else 1.0
        penalty2 = np.abs(ks - tail_median) / denominator

        # The rate is k's share of values for p <= share and 0 above, so each
        # k's best p is the largest the share reaches, or 99 when all p tie.
        share = 100.0 * np.searchsorted(ordered, ks, side="right") / n
        held = np.maximum(0.0, min_compliance - share) + penalty2
        broken = min_compliance + penalty2
        total = np.where(share >= 1.0, held, broken)
        best_p = np.where(
            (share >= 1.0) & (held < broken), np.minimum(99.0, np.floor(share)), 99.0)
        # Ties: larger p first, then smaller k.
        col = max(np.flatnonzero(total == total.min()), key=lambda c: (best_p[c], -c))
        rules.append(ThresholdRule(
            metric, upper=float(ks[col]), p_fraction=float(best_p[col]) / 100.0))
    return rules


def threshold_plan(
    rules: list[ThresholdRule],
    record: ClassRecord,
    source_planner: str = "threshold",
) -> Plan:
    """Decrease every metric whose value exceeds its rule's upper bound."""
    actions = dict.fromkeys(METRICS, _KEEP)
    values = record.values
    for rule in rules:
        if values[METRIC_INDEX[rule.metric]] > rule.upper:
            actions[rule.metric] = Action(
                direction=DECREASE, target_range=(0.0, rule.upper)
            )
    return Plan(record.class_name, actions, source_planner)


def suggest_refactorings(plan: Plan) -> list[str]:
    """Catalog refactorings whose metric signature matches the plan.

    Rows are ranked by how many of the plan's non-no-change actions they
    match on the shared metrics, with fewer unmatched signature entries and
    catalog order breaking ties. Rows matching nothing are omitted.
    """
    actions = plan.actions
    ranked = []
    for position, row in enumerate(refactoring_table()):
        shared = matches = 0
        for metric, sign in row.signature.items():
            if metric in SHARED_METRICS:
                shared += 1
                matches += actions[metric].direction == sign
        if matches:
            ranked.append((-matches, shared - matches, position, row.name))
    ranked.sort()
    return [name for *_, name in ranked]


# ---------------------------------------------------------------------------
# Planner interface


class PlannerBase:
    """Common surface: ``fit(train)`` then ``plan(record)`` per class."""

    name = "base"

    def fit(self, train: VersionedDataset) -> "PlannerBase":
        raise NotImplementedError

    def plan(self, record: ClassRecord) -> Plan:
        raise NotImplementedError

    def plan_all(self, dataset: VersionedDataset) -> list[Plan]:
        return [self.plan(record) for record in dataset.records]


class XTreePlanner(PlannerBase):
    """Within-project contrast-set planner."""

    name = "xtree"

    def __init__(
        self,
        gamma: float = DEFAULT_GAMMA,
        seed: int = DEFAULT_SEED,
        max_depth: int = DEFAULT_MAX_DEPTH,
        min_leaf: int | None = None,
        name: str | None = None,
    ):
        self.gamma = gamma
        self.seed = seed
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        if name is not None:
            self.name = name
        self.tree: TreeNode | None = None
        self.targets: PlanTargets | None = None

    def fit(self, train: VersionedDataset) -> "XTreePlanner":
        bins = fit_bins(train)
        self.tree = build_tree(
            train, bins, max_depth=self.max_depth, min_leaf=self.min_leaf
        )
        self.targets = plan_targets(self.tree, self.gamma)
        return self

    def plan(self, record: ClassRecord) -> Plan:
        if self.tree is None:
            raise RuntimeError("planner not fitted")
        return xtree_plan(
            self.tree, self.targets, record, self.seed, source_planner=self.name
        )


class ThresholdPlanner(PlannerBase):
    """A threshold baseline by name: ``fit`` derives the rules with the
    baseline's ``<name>_thresholds`` function and the given options, and
    ``plan`` decreases every metric above its rule's bound."""

    def __init__(self, name: str, **options):
        if PLANNERS.get(name, (None,))[0] is not ThresholdPlanner:
            raise ValueError(f"unknown threshold planner {name!r}")
        self.name = name
        self.options = options
        self.rules: list[ThresholdRule] | None = None

    def fit(self, train: VersionedDataset) -> "ThresholdPlanner":
        # Looked up on the module at each call, so a wrapper installed on a
        # rule function sees the call.
        self.rules = globals()[f"{self.name}_thresholds"](train, **self.options)
        return self

    def plan(self, record: ClassRecord) -> Plan:
        if self.rules is None:
            raise RuntimeError("planner not fitted")
        return threshold_plan(self.rules, record, source_planner=self.name)


# Each planner's name -> its class and the options it takes. make_planner
# hands a planner only its own options; the CLI takes its choices from here.
_TREE_OPTIONS = ("gamma", "seed", "max_depth", "min_leaf")
PLANNERS: dict[str, tuple[type[PlannerBase], tuple[str, ...]]] = {
    "xtree": (XTreePlanner, _TREE_OPTIONS),
    "belltree": (XTreePlanner, _TREE_OPTIONS),
    "alves": (ThresholdPlanner, ("percentile",)),
    "shatnawi": (ThresholdPlanner, ("p0", "p1")),
    "oliveira": (ThresholdPlanner, ("min_compliance", "tail")),
}
PLANNER_NAMES = tuple(PLANNERS)


def make_planner(name: str, **options) -> PlannerBase:
    """Build a planner by name, passing only the options it takes."""
    try:
        factory, takes = PLANNERS[name]
    except KeyError:
        raise ValueError(f"unknown planner {name!r}") from None
    return factory(name=name, **{k: options[k] for k in takes if k in options})
