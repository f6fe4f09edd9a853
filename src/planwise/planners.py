"""Plan generators: the contrast-set tree planner and three threshold baselines.

Every planner turns one class record into a `Plan`: a per-metric vector of
increase/decrease/no-change actions, optionally with a concrete target range.
``alves`` and ``shatnawi`` filter one logistic screen, kept for the last
training dataset screened, and ``oliveira`` minimises its (p, k) penalty in
closed form.

Plans share their frozen Actions: every no-change entry is ``_KEEP``, a
threshold plan takes its rule's ``decrease``, and a fitted ``XTreePlanner``
builds each move once per fit. Each Action builds its ``Plan.to_dict`` entry
once, on first use, and every plan holding it shares that read-only dict.
"""

from __future__ import annotations

import inspect
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
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
from .refactorings import table as refactoring_table
from .stats import LogisticFit, fit_univariate_logistic, median
from .tree import (
    DEFAULT_MAX_DEPTH,
    Branch,
    TreeNode,
    build_tree,
    fit_bins,
    leaves,
    locate,
)
from .discretize import apply_bins

DEFAULT_GAMMA = 0.5
DEFAULT_SEED = 42
DEFAULT_P1 = 0.05
SIGNIFICANCE_LEVEL = 0.05

# A leaf's (metric, range index) conditions -> the branch its classes should
# move to, or None.
PlanTargets = dict[tuple[tuple[str, int], ...], Optional[Branch]]


class _Entry(dict):
    """One Action's entry in ``Plan.to_dict``, shared by every plan holding
    the Action: every mutator raises TypeError, and a copy or a pickle of it
    is a plain dict."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a plan's action entry is shared and read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


@dataclass(frozen=True)
class Action:
    """One metric's recommendation: direction plus optional target range.

    Frozen, so plans share Actions: every plan's no-change entries are the
    one instance ``_KEEP``, and a fitted XTREE planner builds each move once.
    ``_entry``, built on first use, is the Action's read-only JSON entry.
    """

    direction: str = NO_CHANGE
    target_range: Optional[tuple[float, float]] = None
    suggested: Optional[float] = None

    def __post_init__(self) -> None:
        if self.direction not in ACTIONS:
            raise ValueError(f"unknown action {self.direction!r}")
        if self.target_range is not None and self.target_range[0] > self.target_range[1]:
            raise ValueError("target range low must not exceed high")

    @cached_property
    def _entry(self) -> _Entry:
        entry = {"action": self.direction}
        if self.target_range is not None:
            entry["target_low"], entry["target_high"] = self.target_range
        if self.suggested is not None:
            entry["suggested"] = self.suggested
        return _Entry(entry)

    def __reduce__(self):  # a copy builds its own entry, not a plain dict's copy
        return type(self), (self.direction, self.target_range, self.suggested)


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
        """The plan's JSON object; its ``actions`` map each metric to its
        Action's shared, read-only entry."""
        actions = self.actions
        doc = {
            "class_name": self.class_name,
            "planner": self.source_planner,
            "actions": {metric: actions[metric]._entry for metric in METRICS},
        }
        if self.expected_score_drop is not None:
            doc["expected_score_drop"] = self.expected_score_drop
        return doc


@dataclass(frozen=True)
class ThresholdRule:
    """Upper bound on one metric, as derived by a threshold baseline.

    ``index`` is the metric's position in a record's ``values``, and
    ``decrease`` the one Action, toward ``[min(0, upper), upper]``, that
    every plan breaking the rule shares.
    """

    metric: str
    upper: float
    p_fraction: Optional[float] = None
    index: int = field(init=False, compare=False, repr=False)
    decrease: Action = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.metric not in METRIC_INDEX:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not math.isfinite(self.upper):
            raise ValueError("threshold must be finite")
        if self.p_fraction is not None and not 0.0 < self.p_fraction <= 1.0:
            raise ValueError("p_fraction must lie in (0, 1]")
        # Equal rules write equal plans: a -0.0 bound is stored as 0.0.
        object.__setattr__(self, "upper", self.upper + 0.0)
        object.__setattr__(self, "index", METRIC_INDEX[self.metric])
        object.__setattr__(
            self, "decrease", Action(DECREASE, (min(0.0, self.upper), self.upper))
        )


_KEEP = Action()


def no_change_plan(class_name: str, source_planner: str) -> Plan:
    return Plan(class_name, dict.fromkeys(METRICS, _KEEP), source_planner)


# ---------------------------------------------------------------------------
# XTREE


def _branch_distance(a: Branch, b: Branch) -> int:
    return len(set(a.conditions).symmetric_difference(b.conditions))


def _shared_prefix(a: Branch, b: Branch) -> int:
    """Depth of the deepest common ancestor of two distinct leaf branches."""
    return next(i for i, (x, y) in enumerate(zip(a.conditions, b.conditions)) if x != y)


def plan_targets(tree: TreeNode, gamma: float = DEFAULT_GAMMA) -> PlanTargets:
    """Each leaf's desired branch, keyed by the leaf's conditions.

    A leaf's candidates are the other leaves scoring below ``gamma`` times
    its score. They are ranked by the longest condition prefix shared with
    the leaf, then the fewest differing conditions, then the lower score,
    then branch order, and the first wins. That is the candidate an ascent
    from the leaf's parent would pick, stopping at the first ancestor with
    a candidate below it and breaking ties the same way. A leaf without
    candidates maps to None.
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
            b.score, b.conditions,
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
    moves: dict | None = None,
) -> Plan:
    """Plan by contrasting the record's branch with its leaf's desired branch.

    ``targets`` comes from ``plan_targets`` on the same tree. Each condition
    of the desired branch the record does not already satisfy becomes an
    increase or decrease toward that condition's range; a leaf without a
    desired branch gets a plan with no changes. The i-th change suggests
    ``low + (high - low) * u``, ``u`` the i-th draw of ``random.Random(seed)``:
    the value ``Random.uniform`` gives, without seeding a generator per class.
    Ranges above the first are ``(low, high]``, so a suggestion that rounds
    to ``low`` there moves up to the next float.

    ``moves``, a memo kept for one tree, holds each change's Action by its
    split's BinMap (by identity), range index, direction and draw: plans
    given the same memo share their Actions. Without one, every change
    builds its own.
    """
    current = locate(tree, record)
    desired = targets[current.conditions]
    if desired is None:
        return no_change_plan(record.class_name, source_planner)

    if moves is None:
        moves = {}
    draws = iter(_draws(seed, len(desired.conditions)))
    actions = dict.fromkeys(METRICS, _KEEP)
    values = record.values
    node = tree
    for metric, index in desired.conditions:  # metric is node.split_metric
        bins = node.split_bins
        idx = apply_bins(bins, values[node.split_index])
        if idx != index:
            direction = INCREASE if idx < index else DECREASE
            u = next(draws)
            key = (id(bins), index, direction, u)  # the memo's tree keeps bins alive
            action = moves.get(key)
            if action is None:
                low, high = bins.range_bounds(index)
                suggested = low + (high - low) * u
                if index and suggested <= low:  # rounded onto the cut below the range
                    suggested = math.nextafter(low, high)
                action = moves[key] = Action(direction, (low, high), suggested)
            actions[metric] = action
        node = node.children[index]
    return Plan(
        record.class_name,
        actions,
        source_planner,
        expected_score_drop=current.score - desired.score,
    )


# ---------------------------------------------------------------------------
# Threshold baselines


# The last dataset screened, held so that no other can take its identity,
# and its 20 fits: alves and shatnawi screen a window's release back to back.
_screened: tuple[Optional[VersionedDataset], dict[str, Optional[LogisticFit]]] = (None, {})


def _screen(train: VersionedDataset, level: float) -> dict[str, LogisticFit]:
    """Logistic screen shared by the supervised baselines: metric -> fit, for
    each metric whose fit converged with a slope significant at ``level``.

    The 20 fits (None where a fit raised ValueError) are kept for the last
    dataset screened, so a second baseline on the same dataset refits none;
    each baseline filters them.
    """
    global _screened
    if _screened[0] is not train:
        labels = [1 if r.is_defective() else 0 for r in train.records]
        fits = {}
        for metric in METRICS:
            try:
                fits[metric] = fit_univariate_logistic(train.column(metric), labels)
            except ValueError:
                fits[metric] = None
        _screened = train, fits
    return {m: fit for m, fit in _screened[1].items()
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
    train: VersionedDataset, percentile: float = 70.0
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
    train: VersionedDataset, p0: float = 0.05, p1: float = DEFAULT_P1
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
    min_compliance: float = 90.0,
    tail: float = 90.0,
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
    rules = []
    for metric in METRICS:
        ordered = sorted(train.column(metric))
        if not all(map(math.isfinite, ordered)):
            raise ValueError(f"metric {metric!r} holds a non-finite value")
        n = len(ordered)

        # np.percentile's linear method, by its float steps. The cut is read
        # only through ``>``, so the sign of a zero cut cannot matter.
        virtual = (n - 1) * (tail / 100)
        low = math.floor(virtual)  # at most n - 1, as tail < 100
        a, b = ordered[low], ordered[min(low + 1, n - 1)]
        t = virtual - low
        tail_cut = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
        above = ordered[bisect_right(ordered, tail_cut):]
        tail_median = median(above) if above else ordered[-1]
        denominator = tail_median if tail_median > 0 else 1.0

        # One step per distinct value k, as np.unique gives them.
        # The rate is k's share of values for p <= share and 0 above, so each
        # k's best p is the largest the share reaches, or 99 when all p tie.
        # A subnormal tail median overflows a quotient to +inf, as it does in
        # numpy's matrix search: the penalty is infinite, not an error.
        candidates = []
        end = 0
        while end < n:
            k = ordered[end]
            end = bisect_right(ordered, k, end)
            share = 100.0 * end / n
            penalty2 = abs(k - tail_median) / denominator
            held = max(0.0, min_compliance - share) + penalty2
            broken = min_compliance + penalty2
            total = held if share >= 1.0 else broken
            p = min(99, math.floor(share)) if share >= 1.0 and held < broken else 99
            candidates.append((total, -p, k))
        # The least penalty; ties go to larger p, then smaller k.
        _, neg_p, k = min(candidates)
        rules.append(ThresholdRule(metric, upper=k, p_fraction=-neg_p / 100.0))
    return rules


def threshold_plan(
    rules: list[ThresholdRule],
    record: ClassRecord,
    source_planner: str = "threshold",
) -> Plan:
    """Decrease every metric whose value exceeds its rule's upper bound:
    the metric gets the rule's shared ``decrease``."""
    actions = dict.fromkeys(METRICS, _KEEP)
    values = record.values
    for rule in rules:
        if values[rule.index] > rule.upper:
            actions[rule.metric] = rule.decrease
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
        moves = row.shared_moves
        matches = 0
        for metric, sign in moves:
            matches += actions[metric].direction == sign
        if matches:
            ranked.append((-matches, len(moves) - matches, position, row.name))
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


@dataclass(eq=False)
class XTreePlanner(PlannerBase):
    """Within-project contrast-set planner: ``grow`` grows the defect tree,
    and ``fit`` keeps it with its plan targets and a fresh memo of moves, so
    its plans share each move's Action until the next fit."""

    gamma: float = DEFAULT_GAMMA
    seed: int = DEFAULT_SEED
    max_depth: int = DEFAULT_MAX_DEPTH
    min_leaf: int | None = None
    name: str = "xtree"
    tree: TreeNode | None = field(default=None, init=False, repr=False)
    targets: PlanTargets | None = field(default=None, init=False, repr=False)
    _moves: dict = field(default_factory=dict, init=False, repr=False)

    def grow(self, train: VersionedDataset) -> TreeNode:
        """The defect tree of ``train`` at this planner's depth and leaf size."""
        return build_tree(train, fit_bins(train), max_depth=self.max_depth, min_leaf=self.min_leaf)

    def fit(self, train: VersionedDataset) -> "XTreePlanner":
        self.tree = self.grow(train)
        self.targets = plan_targets(self.tree, self.gamma)
        self._moves = {}
        return self

    def plan(self, record: ClassRecord) -> Plan:
        if self.tree is None:
            raise RuntimeError("planner not fitted")
        return xtree_plan(
            self.tree, self.targets, record, self.seed, self.name, self._moves
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


# Each planner's name -> its class and the options it takes, each with its
# default: a tree planner's fields, or a baseline's rule parameters after
# ``train``. make_planner hands a planner only its own options; the CLI takes
# its choices and defaults from here.
_TREE_OPTIONS = {f.name: f.default for f in fields(XTreePlanner) if f.init and f.name != "name"}
PLANNERS: dict[str, tuple[type[PlannerBase], dict[str, object]]] = {
    "xtree": (XTreePlanner, _TREE_OPTIONS),
    "belltree": (XTreePlanner, _TREE_OPTIONS),
    **{name: (ThresholdPlanner, {
        p.name: p.default
        for p in list(inspect.signature(globals()[f"{name}_thresholds"]).parameters.values())[1:]
    }) for name in ("alves", "shatnawi", "oliveira")},
}
PLANNER_NAMES = tuple(PLANNERS)


def make_planner(name: str, **options) -> PlannerBase:
    """Build a planner by name, passing only the options it takes."""
    try:
        factory, takes = PLANNERS[name]
    except KeyError:
        raise ValueError(f"unknown planner {name!r}") from None
    return factory(name=name, **{k: options[k] for k in takes if k in options})
