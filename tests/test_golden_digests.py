"""Golden digests of tree growth, exemplar discovery and XTREE plans on
tie-heavy data.

Integer-valued metrics make many values tie (``conftest.tie_heavy_community``),
which exercises the grouping, boundary-skipping and tie-breaking rules of
discretization and tree growth. The tree and discovery digests were recorded
with the earlier implementation (``Counter``-based MDL, tree growth over
record lists and ``locate``-based prediction), so they pin the fast paths to
its bits: any change to a tree's shape, a cut, a score or a discovery score
changes them. The plan digests were recorded while XTREE still searched the
tree level by level for every class, so they pin the per-leaf targets found
once at fit to that search: any change to a chosen branch, a direction, a
target range or a suggested value changes them. The evaluation digests were
recorded while every plan still built a fresh ``Action`` for every metric,
so they pin the shared no-change action, the set-free plan check and the
item-set overlap to the per-key results: any change to a curve, an area, a
changes-per-plan summary or a matched count changes them.

The tree, discovery and pooled plan digests were recorded while pooling
stacked every row of every release, so they take that stack,
``conftest.stacked_releases``, as their input data; ``pool_versions`` now
keeps one row per class, and its own tests are in ``test_datasets``.
"""

import hashlib
import json

import pytest

from planwise import bellwether
from planwise.bellwether import discover
from planwise.evaluate import evaluate_windows
from planwise.planners import XTreePlanner, make_planner
from planwise.tree import build_tree, fit_bins, tree_to_dict

from conftest import stacked_releases, tie_heavy_community, tie_heavy_history


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


EXPECTED_TREES = {
    ("p0", None): (
        "8aa7e530b8c341d78a22f38dfcc8f83694ffe31b24c89cf40fc31dbf06704352"
    ),
    ("p0", 2): (
        "8aa7e530b8c341d78a22f38dfcc8f83694ffe31b24c89cf40fc31dbf06704352"
    ),
    ("p1", None): (
        "1f8e4f3b5f96f1937a8dcb2e8a42c7b0ccd782bfa846cf776d3f95d795960ff3"
    ),
    ("p1", 2): (
        "f94a94e43d268e14175842bc1c22b1b727ea448fa3b42ec19bdbe5b94b26271e"
    ),
    ("p2", None): (
        "7b36011ed464a180b3609586bace1b16f9b6665552d5e06b8b8e722a8deda58b"
    ),
    ("p2", 2): (
        "f9908bc33070dbb0ba0bc64694902888de49934f1de5a0f37424baedddb4d2f5"
    ),
}
EXPECTED_DISCOVER = (
    "b93ca4dcf09e9f3bb02abc946123d8be311cfb839b4d3cbd01cc95abfc872ec9"
)

# (fit, gamma) -> digest of the plans for every class of one release. A
# fit on p0's stacked releases plans p1's second release; a single-release
# fit on p2's first release plans its second.
EXPECTED_PLANS = {
    ("pooled", 0.3): (
        "de0d256a50fbde194f5a149a910231b5c0868da623f17b24ebe98cb5e58417a1"
    ),
    ("pooled", 0.5): (
        "9554551562efd99d5fc0cc5427759be16da76f7419799f3964eb1d0e77b5f612"
    ),
    ("pooled", 0.7): (
        "2c8bb44cf9c25ab7fcb5440e488942da1ee4293ad4720b27ebf53a6a297fdcfe"
    ),
    ("single", 0.3): (
        "c26f613abc8d9b92f142761f441e317471d932a2e6a1a6b3b587d1e342d6484a"
    ),
    ("single", 0.5): (
        "0870928feb4ca286ae6fb580e2c02185715960b4a6f8a627006716c0474799f3"
    ),
    ("single", 0.7): (
        "c873364552543feb6dbcd091d8da227e17e7cadd67ed7a66e68317e1dda5688f"
    ),
}

# planner -> digest of the results of both windows of ``tie_heavy_history``.
EXPECTED_EVALUATIONS = {
    "xtree": (
        "5356420995c76296b7bd65f16828ec290c4ce6e6ed668960453ddea959be010e"
    ),
    "alves": (
        "fb9ea5151abd1a229ff001e74dafc2ef0feba28445ceb593d03b8f0316328418"
    ),
    "shatnawi": (
        "37fd6f96ed4e53958a71bf288031b237b33a9cb73427283a60b8b4095ad326fe"
    ),
    "oliveira": (
        "79add79714cc83ba075c32b65fab62efc3aeb0e830b811dd69c421fe63dd7176"
    ),
}


@pytest.fixture(scope="module")
def community():
    return tie_heavy_community()


@pytest.mark.parametrize("name,min_leaf", sorted(EXPECTED_TREES, key=str))
def test_tree_digest(community, name, min_leaf):
    project = next(p for p in community.projects if p.name == name)
    pooled = stacked_releases(project)
    tree = build_tree(pooled, fit_bins(pooled), min_leaf=min_leaf)
    assert _sha(tree_to_dict(tree)) == EXPECTED_TREES[(name, min_leaf)]


def test_discover_digest(community, monkeypatch):
    monkeypatch.setattr(bellwether, "pool_versions", stacked_releases)
    assert _sha(discover(community).to_dict()) == EXPECTED_DISCOVER


@pytest.mark.parametrize("fit,gamma", sorted(EXPECTED_PLANS))
def test_plan_digest(community, fit, gamma):
    projects = {p.name: p for p in community.projects}
    if fit == "pooled":
        train, release = stacked_releases(projects["p0"]), projects["p1"].versions[1]
    else:
        train, release = projects["p2"].versions[0], projects["p2"].versions[1]
    planner = XTreePlanner(gamma=gamma).fit(train)
    plans = [planner.plan(r) for r in release.records]
    assert _sha([p.to_dict() for p in plans]) == EXPECTED_PLANS[(fit, gamma)]


@pytest.mark.parametrize("planner", sorted(EXPECTED_EVALUATIONS))
def test_evaluation_digest(planner):
    results = evaluate_windows(tie_heavy_history(), make_planner(planner))
    assert _sha([r.to_dict() for r in results]) == EXPECTED_EVALUATIONS[planner]
