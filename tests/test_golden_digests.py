"""Golden digests of tree growth and exemplar discovery on tie-heavy data.

Integer-valued metrics make many values tie (``conftest.tie_heavy_community``),
which exercises the grouping, boundary-skipping and tie-breaking rules of
discretization and tree growth. The expected digests were recorded with the
earlier implementation (``Counter``-based MDL, tree growth over record lists
and ``locate``-based prediction), so they pin the fast paths to its bits: any
change to a tree's shape, a cut, a score or a discovery score changes them.
"""

import hashlib
import json

import pytest

from planwise.bellwether import discover
from planwise.datasets import pool_versions
from planwise.tree import build_tree, fit_bins, tree_to_dict

from conftest import tie_heavy_community


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


@pytest.fixture(scope="module")
def community():
    return tie_heavy_community()


@pytest.mark.parametrize("name,min_leaf", sorted(EXPECTED_TREES, key=str))
def test_tree_digest(community, name, min_leaf):
    project = next(p for p in community.projects if p.name == name)
    pooled = pool_versions(project)
    tree = build_tree(pooled, fit_bins(pooled), min_leaf=min_leaf)
    assert _sha(tree_to_dict(tree)) == EXPECTED_TREES[(name, min_leaf)]


def test_discover_digest(community):
    assert _sha(discover(community).to_dict()) == EXPECTED_DISCOVER
