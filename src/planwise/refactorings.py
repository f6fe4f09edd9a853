"""Catalog of how common refactorings move class-level code metrics.

Collated from the refactoring-effect literature: each row names a
refactoring and the direction it tends to push nine class metrics. A blank
entry means the literature is silent for that metric, which is different
from "no change".
"""

from __future__ import annotations

from dataclasses import dataclass

from .datasets import METRIC_SET

# Metric universe of the catalog. ``fout`` (fan-out) and ``nom`` (number of
# methods) are catalog-only: they have no counterpart in the dataset schema,
# so signature matching is restricted to the shared metrics below.
TABLE_METRICS: tuple[str, ...] = (
    "dit", "noc", "cbo", "rfc", "fout", "wmc", "nom", "loc", "lcom",
)

SHARED_METRICS: tuple[str, ...] = tuple(m for m in TABLE_METRICS if m in METRIC_SET)


@dataclass(frozen=True)
class RefactoringSignature:
    """A refactoring and its expected metric movements (``+``/``-``)."""

    name: str
    signature: dict[str, str]


_ROWS: tuple[tuple[str, dict[str, str]], ...] = (
    ("Extract Class", {"cbo": "+", "rfc": "-", "fout": "+", "wmc": "-",
                       "nom": "-", "loc": "-", "lcom": "-"}),
    ("Extract Method", {"rfc": "+", "wmc": "+", "nom": "+", "loc": "+",
                        "lcom": "+"}),
    ("Hide Method", {}),
    ("Inline Method", {"rfc": "-", "wmc": "-", "nom": "-", "loc": "-",
                       "lcom": "-"}),
    ("Inline Temp", {"loc": "-"}),
    ("Remove Setting Method", {"rfc": "-", "wmc": "-", "nom": "-", "loc": "-",
                               "lcom": "-"}),
    ("Replace Assignment", {"loc": "-"}),
    ("Replace Magic Number", {"loc": "+"}),
    ("Consolidate Conditional", {"rfc": "+", "wmc": "+", "nom": "+",
                                 "loc": "-", "lcom": "+"}),
    ("Reverse Conditional", {}),
    ("Encapsulate Field", {"wmc": "+", "nom": "+", "loc": "+", "lcom": "+"}),
    ("Inline Class", {"cbo": "-", "rfc": "+", "fout": "-", "wmc": "+",
                      "nom": "+", "loc": "+", "lcom": "+"}),
)


def table() -> list[RefactoringSignature]:
    """The 12-row catalog, in its published order."""
    return [RefactoringSignature(name, dict(sig)) for name, sig in _ROWS]
