"""Catalog of how common refactorings move class-level code metrics.

Collated from the refactoring-effect literature: each row names a
refactoring and the direction it tends to push nine class metrics. A blank
entry means the literature is silent for that metric, which is different
from "no change".
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .datasets import METRIC_SET

# Metric universe of the catalog. ``fout`` (fan-out) and ``nom`` (number of
# methods) are catalog-only: they have no counterpart in the dataset schema,
# so signature matching is restricted to the shared metrics below.
TABLE_METRICS: tuple[str, ...] = (
    "dit", "noc", "cbo", "rfc", "fout", "wmc", "nom", "loc", "lcom",
)

SHARED_METRICS: tuple[str, ...] = tuple(m for m in TABLE_METRICS if m in METRIC_SET)


@dataclass(frozen=True, slots=True)
class RefactoringSignature:
    """A refactoring and its expected metric movements (``+``/``-``).

    ``signature`` is a read-only view of the row's own copy of the mapping it
    was given. ``shared_moves`` holds its ``(metric, sign)`` entries on
    ``SHARED_METRICS``, in signature order; it is derived from ``signature``
    and takes no part in equality or ``repr``. A row is frozen and slotted,
    so it takes no attribute beyond these three fields.
    """

    name: str
    signature: Mapping[str, str]
    shared_moves: tuple[tuple[str, str], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        signature = MappingProxyType(dict(self.signature))
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "shared_moves", tuple(
            (metric, sign) for metric, sign in signature.items() if metric in SHARED_METRICS
        ))


# Built once, at import: the rows are immutable, so every ``table()`` shares them.
_CATALOG: tuple[RefactoringSignature, ...] = tuple(RefactoringSignature(name, sig) for name, sig in (
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
))


def table() -> list[RefactoringSignature]:
    """The 12-row catalog, in its published order: a new list of the same
    read-only rows on every call."""
    return list(_CATALOG)
