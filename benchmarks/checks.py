"""Output checks and expected counts, derived only from the generated CSVs.

Nothing here imports planwise: every expectation comes from the
benchmark's own reading of the corpus, so a change to planwise cannot
change what the checks expect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

from corpus import METRICS

ACTIONS = frozenset("+-.")

# The twelve rows of the published refactoring catalog.
CATALOG = frozenset({
    "Extract Class", "Extract Method", "Hide Method", "Inline Method",
    "Inline Temp", "Remove Setting Method", "Replace Assignment",
    "Replace Magic Number", "Consolidate Conditional", "Reverse Conditional",
    "Encapsulate Field", "Inline Class",
})

# ``evaluate --planner all --project-dir`` runs every planner that needs no
# community, in this order.
WITHIN_PLANNERS = ("xtree", "alves", "shatnawi", "oliveira")


@dataclass(frozen=True)
class Release:
    """One release CSV: class names in file order and their defect counts."""

    path: Path
    version: str
    names: tuple[str, ...]
    defects: dict[str, int]

    def __len__(self) -> int:
        return len(self.names)


def _version_key(label: str) -> tuple:
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", label) if p)


def read_release(path: Path) -> Release:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        version_col = header.index("version")
        defect_col = header.index("bug")
        names, defects, version = [], {}, None
        for row in reader:
            version = row[version_col]
            names.append(row[2])
            defects[row[2]] = int(row[defect_col])
    return Release(path, version, tuple(names), defects)


def read_corpus(root: Path) -> dict[str, list[Release]]:
    """Project name -> releases in version order."""
    corpus = {}
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        releases = [read_release(p) for p in sorted(sub.glob("*.csv"))]
        corpus[sub.name] = sorted(releases, key=lambda r: _version_key(r.version))
    return corpus


def output_digest(path: Path) -> str:
    """sha256 over the relative names and contents of every output file."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(str(f.relative_to(path) if path.is_dir() else f.name).encode())
        h.update(b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def _in_unit(value, high: float) -> bool:
    return value is None or (isinstance(value, (int, float)) and 0.0 <= value <= high)


def check_within(out_dir: Path, releases: list[Release], project: str) -> list[str]:
    problems = []
    expected = {"summary.csv", "summary.json"}
    for i, j, k in zip(releases, releases[1:], releases[2:]):
        matched = [n for n in j.names if n in k.defects]
        matched_defects = sum(j.defects[n] for n in matched)
        for planner in WITHIN_PLANNERS:
            stem = f"{project}-{i.version}-{j.version}-{k.version}-{planner}"
            expected |= {f"{stem}.json", f"{stem}-curve.csv"}
            try:
                doc = json.loads((out_dir / f"{stem}.json").read_text())
                curve_rows = list(csv.DictReader(
                    (out_dir / f"{stem}-curve.csv").read_text().splitlines()))
            except (OSError, ValueError) as exc:
                problems.append(f"{stem}: unreadable result ({exc})")
                continue
            if doc.get("planner") != planner:
                problems.append(f"{stem}: planner {doc.get('planner')!r}")
            if doc.get("versions") != {
                "train": i.version, "test": j.version, "validation": k.version
            }:
                problems.append(f"{stem}: versions {doc.get('versions')}")
            if doc.get("matched_classes") != len(matched):
                problems.append(
                    f"{stem}: matched_classes {doc.get('matched_classes')} "
                    f"!= {len(matched)} classes in both releases")
            if doc.get("matched_defects") != matched_defects:
                problems.append(
                    f"{stem}: matched_defects {doc.get('matched_defects')} "
                    f"!= {matched_defects}")
            curve = doc.get("curve", [])
            if sum(p["classes"] for p in curve) != len(matched):
                problems.append(f"{stem}: curve classes do not sum to matched_classes")
            if [int(r["classes"]) for r in curve_rows] != [p["classes"] for p in curve]:
                problems.append(f"{stem}: curve CSV disagrees with the JSON curve")
            if doc.get("changes_per_plan", {}).get("plans") != len(j):
                problems.append(f"{stem}: plan count is not the release size {len(j)}")
            for key in ("aupec_reduced", "aupec_increased"):
                if not _in_unit(doc.get(key), 100.0):
                    problems.append(f"{stem}: {key} {doc.get(key)!r} outside [0, 100]")
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if found != expected:
        problems.append(
            f"result files: missing {sorted(expected - found)[:3]}, "
            f"unexpected {sorted(found - expected)[:3]}")
    return problems


def two_label(releases: list[Release]) -> bool:
    """True when a project's pooled classes include defective and clean ones."""
    flags = {d > 0 for r in releases for d in r.defects.values()}
    return len(flags) == 2


def check_discover(path: Path, corpus: dict[str, list[Release]]) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report ({exc})"]
    names = sorted(corpus)
    problems = []
    if doc.get("community") != names:
        problems.append(f"community {doc.get('community')} != {names}")
    if doc.get("quality_measure") != "g-score":
        problems.append(f"quality_measure {doc.get('quality_measure')!r}")
    scores = doc.get("scores", {})
    if sorted(scores) != names:
        problems.append(f"scored sources {sorted(scores)} != {names}")
    expected_medians = {}
    for source, row in scores.items():
        if sorted(row) != [n for n in names if n != source]:
            problems.append(f"{source}: targets {sorted(row)}")
            continue
        for target, score in row.items():
            if not _in_unit(score, 1.0):
                problems.append(f"{source}->{target}: score {score!r} outside [0, 1]")
            if (score is None) == two_label(corpus[target]):
                problems.append(f"{source}->{target}: score {score!r} but "
                                f"two-label ground truth is {two_label(corpus[target])}")
        defined = [s for s in row.values() if s is not None]
        if defined:
            expected_medians[source] = statistics.median(defined)
    medians = doc.get("per_source_median", {})
    if medians != expected_medians:
        problems.append("per_source_median is not the median of each source's scores")
    if expected_medians:
        best = min(expected_medians, key=lambda n: (-expected_medians[n], n))
        if doc.get("bellwether") != best:
            problems.append(f"bellwether {doc.get('bellwether')!r} != argmax {best!r}")
    return problems


def check_plan(path: Path, test: Release) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable plans ({exc})"]
    problems = []
    plans = doc.get("plans", [])
    if [p.get("class_name") for p in plans] != list(test.names):
        problems.append(f"{len(plans)} plans do not match the {len(test)} test classes")
    for plan in plans:
        actions = plan.get("actions", {})
        where = plan.get("class_name")
        if sorted(actions) != sorted(METRICS):
            problems.append(f"{where}: actions cover {len(actions)} metrics, not 20")
        elif any(a.get("action") not in ACTIONS for a in actions.values()):
            problems.append(f"{where}: action outside + - .")
        unknown = set(plan.get("refactorings", [])) - CATALOG
        if unknown:
            problems.append(f"{where}: refactorings not in the catalog {sorted(unknown)}")
        if len(problems) > 10:
            break
    return problems
