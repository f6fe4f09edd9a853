"""Versioned defect datasets: loading, validation, and release-to-release diffing.

Datasets follow the PROMISE/Jureczko CSV layout: one row per code class,
20 object-oriented metric columns, and a raw defect count.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

# Canonical metric universe. Order is stable and used everywhere plans are
# printed or compared.
METRICS: tuple[str, ...] = (
    "wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm", "lcom3",
    "loc", "dam", "moa", "mfa", "cam", "ic", "cbm", "amc", "max_cc", "avg_cc",
)

METRIC_SET = frozenset(METRICS)

# Each metric's position in ``METRICS``, and so in ``ClassRecord.values``.
METRIC_INDEX: dict[str, int] = {metric: i for i, metric in enumerate(METRICS)}

# Accepted header aliases for the defect-count column.
DEFECT_ALIASES = ("bug", "bugs", "defects")

# Actions a plan or a developer diff can assign to one metric.
INCREASE = "+"
DECREASE = "-"
NO_CHANGE = "."
ACTIONS = (INCREASE, DECREASE, NO_CHANGE)

ActionVector = dict[str, str]


class DatasetError(ValueError):
    """Raised when a dataset file violates the expected schema."""


@dataclass(frozen=True, slots=True)
class ClassRecord:
    """One code class: identifier, its 20 metric values, raw defect count.

    ``values`` is a tuple in ``METRICS`` order (``METRIC_INDEX`` maps a name
    to its position); ``from_metrics`` builds a record from a name -> value
    mapping. Frozen, slotted and holding only immutable fields, a record
    cannot change once built, so the memos kept on its dataset and project
    stay valid, and it is hashable.
    """

    class_name: str
    values: tuple[float, ...]
    defects: int

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple) or len(self.values) != len(METRICS):
            got = (f"{len(self.values)} values" if isinstance(self.values, tuple)
                   else type(self.values).__name__)
            raise DatasetError(
                f"record {self.class_name!r} needs a tuple of {len(METRICS)} "
                f"metric values in METRICS order, got {got}"
            )
        if self.defects < 0:
            raise DatasetError(f"record {self.class_name!r} has negative defects")

    @classmethod
    def from_metrics(
        cls, class_name: str, metrics: Mapping[str, float], defects: int
    ) -> ClassRecord:
        """A record from a metric name -> value mapping; other keys are ignored."""
        missing = METRIC_SET - metrics.keys()
        if missing:
            raise DatasetError(
                f"record {class_name!r} missing metrics: {sorted(missing)}"
            )
        return cls(class_name, tuple(map(metrics.__getitem__, METRICS)), defects)

    @property
    def metrics(self) -> dict[str, float]:
        """A fresh name -> value dict in ``METRICS`` order; changing it
        leaves the record as it was."""
        return dict(zip(METRICS, self.values))

    def is_defective(self) -> bool:
        return self.defects > 0


@dataclass(frozen=True)
class VersionedDataset:
    """All class records of one release of one project."""

    project: str
    version: str
    records: tuple[ClassRecord, ...]
    # The planners' logistic screen, memoised; records cannot change, so it holds.
    screen: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.records:
            raise DatasetError(f"{self.project} {self.version}: empty dataset")
        seen: set[str] = set()
        for rec in self.records:
            if rec.class_name in seen:
                raise DatasetError(
                    f"{self.project} {self.version}: duplicate class name "
                    f"{rec.class_name!r}"
                )
            seen.add(rec.class_name)

    def __len__(self) -> int:
        return len(self.records)

    def by_name(self) -> dict[str, ClassRecord]:
        return {r.class_name: r for r in self.records}

    def column(self, metric: str) -> list[float]:
        """One metric's values, in record order."""
        i = METRIC_INDEX[metric]
        return [r.values[i] for r in self.records]


@dataclass(frozen=True)
class Project:
    """Releases of one software project; the tuple's order is release order."""

    name: str
    versions: tuple[VersionedDataset, ...]
    # Each window's matched classes: name -> (developer moves, their no-change
    # count, defects in release k), memoised by ``ktest`` by (j, k, epsilon).
    diffs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.versions:
            raise DatasetError(f"project {self.name!r} has no versions")


@dataclass(frozen=True)
class Community:
    """A set of projects maintained by one community of developers."""

    projects: tuple[Project, ...]

    def __post_init__(self) -> None:
        if not self.projects:
            raise DatasetError("community has no projects")
        names = self.project_names()
        if len(set(names)) < len(names):
            raise DatasetError(f"community has duplicate project names: {names}")

    def project_names(self) -> list[str]:
        return [p.name for p in self.projects]

    def get(self, name: str) -> Project:
        for p in self.projects:
            if p.name == name:
                return p
        have = ", ".join(self.project_names())
        raise DatasetError(f"no project {name!r} in the community (have: {have})")


# Each normalised header name -> its column's role; any other column is
# extra. Of two ``name`` columns (or ``name`` and ``name.1``), the first
# names the project.
_ROLES: dict[str, str] = {
    **{metric: metric for metric in METRICS},
    **dict.fromkeys(DEFECT_ALIASES, "defects"),
    "name": "name", "name.1": "name", "project": "project", "version": "version",
}


def _normalize_header(name: str) -> str:
    return name.strip().lower().replace(" ", "_")


def _rows(reader, path: Path):
    """The reader's rows; a decoding or csv-module error names the file."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DatasetError(f"{path}: row {reader.line_num}: {exc}") from None


def _reject_first_bad_cell(path: Path, row_no: int, row: list[str], number_cols) -> None:
    """Raise the message for a row's leftmost number cell that is not a
    finite number; ``load_csv`` reads the cells in ``METRICS`` order."""
    for column, i in sorted(number_cols, key=lambda col: col[1]):
        try:
            if math.isfinite(float(row[i])):
                continue
            problem = "non-finite"
        except ValueError:
            problem = "non-numeric"
        raise DatasetError(f"{path}: row {row_no}: {problem} value {row[i]!r} in column {column!r}")


def load_csv(
    path: str | Path, *, _tables: tuple[dict, dict] | None = None
) -> VersionedDataset:
    """Load one release CSV into a validated dataset.

    Each header column has one role (``_ROLES``). The header must name each
    of the 20 metric columns once, a class identifier column (``name``) and
    one defect column (``bug``, ``bugs``, or ``defects``); a ``project`` and
    a ``version`` column are optional. Of two ``name`` columns (the Jureczko
    layout), the first holds the project and the last the class, so a
    ``project`` column beside them is an error, as is a third ``name`` or a
    second column of any other role. Extra columns are ignored with a warning.
    Metric and defect cells must be finite numbers (a message names the
    row's leftmost cell that is not), and the file UTF-8 text; a leading
    byte-order mark is skipped.
    A row may hold no more cells than the header, apart from blank ones.
    Each record keeps its metric values in one tuple in ``METRICS`` order,
    and equal cell texts of a file share one float object. ``_tables``, a
    cell text -> float and a class name -> itself dict, lets ``load_project``
    extend that sharing to floats and names across one project's releases.
    Every non-blank ``project`` or ``version`` cell must name the same label;
    the file name supplies a label that no cell holds.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        lines = csv.reader(fh)
        reader = _rows(lines, path)
        try:
            raw_header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty dataset") from None
        header = [_normalize_header(h) for h in raw_header]

        roles: dict[str | None, list[int]] = {}
        for i, h in enumerate(header):
            roles.setdefault(_ROLES.get(h), []).append(i)
        # Each role holds at most one column (name two); all but project and
        # version need one.
        for role in ("name", "defects", *METRICS, "version", "project"):
            cols = roles.get(role, [])
            if not cols and role not in ("version", "project"):
                raise DatasetError(f"{path}: missing " + (
                    f"defect column (one of {', '.join(DEFECT_ALIASES)})"
                    if role == "defects" else f"column {role!r}"))
            if len(cols) > (2 if role == "name" else 1):
                found = ", ".join(repr(raw_header[i]) for i in cols)
                raise DatasetError(f"{path}: " + (
                    "more than two 'name' columns" if role == "name" else
                    f"defect count appears in more than one column ({found})"
                    if role == "defects" else f"column {role!r} appears more than once"))
        *project_col, class_col = roles["name"]
        if project_col:
            if "project" in roles:
                raise DatasetError(
                    f"{path}: a 'project' column and two 'name' columns both "
                    "name the project"
                )
            roles["project"] = project_col
        extra = [raw_header[i] for i in roles.get(None, ())]
        if extra:
            warnings.warn(f"{path}: ignoring extra columns {extra}", stacklevel=2)

        # Each non-blank project or version cell must repeat the column's first
        # label; a cell equal to the previous row's was checked already.
        label_cols = [(kind, roles[kind][0]) for kind in ("project", "version") if kind in roles]
        labels: dict[str, str] = {}
        last_cells: dict[str, str] = {}
        records: list[ClassRecord] = []
        seen: set[str] = set()
        # The metric cells, then the defect cell. Each distinct cell text is
        # parsed once, and equal texts share one float; equal class names
        # share one string (both across the releases of a ``load_project``).
        number_cols = [(m, roles[m][0]) for m in METRICS]
        number_cols += [(raw_header[i], i) for i in roles["defects"]]
        parsed, names = _tables if _tables is not None else ({}, {})
        for row in reader:
            row_no = lines.line_num  # the record's last physical line, as in csv.Error
            if not any(map(str.strip, row)):
                continue
            if len(row) != len(header):
                if len(row) < len(header):
                    raise DatasetError(f"{path}: row {row_no} has too few cells")
                if any(cell.strip() for cell in row[len(header):]):
                    raise DatasetError(f"{path}: row {row_no} has more cells than the header")
            class_name = row[class_col].strip()
            if not class_name:
                raise DatasetError(f"{path}: row {row_no} has empty class name")
            if class_name in seen:
                raise DatasetError(
                    f"{path}: row {row_no}: duplicate class name {class_name!r}"
                )
            seen.add(class_name)
            for kind, i in label_cols:
                cell = row[i]
                if cell != last_cells.get(kind):
                    last_cells[kind] = cell
                    label = cell.strip()
                    if label and labels.setdefault(kind, label) != label:
                        raise DatasetError(
                            f"{path}: row {row_no}: {kind} label {label!r} differs "
                            f"from {labels[kind]!r} in an earlier row"
                        )

            values = []
            for column, i in number_cols:
                cell = row[i]
                value = parsed.get(cell)
                if value is None:
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        _reject_first_bad_cell(path, row_no, row, number_cols)
                    parsed[cell] = value
                values.append(value)
            raw_defects = values.pop()
            if raw_defects < 0 or raw_defects != int(raw_defects):
                raise DatasetError(
                    f"{path}: row {row_no}: defect count must be a non-negative "
                    f"integer, got {raw_defects}"
                )
            class_name = names.setdefault(class_name, class_name)
            records.append(ClassRecord(class_name, tuple(values), int(raw_defects)))

    if not records:
        raise DatasetError(f"{path}: empty dataset")
    # The file name supplies a label that no cell holds.
    labels = dict(zip(("project", "version"), _split_stem(path.stem))) | labels
    return VersionedDataset(labels["project"], labels["version"], tuple(records))


def _split_stem(stem: str) -> tuple[str, str]:
    """Split a file stem like ``ant-1.7`` into project and version parts."""
    m = re.match(r"^(.*?)[-_]v?(\d[\w.]*)$", stem)
    if m:
        return m.group(1), m.group(2)
    return stem, "0"


def version_sort_key(label: str) -> tuple:
    """Order version labels numerically where possible (1.9 < 1.10).

    A number sorts before text at the same position (1.3 < final).
    """
    parts = re.split(r"(\d+)", label)  # numbers at the odd positions
    return tuple((0, int(p)) if i % 2 else (1, p) for i, p in enumerate(parts) if p)


def load_project(paths: list[str | Path], name: str | None = None) -> Project:
    """Load several release CSVs of one project, ordered by version label.

    Labels that sort equal are rejected, except ``0``, which unlabelled files
    get; those keep the order they were given in. Equal cell texts across
    the releases share one float object and equal class names one string,
    through tables that live only for this call.
    """
    if not paths:
        raise DatasetError("no version CSVs given")
    tables: tuple[dict, dict] = ({}, {})
    loaded = [(load_csv(path, _tables=tables), path) for path in paths]
    loaded.sort(key=lambda pair: version_sort_key(pair[0].version))
    for (a, first), (b, second) in zip(loaded, loaded[1:]):
        if version_sort_key(a.version) == version_sort_key(b.version) != ((0, 0),):
            raise DatasetError(
                f"{first} and {second} both hold release {a.version!r}"
                if a.version == b.version else
                f"{first} and {second} hold releases {a.version!r} and "
                f"{b.version!r}, which sort equal"
            )
    return Project(name or loaded[0][0].project, tuple(d for d, _ in loaded))


def load_community(root: str | Path) -> Community:
    """Load a community from ``root/<project>/<version>.csv`` subdirectories."""
    root = Path(root)
    projects = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        csvs = sorted(sub.glob("*.csv"))
        if not csvs:
            continue
        projects.append(load_project(list(csvs), name=sub.name))
    if not projects:
        raise DatasetError(f"{root}: no project subdirectories with CSV files")
    return Community(tuple(projects))


def pool_versions(project: Project) -> VersionedDataset:
    """Pool a project's releases into one training dataset, release ``pooled``.

    Each class enters once, as the record of the latest release that holds
    it (the release's own ``ClassRecord``), so a class that lives through
    several releases counts as one row and a class that died earlier is
    kept. Classes keep the order in which they first appear.
    """
    latest = {rec.class_name: rec for version in project.versions for rec in version.records}
    return VersionedDataset(project.name, "pooled", tuple(latest.values()))


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")


def diff_versions(
    old: VersionedDataset, new: VersionedDataset, epsilon: float = 0.0
) -> dict[str, ActionVector]:
    """Per-metric developer actions between two releases.

    For every class present in both releases, each metric gets ``+`` if the
    new value exceeds ``old * (1 + epsilon)``, ``-`` if it falls below
    ``old * (1 - epsilon)``, and ``.`` otherwise; for a negative ``old`` the
    two bounds swap, so ``+`` always means the metric grew. Classes present
    in only one release are excluded.
    """
    _check_epsilon(epsilon)
    up, down = 1.0 + epsilon, 1.0 - epsilon
    new_by_name = new.by_name()
    out: dict[str, ActionVector] = {}
    for old_rec in old.records:
        name = old_rec.class_name
        new_rec = new_by_name.get(name)
        if new_rec is None:
            continue
        vector: ActionVector = {}
        for metric, before, after in zip(METRICS, old_rec.values, new_rec.values):
            high, low = before * up, before * down
            if before < 0:
                high, low = low, high
            if after > high:
                vector[metric] = INCREASE
            elif after < low:
                vector[metric] = DECREASE
            else:
                vector[metric] = NO_CHANGE
        out[name] = vector
    return out
