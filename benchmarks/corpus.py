"""Seeded generator of a synthetic community shaped like the Jureczko corpus.

The real corpus needs a download, so the benchmark runs on this stand-in.
It is not evidence of the published results; it only reproduces the
properties that drive planwise's costs:

- 10 projects with the release counts of the Jureczko corpus (38 releases),
  200-900 classes per release. Release sizes are fixed, independent of the
  seed, so every seed asks for the same amount of work; the seed chooses
  metric values, which classes carry over, and defect counts.
- About 85% of a release's classes carry over to the next release with
  lognormal drift; new classes fill the rest. The carry-over rate sets the
  matched classes of ``diff_versions`` and ``ktest``.
- Count metrics are integers and ratio metrics lie in [0, 1], so the number
  of distinct values (the cost driver of MDL discretization) is realistic.
- Defects are binomial in ``wmc + 0.5 * cbo``.

Files use the Jureczko CSV layout: ``name,version,name,<20 metrics>,bug``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

METRICS = (
    "wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm", "lcom3",
    "loc", "dam", "moa", "mfa", "cam", "ic", "cbm", "amc", "max_cc", "avg_cc",
)
RATIO_METRICS = ("lcom3", "dam", "mfa", "cam")
MEAN_METRICS = ("amc", "avg_cc")
COUNT_METRICS = tuple(m for m in METRICS if m not in RATIO_METRICS + MEAN_METRICS)

# Release labels of the public corpus (see scripts/fetch_jureczko.py) and a
# fixed number of classes for each release.
RELEASE_SIZES: dict[str, tuple[tuple[str, int], ...]] = {
    "ant": (("1.3", 420), ("1.4", 500), ("1.5", 590), ("1.6", 690), ("1.7", 820)),
    "camel": (("1.0", 340), ("1.2", 430), ("1.4", 560), ("1.6", 700)),
    "ivy": (("1.1", 240), ("1.4", 300), ("2.0", 380)),
    "jedit": (("3.2", 270), ("4.0", 310), ("4.1", 360), ("4.2", 400), ("4.3", 460)),
    "log4j": (("1.0", 200), ("1.1", 230), ("1.2", 280)),
    "lucene": (("2.0", 310), ("2.2", 380), ("2.4", 450)),
    "poi": (("1.5", 260), ("2.0", 330), ("2.5", 420), ("3.0", 500)),
    "velocity": (("1.4", 220), ("1.5", 250), ("1.6", 290)),
    "xalan": (("2.4", 520), ("2.5", 620), ("2.6", 740), ("2.7", 880)),
    "xerces": (("1.0", 300), ("1.2", 380), ("1.3", 470), ("1.4", 580)),
}

CARRY_OVER = 0.85
UNTOUCHED = 0.35  # share of carried classes whose metrics do not move at all
DRIFT_SIGMA = 0.15
DEFECT_TRIALS = 3
DEFECT_SCALE = 90.0

# Count and mean metrics: floor(exp(mu + a*size + b*coupling + s*noise)),
# clamped below by ``low``. Ratio metrics: sigmoid of the same form.
_MODEL: dict[str, tuple[float, float, float, float, float]] = {
    # metric: (mu, a, b, s, low)
    "wmc": (1.9, 0.8, 0.0, 0.25, 1),
    "dit": (0.6, 0.0, 0.2, 0.45, 1),
    "noc": (-1.2, 0.2, 0.3, 1.2, 0),
    "cbo": (1.7, 0.3, 0.7, 0.3, 0),
    "rfc": (3.0, 0.8, 0.3, 0.3, 1),
    "lcom": (2.4, 1.6, 0.0, 0.6, 0),
    "ca": (0.6, 0.1, 0.9, 0.6, 0),
    "ce": (1.2, 0.3, 0.6, 0.5, 0),
    "npm": (1.5, 0.7, 0.0, 0.35, 0),
    "lcom3": (0.2, 0.3, 0.0, 1.0, 0),
    "loc": (4.6, 0.9, 0.1, 0.4, 1),
    "dam": (0.8, 0.0, 0.0, 2.0, 0),
    "moa": (-0.8, 0.5, 0.3, 1.0, 0),
    "mfa": (-0.5, 0.0, 0.4, 1.5, 0),
    "cam": (-0.2, -0.6, 0.0, 0.6, 0),
    "ic": (-1.5, 0.2, 0.2, 1.0, 0),
    "cbm": (-1.0, 0.2, 0.2, 1.2, 0),
    "amc": (2.7, 0.2, 0.0, 0.5, 0),
    "max_cc": (1.1, 0.5, 0.0, 0.5, 1),
    "avg_cc": (0.3, 0.2, 0.0, 0.3, 1),
}


def _fresh_metrics(rng: np.random.Generator, n: int) -> np.ndarray:
    """Metric matrix (n x 20, METRICS order) for brand-new classes."""
    size = rng.standard_normal(n)
    coupling = rng.standard_normal(n)
    out = np.empty((n, len(METRICS)))
    for col, metric in enumerate(METRICS):
        mu, a, b, s, low = _MODEL[metric]
        eta = mu + a * size + b * coupling + s * rng.standard_normal(n)
        if metric in RATIO_METRICS:
            out[:, col] = 1.0 / (1.0 + np.exp(-eta))
        else:
            out[:, col] = np.maximum(np.exp(eta), low)
    return _quantize(out)


def _quantize(x: np.ndarray) -> np.ndarray:
    """Integers for counts, four decimals for ratios and means."""
    out = x.copy()
    for col, metric in enumerate(METRICS):
        if metric in COUNT_METRICS:
            out[:, col] = np.floor(out[:, col])
        else:
            out[:, col] = np.round(out[:, col], 4)
        if metric in RATIO_METRICS:
            out[:, col] = np.clip(out[:, col], 0.0, 1.0)
    return out


def _drift(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Next-release values of carried classes: lognormal drift, some untouched."""
    n = len(x)
    factor = np.exp(DRIFT_SIGMA * rng.standard_normal(x.shape))
    moved = x * factor
    # Counts move by at least one unit in the drawn direction, so small
    # values can change too.
    for col, metric in enumerate(METRICS):
        if metric in COUNT_METRICS:
            step = np.where(factor[:, col] >= 1.0, 1.0, -1.0)
            moved[:, col] = np.where(
                np.abs(moved[:, col] - x[:, col]) < 1.0,
                x[:, col] + step * (rng.random(n) < 0.3),
                moved[:, col],
            )
        if metric not in RATIO_METRICS:
            moved[:, col] = np.maximum(moved[:, col], _MODEL[metric][4])
    moved = _quantize(moved)
    keep = rng.random(n) < UNTOUCHED
    return np.where(keep[:, None], x, moved)


def _defects(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    z = x[:, METRICS.index("wmc")] + 0.5 * x[:, METRICS.index("cbo")]
    p = 1.0 - np.exp(-z / DEFECT_SCALE)
    return rng.binomial(DEFECT_TRIALS, p)


def _format(metric: str, value: float) -> str:
    if metric in COUNT_METRICS:
        return str(int(value))
    return f"{value:.4f}"


def _write_release(path: Path, project: str, version: str, names, x, defects) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "version", "name", *METRICS, "bug"])
        for i in np.argsort(names, kind="stable"):
            cells = [_format(m, v) for m, v in zip(METRICS, x[i])]
            writer.writerow([project, version, names[i], *cells, int(defects[i])])


def most_releases() -> str:
    """The project with the most releases, ties to the first name."""
    return max(sorted(RELEASE_SIZES), key=lambda p: len(RELEASE_SIZES[p]))


def generate(root: Path, seed: int, variant: int = 0, projects=None) -> Path:
    """Write the community under ``root`` as ``<project>/<project>-<v>.csv``.

    ``(seed, variant)`` fixes every value; distinct variants of one seed are
    independent communities of the same shape. ``projects`` limits the
    output to those projects, with the same bytes as in the whole community.
    """
    root = Path(root)
    for p_index, (project, releases) in enumerate(sorted(RELEASE_SIZES.items())):
        if projects is not None and project not in projects:
            continue
        rng = np.random.default_rng([seed, variant, p_index])
        (root / project).mkdir(parents=True, exist_ok=True)
        names: list[str] = []
        x = np.empty((0, len(METRICS)))
        next_id = 0
        for version, size in releases:
            if names:
                carried = min(round(CARRY_OVER * len(names)), size)
                keep = np.sort(rng.choice(len(names), size=carried, replace=False))
                names = [names[i] for i in keep]
                x = _drift(rng, x[keep])
            new = size - len(names)
            names += [f"org.{project}.p{(next_id + i) % 17}.C{next_id + i}" for i in range(new)]
            next_id += new
            x = np.vstack([x, _fresh_metrics(rng, new)])
            _write_release(
                root / project / f"{project}-{version}.csv",
                project, version, names, x, _defects(rng, x),
            )
    return root
