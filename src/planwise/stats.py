"""Shared numerical routines: entropy, median, univariate logistic regression,
Simpson.

numpy is imported only inside the logistic fit, which only the ``alves`` and
``shatnawi`` logistic screen runs; with the ``oliveira`` thresholds those are
its only users. So ``evaluate``, ``plan`` and ``thresholds`` load numpy only
for those three planners, and ``bellwether``, ``tree`` and xtree or belltree
plans never do. No command loads ``statistics`` (with ``decimal`` and
``fractions``) or ``numpy.ma``: see ``median`` and the fit's label check.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

MAX_IRLS_ITERATIONS = 50
LOGLIK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class LogisticFit:
    """Univariate logistic fit ``P(y=1|x) = sigmoid(alpha + beta * x)``."""

    alpha: float
    beta: float
    p_value: float
    converged: bool


def entropy(labels: Iterable) -> float:
    """Shannon entropy of a label multiset, in bits."""
    counts = Counter(labels)
    if not counts:
        raise ValueError("entropy of an empty multiset is undefined")
    return _entropy_of_counts(counts.values())


def _entropy_of_counts(counts: Collection[int]) -> float:
    """Shannon entropy, in bits, of the per-class counts of a multiset.

    With two classes the result does not depend on the order of the counts
    (``-x - y == -y - x`` in IEEE arithmetic), so ``(negatives, positives)``
    pairs give the same bits as a first-appearance ``Counter``.
    """
    total = sum(counts)
    result = 0.0
    for count in counts:
        if count:
            p = count / total
            result -= p * math.log2(p)
    return result


def median(values: Iterable[float]) -> float:
    """The middle value, or the mean of the middle two, as ``statistics.median``;
    no data raises ``ValueError``."""
    data = sorted(values)
    n = len(data)
    if not n:
        raise ValueError("no median for empty data")
    if n % 2:
        return data[n // 2]
    return (data[n // 2 - 1] + data[n // 2]) / 2


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    import numpy as np
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


def _log_likelihood(y: np.ndarray, p: np.ndarray) -> float:
    import numpy as np
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _perfectly_separated(x: np.ndarray, y: np.ndarray) -> bool:
    x0, x1 = x[y == 0], x[y == 1]
    return float(x0.max()) < float(x1.min()) or float(x1.max()) < float(x0.min())


def fit_univariate_logistic(
    x: Sequence[float], y: Sequence[int]
) -> LogisticFit:
    """Maximum-likelihood logistic regression of binary ``y`` on one feature.

    Fit by iteratively reweighted least squares; the reported p-value is the
    Wald test on the slope. Perfect separation or non-convergence yields
    ``converged=False`` so callers can reject the metric outright. Rows are
    sorted by ``x``, then ``y``, before fitting, so row order cannot change a bit.
    """
    import numpy as np
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    labels = set(y.tolist())  # np.unique would import numpy.ma
    if not labels <= {0.0, 1.0}:
        raise ValueError("y must be binary 0/1 labels")
    if len(labels) < 2:
        raise ValueError("y must contain both labels")

    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    failed = LogisticFit(alpha=math.nan, beta=math.nan, p_value=1.0, converged=False)
    if np.ptp(x) == 0.0 or _perfectly_separated(x, y):
        return failed

    design = np.column_stack([np.ones_like(x), x])
    base_rate = float(np.mean(y))
    coef = np.array([math.log(base_rate / (1.0 - base_rate)), 0.0])
    p = _sigmoid(design @ coef)  # the probabilities at ``coef``, kept in step
    loglik = _log_likelihood(y, p)
    converged = False
    for _ in range(MAX_IRLS_ITERATIONS):
        weights = np.clip(p * (1.0 - p), 1e-12, None)
        gradient = design.T @ (y - p)
        hessian = (design.T * weights) @ design
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            return failed
        coef = coef + step
        p = _sigmoid(design @ coef)
        new_loglik = _log_likelihood(y, p)
        if abs(new_loglik - loglik) < LOGLIK_TOLERANCE:
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik
    if not converged:
        return failed

    # Wald covariance at the converged estimate.
    weights = np.clip(p * (1.0 - p), 1e-12, None)
    try:
        covariance = np.linalg.inv((design.T * weights) @ design)
    except np.linalg.LinAlgError:
        return failed
    se_beta = math.sqrt(max(covariance[1, 1], 0.0))
    if not math.isfinite(se_beta) or se_beta == 0.0:
        return failed
    z = coef[1] / se_beta
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return LogisticFit(
        alpha=float(coef[0]), beta=float(coef[1]), p_value=p_value, converged=True
    )


def _relatively_equal(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def simpson_integrate(points: Sequence[tuple[float, float]]) -> float:
    """Integrate sampled ``(x, f(x))`` points.

    Uniform pairs of intervals get Simpson panels; a leftover or unevenly
    spaced final interval falls back to the trapezoid rule, as does any
    curve with fewer than three points.
    """
    if not points:
        raise ValueError("cannot integrate an empty curve")
    if len(points) == 1:
        return 0.0
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    for a, b in zip(xs, xs[1:]):
        if b == a:
            raise ValueError(f"duplicate x value {a}")
        if b < a:
            raise ValueError("x values must be strictly increasing")

    total = 0.0
    i = 0
    n = len(xs)
    while i < n - 1:
        if i + 2 <= n - 1 and _relatively_equal(xs[i + 1] - xs[i], xs[i + 2] - xs[i + 1]):
            h = xs[i + 1] - xs[i]
            total += h / 3.0 * (ys[i] + 4.0 * ys[i + 1] + ys[i + 2])
            i += 2
        else:
            total += (xs[i + 1] - xs[i]) * (ys[i] + ys[i + 1]) / 2.0
            i += 1
    return total
