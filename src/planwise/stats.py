"""Shared numerical routines: entropy, median, univariate logistic regression,
Simpson."""

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


def _entropy_of_counts(counts: Collection[int]) -> float:
    """Shannon entropy, in bits, of the per-class counts of a multiset.

    With two classes the result does not depend on the order of the counts
    (``-x - y == -y - x`` in IEEE arithmetic).
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


def _loglik_and_newton_terms(
    groups: list[tuple[float, int, int]], alpha: float, beta: float
) -> tuple[float, float, float, float, float, float]:
    """The log-likelihood at ``(alpha, beta)``, its gradient and the 2x2
    information matrix (the negated Hessian), in one pass over the
    ``(x, rows, positives)`` groups: ``(loglik, g0, g1, h00, h01, h11)``."""
    loglik = g0 = g1 = h00 = h01 = h11 = 0.0
    for x, rows, positives in groups:
        # Clipped by conditionals, which cost less than min and max calls.
        eta = alpha + beta * x
        p = 1.0 / (1.0 + math.exp(-(-35.0 if eta < -35.0 else 35.0 if eta > 35.0 else eta)))
        clipped = 1e-12 if p < 1e-12 else 1.0 - 1e-12 if p > 1.0 - 1e-12 else p
        loglik += positives * math.log(clipped) + (rows - positives) * math.log(1.0 - clipped)
        residual = positives - rows * p
        g0, g1 = g0 + residual, g1 + residual * x
        weight = p * (1.0 - p)
        weight = rows * (1e-12 if weight < 1e-12 else weight)
        h00, h01, h11 = h00 + weight, h01 + weight * x, h11 + weight * x * x
    return loglik, g0, g1, h00, h01, h11


def fit_univariate_logistic(
    x: Sequence[float], y: Sequence[int]
) -> LogisticFit:
    """Maximum-likelihood logistic regression of binary ``y`` on one feature.

    Fit by Newton's method (iteratively reweighted least squares) over the
    distinct ``x`` values, each weighted by its row and positive counts, in
    sorted order, so row order cannot change a bit; the reported p-value is
    the Wald test on the slope. Perfect separation, a singular information
    matrix or non-convergence yields ``converged=False`` so callers can
    reject the metric outright.
    """
    if len(x) != len(y):
        raise ValueError("x and y must be 1-d sequences of equal length")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    y = [float(label) for label in y]
    labels = set(y)
    if not labels <= {0.0, 1.0}:
        raise ValueError("y must be binary 0/1 labels")
    if len(labels) < 2:
        raise ValueError("y must contain both labels")

    x = [float(value) for value in x]
    rows = Counter(x)
    positives = Counter(value for value, label in zip(x, y) if label)
    negatives = rows - positives
    failed = LogisticFit(alpha=math.nan, beta=math.nan, p_value=1.0, converged=False)
    if len(rows) < 2 or max(negatives) < min(positives) or max(positives) < min(negatives):
        return failed  # a constant feature, or perfectly separated labels
    groups = [(value, rows[value], positives[value]) for value in sorted(rows)]

    base_rate = sum(y) / len(y)
    alpha, beta = math.log(base_rate / (1.0 - base_rate)), 0.0
    loglik, g0, g1, h00, h01, h11 = _loglik_and_newton_terms(groups, alpha, beta)
    for _ in range(MAX_IRLS_ITERATIONS):
        det = h00 * h11 - h01 * h01
        if det == 0.0:
            return failed
        alpha += (h11 * g0 - h01 * g1) / det
        beta += (h00 * g1 - h01 * g0) / det
        new_loglik, g0, g1, h00, h01, h11 = _loglik_and_newton_terms(groups, alpha, beta)
        if abs(new_loglik - loglik) < LOGLIK_TOLERANCE:
            break
        loglik = new_loglik
    else:
        return failed

    # Wald variance of the slope at the converged estimate.
    det = h00 * h11 - h01 * h01
    se_beta = math.sqrt(max(h00 / det, 0.0)) if det else math.nan
    if not math.isfinite(se_beta) or se_beta == 0.0:
        return failed
    p_value = math.erfc(abs(beta / se_beta) / math.sqrt(2.0))
    return LogisticFit(alpha=alpha, beta=beta, p_value=p_value, converged=True)


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
        if i + 2 <= n - 1 and math.isclose(xs[i + 1] - xs[i], xs[i + 2] - xs[i + 1]):
            h = xs[i + 1] - xs[i]
            total += h / 3.0 * (ys[i] + 4.0 * ys[i + 1] + ys[i + 2])
            i += 2
        else:
            total += (xs[i + 1] - xs[i]) * (ys[i] + ys[i + 1]) / 2.0
            i += 1
    return total
