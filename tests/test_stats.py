import math
import statistics
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planwise.datasets import METRICS, load_community
from planwise.stats import (
    LOGLIK_TOLERANCE,
    MAX_IRLS_ITERATIONS,
    LogisticFit,
    _entropy_of_counts,
    _loglik_and_newton_terms,
    fit_univariate_logistic,
    median,
    simpson_integrate,
)

from conftest import tie_heavy_community
from test_datasets import bench_corpus


def entropy(labels) -> float:
    return _entropy_of_counts(Counter(labels).values())


class TestEntropy:
    """``_entropy_of_counts``, which the tree and MDL run on per-class counts."""

    def test_pure_set_is_zero(self):
        assert entropy(["x"] * 7) == 0.0

    def test_balanced_binary_is_one_bit(self):
        assert entropy(["A", "B"]) == 1.0

    def test_two_to_four_split(self):
        # -(1/3)log2(1/3) - (2/3)log2(2/3)
        assert entropy(list("AABBBB")) == pytest.approx(0.9182958340544896, abs=1e-12)

    def test_zero_counts_add_nothing(self):
        # A tree node's (negatives, positives) pair may hold a zero.
        assert _entropy_of_counts((0, 5)) == 0.0
        assert _entropy_of_counts((3, 0, 3)) == 1.0

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_bounds_and_purity(self, labels):
        h = entropy(labels)
        assert h >= 0.0
        assert h <= math.log2(len(set(labels))) + 1e-12
        if len(set(labels)) == 1:
            assert h == 0.0
        else:
            assert h > 0.0

    def test_uniform_maximizes(self):
        assert entropy([0, 0, 1, 1]) > entropy([0, 0, 0, 1])


def same_number(a, b) -> bool:
    """Equal type and value, floats compared by ``float.hex``."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


class TestMedian:
    @given(st.one_of(
        st.lists(st.integers(-10**20, 10**20), min_size=1),
        st.lists(st.floats(allow_nan=False), min_size=1),
        st.lists(st.sampled_from([-0.0, 0.0, 1.5, -2.0, 1e308]), min_size=1),
    ))
    def test_matches_statistics_median(self, values):
        assert same_number(median(values), statistics.median(values))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no median for empty data"):
            median([])


class TestSimpson:
    def test_constant_any_grid(self):
        assert simpson_integrate([(0, 1), (0.25, 1), (0.5, 1), (1.0, 1)]) == pytest.approx(1.0)
        assert simpson_integrate([(0, 1), (0.5, 1), (1.0, 1)]) == pytest.approx(1.0)

    def test_cubic_exact_on_five_uniform_points(self):
        points = [(i / 4, (i / 4) ** 3) for i in range(5)]
        assert abs(simpson_integrate(points) - 0.25) < 1e-12

    def test_exponential_101_points(self):
        points = [(i / 100, math.exp(i / 100)) for i in range(101)]
        assert abs(simpson_integrate(points) - (math.e - 1.0)) < 1e-8

    def test_two_points_fall_back_to_trapezoid(self):
        assert simpson_integrate([(0.0, 0.0), (1.0, 2.0)]) == pytest.approx(1.0)

    def test_single_point_scores_zero(self):
        assert simpson_integrate([(0.0, 5.0)]) == 0.0

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            simpson_integrate([(0, 1), (0, 2), (1, 3)])

    def test_decreasing_x_rejected(self):
        with pytest.raises(ValueError):
            simpson_integrate([(1, 1), (0, 1)])

    def test_uneven_tail_handled(self):
        # Uniform pair then a shorter final panel: 2 + 2 + 1 wide steps.
        points = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (2.5, 1.0)]
        assert simpson_integrate(points) == pytest.approx(2.5)

    @given(
        st.lists(st.floats(0, 100), min_size=3, max_size=12),
        st.lists(st.floats(0, 50), min_size=3, max_size=12),
    )
    @settings(max_examples=100)
    def test_nonnegative_and_monotone(self, f, g):
        n = min(len(f), len(g))
        xs = [float(i) for i in range(n)]
        low = [min(a, b) for a, b in zip(f, g)]
        high = [max(a, b) for a, b in zip(f, g)]
        low_area = simpson_integrate(list(zip(xs, low)))
        high_area = simpson_integrate(list(zip(xs, high)))
        assert low_area >= 0.0
        assert low_area <= high_area + 1e-9


def simulate_logistic(alpha, beta, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    p = 1.0 / (1.0 + np.exp(-(alpha + beta * x)))
    y = (rng.random(n) < p).astype(int)
    return x, y


class TestLogisticFit:
    def test_recovers_known_coefficients(self):
        x, y = simulate_logistic(alpha=-1.0, beta=2.0, n=10_000, seed=2024)
        fit = fit_univariate_logistic(x, y)
        assert fit.converged
        assert abs(fit.alpha - (-1.0)) < 0.1
        assert abs(fit.beta - 2.0) < 0.1
        assert fit.p_value < 1e-6

    def test_independent_feature_not_significant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 10_000)
        y = rng.integers(0, 2, 10_000)
        fit = fit_univariate_logistic(x, y)
        assert fit.converged
        assert fit.p_value > 0.05

    def test_perfect_separation_flags_unusable(self):
        x = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        y = [0, 0, 0, 1, 1, 1]
        fit = fit_univariate_logistic(x, y)
        assert not fit.converged
        assert fit.p_value == 1.0

    def test_log_likelihood_matches_its_closed_form(self):
        # Probabilities of exactly 0 and 1 are clipped 1e-12 inside (0, 1).
        y = np.array([1.0, 0.0, 1.0, 0.0])
        p = np.array([0.8, 0.3, 1.0, 0.0])
        expected = math.log(0.8) + math.log(0.7) + 2 * math.log(1.0 - 1e-12)
        assert _log_likelihood(y, p) == pytest.approx(expected, rel=1e-12)

    def test_touching_ranges_are_not_separated(self):
        # The classes share the value 2, so the fit goes ahead and converges.
        y = [0, 0, 0, 1, 1, 1]
        for x, sign in (([0.0, 1.0, 2.0, 2.0, 3.0, 4.0], 1.0),
                        ([2.0, 3.0, 4.0, 0.0, 1.0, 2.0], -1.0)):
            assert not _perfectly_separated(np.array(x), np.array(y, dtype=float))
            fit = fit_univariate_logistic(x, y)
            assert fit.converged
            assert math.copysign(1.0, fit.beta) == sign

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 2, -0.0, 0.5, True, math.nan]),
                    min_size=2, max_size=8))
    def test_label_checks_keep_their_messages(self, y):
        # The checks as they read on np.unique, which imports numpy.ma.
        labels = np.asarray(y, dtype=float)
        if not set(np.unique(labels)) <= {0.0, 1.0}:
            expected = "y must be binary 0/1 labels"
        elif len(np.unique(labels)) < 2:
            expected = "y must contain both labels"
        else:
            expected = None
        try:
            fit_univariate_logistic(list(range(len(y))), y)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_constant_feature_flags_unusable(self):
        fit = fit_univariate_logistic([3.0] * 10, [0, 1] * 5)
        assert not fit.converged

    def test_single_label_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            fit_univariate_logistic([1.0, 2.0], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_univariate_logistic([1.0], [1, 0])

    def test_p_value_invariant_under_affine_rescaling(self):
        x, y = simulate_logistic(alpha=0.3, beta=-0.8, n=500, seed=7)
        direct = fit_univariate_logistic(x, y)
        rescaled = fit_univariate_logistic(10.0 * x + 100.0, y)
        assert direct.converged and rescaled.converged
        assert abs(direct.p_value - rescaled.p_value) < 1e-6


def _scipy_logistic(x, y):
    """Oracle fit: BFGS on the negative log-likelihood, with the Wald p-value
    from the inverse of the analytic Fisher information."""
    optimize = pytest.importorskip("scipy.optimize")
    norm = pytest.importorskip("scipy.stats").norm
    design = np.column_stack([np.ones_like(x), x])

    def nll(coef):
        eta = design @ coef
        return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

    def gradient(coef):
        return design.T @ (1.0 / (1.0 + np.exp(-(design @ coef))) - y)

    coef = optimize.minimize(
        nll, np.zeros(2), jac=gradient, method="BFGS", options={"gtol": 1e-10}
    ).x
    p = 1.0 / (1.0 + np.exp(-(design @ coef)))
    covariance = np.linalg.inv((design.T * (p * (1.0 - p))) @ design)
    z = coef[1] / math.sqrt(covariance[1, 1])
    return coef[0], coef[1], 2.0 * norm.sf(abs(z))


@pytest.mark.parametrize("seed", range(20))
def test_logistic_fit_matches_scipy_oracle(seed):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(1000 + seed)
    alpha, beta = rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5)
    x, y = simulate_logistic(alpha, beta, n=40 + 360 * seed // 19, seed=seed)
    fit = fit_univariate_logistic(x, y)
    assert fit.converged
    want_alpha, want_beta, want_p = _scipy_logistic(x, y.astype(float))
    assert fit.alpha == pytest.approx(want_alpha, abs=1e-6)
    assert fit.beta == pytest.approx(want_beta, abs=1e-6)
    assert fit.p_value == pytest.approx(want_p, abs=1e-6)


# The numpy fit: the oracle of the standard-library one, with its helpers.
def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


def _log_likelihood(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _perfectly_separated(x: np.ndarray, y: np.ndarray) -> bool:
    x0, x1 = x[y == 0], x[y == 1]
    return float(x0.max()) < float(x1.min()) or float(x1.max()) < float(x0.min())


def recomputing_logistic(x, y):
    """The numpy IRLS fit, on rows sorted by ``x`` then ``y``, with a loop that
    recomputes the probabilities at the top of every iteration and again
    after convergence. It leaves the label checks out."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    failed = LogisticFit(alpha=math.nan, beta=math.nan, p_value=1.0, converged=False)
    if np.ptp(x) == 0.0 or _perfectly_separated(x, y):
        return failed
    design = np.column_stack([np.ones_like(x), x])
    base_rate = float(np.mean(y))
    coef = np.array([math.log(base_rate / (1.0 - base_rate)), 0.0])
    loglik = _log_likelihood(y, _sigmoid(design @ coef))
    converged = False
    for _ in range(MAX_IRLS_ITERATIONS):
        p = _sigmoid(design @ coef)
        weights = np.clip(p * (1.0 - p), 1e-12, None)
        gradient = design.T @ (y - p)
        hessian = (design.T * weights) @ design
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            return failed
        coef = coef + step
        new_loglik = _log_likelihood(y, _sigmoid(design @ coef))
        if abs(new_loglik - loglik) < LOGLIK_TOLERANCE:
            converged = True
            break
        loglik = new_loglik
    if not converged:
        return failed
    p = _sigmoid(design @ coef)
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


def log_likelihood_at(fit, x, y):
    eta = fit.alpha + fit.beta * np.asarray(x, dtype=float)
    return _log_likelihood(np.asarray(y, dtype=float), _sigmoid(eta))


@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
            st.integers(0, 1),
        ),
        min_size=2,
        max_size=60,
    ).filter(lambda rows: len({label for _, label in rows}) == 2)
)
@settings(max_examples=300, deadline=None)
def test_logistic_fit_agrees_with_the_numpy_oracle(rows):
    # Coefficients are not compared: on a quasi-separated column the
    # likelihood is all but flat along a ridge, so the two fits may stop at
    # points more than 1e-9 apart, with p near 1, and equal likelihoods.
    x = [value for value, _ in rows]
    y = [label for _, label in rows]
    fit, oracle = fit_univariate_logistic(x, y), recomputing_logistic(x, y)
    assert fit.converged == oracle.converged
    assert (fit.p_value > 0.05) == (oracle.p_value > 0.05)
    if fit.converged:
        assert abs(log_likelihood_at(fit, x, y) - log_likelihood_at(oracle, x, y)) <= 1e-9


@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 4), st.integers(0, 4)),
             min_size=1, max_size=12, unique_by=lambda group: group[0]),
    st.floats(-60.0, 60.0),
    st.floats(-20.0, 20.0),
)
# eta = 40 saturates p, so the log-likelihood reads the clip at 1 - 1e-12.
@example(groups=[(0, 2, 1)], alpha=40.0, beta=0.0)
@settings(max_examples=200, deadline=None)
def test_one_pass_gives_the_numpy_loglik_gradient_and_information(groups, alpha, beta):
    groups = sorted((float(x), rows, min(positives, rows)) for x, rows, positives in groups)
    x = np.repeat([value for value, _, _ in groups], [rows for _, rows, _ in groups])
    y = np.concatenate([[1.0] * k + [0.0] * (n - k) for _, n, k in groups])
    design = np.column_stack([np.ones_like(x), x])
    p = _sigmoid(design @ np.array([alpha, beta]))
    information = (design.T * np.clip(p * (1.0 - p), 1e-12, None)) @ design
    want = (_log_likelihood(y, p), *design.T @ (y - p),
            information[0, 0], information[0, 1], information[1, 1])
    assert _loglik_and_newton_terms(groups, alpha, beta) == pytest.approx(
        want, rel=1e-9, abs=1e-9)


def test_logistic_fit_matches_the_numpy_oracle_on_the_bench_corpus(tmp_path):
    releases = [release for seed in (41, 7, 11) for project in load_community(
        bench_corpus().generate(tmp_path / str(seed), seed=seed)).projects
        for release in project.versions]
    releases += [release for project in tie_heavy_community().projects
                 for release in project.versions]
    for release in releases:
        labels = [1 if r.is_defective() else 0 for r in release.records]
        for metric in METRICS:
            x = release.column(metric)
            fit, oracle = fit_univariate_logistic(x, labels), recomputing_logistic(x, labels)
            assert fit.converged == oracle.converged, (release.project, release.version, metric)
            if fit.converged:
                for got, want in zip(astuple(fit)[:3], astuple(oracle)[:3]):
                    assert math.isclose(got, want, rel_tol=1e-9), (release.version, metric)
