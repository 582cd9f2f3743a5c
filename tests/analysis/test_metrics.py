"""Tests for accuracy metrics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.metrics import compare_estimates

TRUTH = {(1, 0): 0.1, (2, 1): 0.3, (3, 2): 0.5}


class TestBasicMetrics:
    def test_perfect_estimates(self):
        report = compare_estimates(dict(TRUTH), TRUTH)
        assert report.mae == 0.0
        assert report.rmse == 0.0

    def test_known_errors(self):
        est = {(1, 0): 0.2, (2, 1): 0.3, (3, 2): 0.4}
        report = compare_estimates(est, TRUTH)
        assert report.mae == pytest.approx(0.2 / 3)
        assert report.rmse == pytest.approx(math.sqrt((0.01 + 0 + 0.01) / 3))

    def test_disjoint_links_give_none(self):
        assert compare_estimates({(9, 9): 0.5}, TRUTH).mae is None
        assert compare_estimates({}, TRUTH).rmse is None

    def test_partial_overlap_uses_common_links_only(self):
        est = {(1, 0): 0.1, (9, 9): 0.99}
        assert compare_estimates(est, TRUTH).mae == 0.0

    def test_quantile(self):
        est = {(1, 0): 0.1, (2, 1): 0.4, (3, 2): 0.8}
        report = compare_estimates(est, TRUTH)
        assert report.max_error == pytest.approx(0.3)
        assert report.median_error == pytest.approx(0.1)
        assert report.p90_error == pytest.approx(0.26)

    def test_error_cdf(self):
        est = {(1, 0): 0.11, (2, 1): 0.35, (3, 2): 0.9}
        cdf = compare_estimates(est, TRUTH, cdf_points=(0.02, 0.1, 0.5)).cdf
        assert cdf[0.02] == pytest.approx(1 / 3)
        assert cdf[0.1] == pytest.approx(2 / 3)
        assert cdf[0.5] == 1.0

    def test_error_cdf_empty(self):
        cdf = compare_estimates({}, TRUTH, cdf_points=(0.1,)).cdf
        assert math.isnan(cdf[0.1])


class TestCompareEstimates:
    def test_full_report(self):
        est = {(1, 0): 0.15, (2, 1): 0.3}
        report = compare_estimates(est, TRUTH, method="x")
        assert report.method == "x"
        assert report.n_links_compared == 2
        assert report.n_links_truth == 3
        assert report.coverage == pytest.approx(2 / 3)
        assert report.mae == pytest.approx(0.025)
        assert report.max_error == pytest.approx(0.05)
        assert report.per_link_errors[(1, 0)] == pytest.approx(0.05)

    def test_min_support_filters(self):
        est = {(1, 0): 0.9, (2, 1): 0.3}
        support = {(1, 0): 2, (2, 1): 100}
        report = compare_estimates(est, TRUTH, min_support=10, support=support)
        assert report.n_links_compared == 1
        assert report.mae == 0.0  # the badly-supported wild estimate excluded

    def test_empty_report(self):
        report = compare_estimates({}, TRUTH)
        assert report.mae is None and report.rmse is None
        assert report.coverage == 0.0

    def test_empty_truth(self):
        report = compare_estimates({(1, 0): 0.5}, {})
        assert report.coverage == 0.0
        assert report.n_links_compared == 0


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        st.floats(min_value=0, max_value=1),
        min_size=1,
        max_size=15,
    ),
    st.floats(min_value=0, max_value=0.5),
)
def test_property_mae_bounds_shift(truth, shift):
    """Shifting every estimate by s yields MAE close to s (clipped at 1)."""
    est = {l: min(1.0, v + shift) for l, v in truth.items()}
    report = compare_estimates(est, truth)
    mae, rmse = report.mae, report.rmse
    assert mae <= shift + 1e-12
    assert rmse <= shift + 1e-12
    assert rmse >= mae - 1e-12 or math.isclose(rmse, mae)
