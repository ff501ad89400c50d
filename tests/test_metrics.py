from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_condition_metrics
from pertpipe.data import PseudoBulkProfile
from pertpipe.errors import ParameterError
from pertpipe.metrics import (
    UndefinedMetric,
    _in_squares_range,
    cos_logfc,
    delta_pcc,
    evaluate_predictions,
    rmse,
)

# hand-derived reference triple for y=[1,2,3], yhat=[1,1,3]
RMSE_REF = math.sqrt(1.0 / 3.0)  # 0.57735...
PCC_REF = math.sqrt(3.0) / 2.0  # 0.86603...
COS_REF = 12.0 / math.sqrt(154.0)  # 0.96698...


class TestRmse:
    def test_identity_is_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_reference_value(self):
        assert abs(rmse([1, 2, 3], [1, 1, 3]) - RMSE_REF) < 1e-12

    def test_single_component(self):
        assert rmse([0.0], [2.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            rmse([1.0], [1.0, 2.0])

    def test_zero_iff_equal(self):
        assert rmse([1.0, 2.0 + 1e-12], [1.0, 2.0]) > 0.0


class TestDeltaPcc:
    def test_positive_scaling_gives_one(self):
        d = np.array([1.0, 2.0, 5.0])
        assert abs(delta_pcc(d, 2 * d) - 1.0) < 1e-12

    def test_negation_gives_minus_one(self):
        d = np.array([1.0, 2.0, 5.0])
        assert abs(delta_pcc(d, -d) + 1.0) < 1e-12

    def test_reference_value(self):
        assert abs(delta_pcc([1, 2, 3], [1, 1, 3]) - PCC_REF) < 1e-12

    def test_zero_variance_is_undefined(self):
        with pytest.raises(UndefinedMetric):
            delta_pcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=12),
        st.floats(0.1, 5.0),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_affine_invariance(self, values, a, b):
        d = np.arange(len(values), dtype=float)
        d_hat = np.array(values)
        # the spread must survive the offset in float math, otherwise the
        # transformed deviations are dominated by rounding noise and the
        # 1e-12 bound has no meaning
        spread = a * (d_hat.max() - d_hat.min())
        scale = abs(b) + a * np.abs(d_hat).max() + 1.0
        if d_hat.std() == 0 or spread < 1e-3 * scale:
            return
        base = delta_pcc(d, d_hat)
        shifted = delta_pcc(d, a * d_hat + b)
        assert abs(base - shifted) < 1e-12

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=12), st.integers(-40, 40))
    @example(values=[0.0, 2.54e-162], k=-1)  # the centred sum of squares underflows
    @settings(max_examples=80, deadline=None)
    def test_power_of_two_scale_invariance(self, values, k):
        d = np.arange(1.0, len(values) + 1.0)
        d_hat = np.array(values)
        scaled = d_hat * 2.0**k
        if np.ptp(d_hat) == 0 or not np.array_equal(scaled / 2.0**k, d_hat):
            return  # the scaling must be exact
        assert abs(delta_pcc(d, d_hat) - delta_pcc(d, scaled)) < 1e-12

    # numpy reports the overflowing sum of squares that the rescale then avoids;
    # delta_pcc takes no np.errstate, which would cost every ordinary call
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_extreme_magnitudes_keep_the_correlation(self, scale):
        d, d_hat = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 3.0])
        assert abs(delta_pcc(scale * d, d_hat) - PCC_REF) < 1e-12
        assert abs(delta_pcc(d, scale * d_hat) - PCC_REF) < 1e-12
        assert abs(delta_pcc(scale * d, scale * d_hat) - PCC_REF) < 1e-12

    def test_swap_symmetric(self):
        a, b = np.array([1.0, 4.0, 2.0]), np.array([0.5, 1.0, 3.0])
        assert abs(delta_pcc(a, b) - delta_pcc(b, a)) < 1e-15

    # the mean's sum overflows before the vector is scaled down, and rmse squares 1e308
    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_overflowing_sum_keeps_the_correlation(self):
        # [1, 1, 0] against [1, 2, 3] correlates at -sqrt(3)/2
        d, d_hat = [1e308, 1e308, 0.0], [1.0, 2.0, 3.0]
        assert delta_pcc(d, d_hat) == pytest.approx(-PCC_REF, abs=1e-12)
        assert delta_pcc(d_hat, d) == pytest.approx(-PCC_REF, abs=1e-12)
        truth = [PseudoBulkProfile("ctrl", np.zeros(3)), PseudoBulkProfile("A", d)]
        report = evaluate_predictions(truth, [PseudoBulkProfile("A", d_hat)], truth[0])
        assert report.per_condition["A"]["delta_pcc"] == pytest.approx(-PCC_REF, abs=1e-12)
        assert report.skipped["delta_pcc"] == []

    def test_ordinary_inputs_keep_their_bits(self):
        # the centring as it was before sums that overflow were handled
        def before(d, h):
            a, ssa = _in_squares_range(d - d.mean(), lambda v: (v * v).sum())
            b, ssb = _in_squares_range(h - h.mean(), lambda v: (v * v).sum())
            return float(np.clip((a * b).sum() / (np.sqrt(ssa) * np.sqrt(ssb)), -1.0, 1.0))

        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            scale = 10.0 ** rng.uniform(-150, 150, size=2)
            d = rng.normal(size=n) * scale[0]
            h = (rng.normal(size=n) + rng.normal()) * scale[1]
            assert delta_pcc(d, h) == before(d, h)


class TestCosLogfc:
    def test_positive_scaling_gives_one(self):
        d = np.array([1.0, -2.0, 0.5])
        assert abs(cos_logfc(d, 3 * d) - 1.0) < 1e-12

    def test_orthogonal_gives_zero(self):
        assert cos_logfc([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_reference_value(self):
        assert abs(cos_logfc([1, 2, 3], [1, 1, 3]) - COS_REF) < 1e-12

    def test_zero_norm_is_undefined(self):
        with pytest.raises(UndefinedMetric):
            cos_logfc([0.0, 0.0], [1.0, 2.0])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=12), st.floats(0.1, 7.0))
    @example(values=[0.0, 2.54e-162], a=0.5)  # the squared norm underflows
    @settings(max_examples=80, deadline=None)
    def test_positive_scale_invariance(self, values, a):
        d = np.arange(1.0, len(values) + 1.0)
        d_hat = np.array(values)
        if np.linalg.norm(d_hat) == 0:
            return
        assert abs(cos_logfc(d, d_hat) - cos_logfc(d, a * d_hat)) < 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_extreme_magnitudes_keep_the_cosine(self, scale):
        d, d_hat = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 3.0])
        assert abs(cos_logfc(scale * d, d_hat) - COS_REF) < 1e-12
        assert abs(cos_logfc(d, scale * d_hat) - COS_REF) < 1e-12
        assert abs(cos_logfc(scale * d, scale * d_hat) - COS_REF) < 1e-12

    def test_swap_symmetric(self):
        a, b = np.array([1.0, 4.0, 2.0]), np.array([0.5, 1.0, 3.0])
        assert abs(cos_logfc(a, b) - cos_logfc(b, a)) < 1e-15


def _profile(name, values):
    return PseudoBulkProfile(condition_name=name, mean_expr=np.array(values))


class TestEvaluatePredictions:
    def test_perfect_predictions(self):
        control = _profile("control", [1.0, 1.0, 1.0])
        truth = [control, _profile("A", [2.0, 1.0, 0.5]), _profile("B", [0.0, 3.0, 1.0])]
        report = evaluate_predictions(truth, truth, control)
        assert report.aggregate["rmse"] == 0.0
        assert abs(report.aggregate["delta_pcc"] - 1.0) < 1e-12
        assert abs(report.aggregate["cos_logfc"] - 1.0) < 1e-12
        assert report.n_conditions == 2

    def test_constant_delta_skips_pcc_only(self):
        control = _profile("control", [1.0, 1.0])
        truth = [control, _profile("A", [2.0, 2.0])]
        pred = [_profile("A", [2.5, 2.5])]
        report = evaluate_predictions(truth, pred, control)
        values = report.per_condition["A"]
        assert values["delta_pcc"] is None
        assert values["rmse"] is not None and values["cos_logfc"] is not None
        assert report.skipped["delta_pcc"] == ["A"]
        assert report.aggregate["delta_pcc"] is None

    def test_matches_brute_force_oracle_on_fixture(self):
        rng = np.random.default_rng(17)
        control = _profile("control", rng.uniform(0, 2, 6))
        truth = [control] + [
            _profile(c, rng.uniform(0, 2, 6)) for c in ("A", "B")
        ]
        pred = [_profile(c, rng.uniform(0, 2, 6)) for c in ("A", "B")]
        report = evaluate_predictions(truth, pred, control)
        for p in pred:
            y_true = next(t for t in truth if t.condition_name == p.condition_name)
            expected = oracle_condition_metrics(
                y_true.mean_expr.tolist(),
                p.mean_expr.tolist(),
                control.mean_expr.tolist(),
            )
            got = report.per_condition[p.condition_name]
            for key, exp in expected.items():
                if exp is None:
                    assert got[key] is None
                else:
                    assert abs(got[key] - exp) < 1e-9

    def test_unmatched_condition_rejected(self):
        control = _profile("control", [1.0, 1.0])
        truth = [control, _profile("A", [2.0, 1.0])]
        with pytest.raises(ParameterError, match="ghost"):
            evaluate_predictions(truth, [_profile("ghost", [1.0, 2.0])], control)

    def test_control_prediction_ignored(self):
        control = _profile("control", [1.0, 2.0])
        truth = [control, _profile("A", [2.0, 1.0])]
        pred = [control, _profile("A", [2.0, 1.0])]
        report = evaluate_predictions(truth, pred, control)
        assert "control" not in report.per_condition

    def test_gene_count_mismatch(self):
        control = _profile("control", [1.0, 1.0])
        truth = [control, _profile("A", [2.0, 1.0])]
        with pytest.raises(ParameterError, match="genes"):
            evaluate_predictions(truth, [_profile("A", [1.0, 2.0, 3.0])], control)

    def test_json_serialization_fixed_key_order(self):
        control = _profile("control", [1.0, 1.0, 2.0])
        truth = [control, _profile("A", [2.0, 1.0, 0.0])]
        report = evaluate_predictions(truth, [_profile("A", [1.9, 1.2, 0.1])], control)
        doc = json.loads(report.to_json())
        assert list(doc) == ["n_conditions", "aggregate", "per_condition", "skipped"]
        assert report.to_json() == evaluate_predictions(
            truth, [_profile("A", [1.9, 1.2, 0.1])], control
        ).to_json()

    def test_aggregates_are_unweighted_means(self):
        control = _profile("control", [0.0, 0.0, 0.0])
        truth = [control, _profile("A", [1.0, 2.0, 3.0]), _profile("B", [3.0, 1.0, 2.0])]
        pred = [_profile("A", [1.0, 1.0, 3.0]), _profile("B", [2.0, 2.0, 2.0])]
        report = evaluate_predictions(truth, pred, control)
        for key in ("rmse", "delta_pcc", "cos_logfc"):
            defined = [
                v[key] for v in report.per_condition.values() if v[key] is not None
            ]
            assert abs(report.aggregate[key] - float(np.mean(defined))) < 1e-15
