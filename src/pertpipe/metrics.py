"""Pseudo-bulk evaluation metrics: RMSE, shift-vector Pearson, shift cosine.

Shift vectors are condition means minus the control mean. Conditions where
a metric is undefined (zero variance or zero norm) are reported as skipped
rather than coerced to a number; only the search layer maps "undefined" to
a zero reward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import PseudoBulkProfile
from .errors import ParameterError, PertpipeError

METRIC_NAMES = ("rmse", "delta_pcc", "cos_logfc")


class UndefinedMetric(PertpipeError):
    """The metric has no value on this input (zero variance or zero norm)."""


def _check_lengths(a: np.ndarray, b: np.ndarray, minimum: int = 1) -> None:
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError(f"vector shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < minimum:
        raise ParameterError(f"need at least {minimum} components, got {a.shape[0]}")


def rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    _check_lengths(y, y_hat)
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


# sums of squares that stay normal floats, so their square roots keep full precision
_SQUARES_RANGE = (np.finfo(np.float64).tiny, np.finfo(np.float64).max)


def _in_squares_range(v: np.ndarray, squares) -> tuple[np.ndarray, float]:
    """``v`` and ``squares(v)``; ``v`` is first divided by its largest magnitude
    when that sum of squares under- or overflows, which leaves a scale-free
    metric unchanged. Any other input is used as it is."""
    ss = squares(v)
    if not _SQUARES_RANGE[0] <= ss <= _SQUARES_RANGE[1]:
        peak = np.abs(v).max()
        if 0.0 < peak < np.inf:
            v = v / peak
            ss = squares(v)
    return v, ss


def _centred(v: np.ndarray) -> np.ndarray:
    """``v`` minus its mean; when the sum overflows, ``v`` is divided by its
    largest magnitude first, which leaves a correlation unchanged."""
    mean = v.mean()
    if not np.isfinite(mean):
        peak = np.abs(v).max()
        if peak < np.inf:
            v = v / peak
            mean = v.mean()
    return v - mean


def pcc_side(v: np.ndarray) -> tuple[np.ndarray, float]:
    """One vector's half of a Pearson correlation: ``v`` centred, and its sum
    of squares. A vector scored against many others is prepared once."""
    return _in_squares_range(_centred(v), lambda c: (c * c).sum())


def pcc_of_sides(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Pearson correlation of two vectors prepared by ``pcc_side``."""
    (ca, ssa), (cb, ssb) = a, b
    denom = np.sqrt(ssa) * np.sqrt(ssb)
    if denom == 0:
        raise UndefinedMetric("a shift vector has zero variance")
    return float(np.clip((ca * cb).sum() / denom, -1.0, 1.0))


def delta_pcc(delta: np.ndarray, delta_hat: np.ndarray) -> float:
    """Pearson correlation of true vs predicted shift vectors.

    A vector whose sum overflows is scaled down before it is centred, and a
    centred vector whose sum of squares leaves the normal float range (a
    tiny but nonzero spread, say) is rescaled by its largest magnitude.
    """
    delta = np.asarray(delta, dtype=np.float64)
    delta_hat = np.asarray(delta_hat, dtype=np.float64)
    _check_lengths(delta, delta_hat, minimum=2)
    return pcc_of_sides(pcc_side(delta), pcc_side(delta_hat))


def cos_logfc(delta: np.ndarray, delta_hat: np.ndarray) -> float:
    """Cosine similarity of true vs predicted shift vectors.

    A vector whose squared norm leaves the normal float range (a tiny but
    nonzero shift, say) is rescaled by its largest magnitude first, which
    leaves the cosine unchanged; any other input is used as it is.
    """
    delta = np.asarray(delta, dtype=np.float64)
    delta_hat = np.asarray(delta_hat, dtype=np.float64)
    _check_lengths(delta, delta_hat)
    # v.dot(v) is the square that np.linalg.norm takes the root of
    with np.errstate(over="ignore"):
        delta, ssd = _in_squares_range(delta, lambda v: v.dot(v))
        delta_hat, ssh = _in_squares_range(delta_hat, lambda v: v.dot(v))
    denom = np.sqrt(ssd) * np.sqrt(ssh)
    if denom == 0:
        raise UndefinedMetric("a shift vector has zero norm")
    return float(np.clip(np.dot(delta, delta_hat) / denom, -1.0, 1.0))


@dataclass(frozen=True)
class MetricReport:
    per_condition: dict[str, dict[str, float | None]]
    aggregate: dict[str, float | None]
    skipped: dict[str, list[str]]
    n_conditions: int

    def to_json(self) -> str:
        payload = {
            "n_conditions": self.n_conditions,
            "aggregate": {k: self.aggregate[k] for k in METRIC_NAMES},
            "per_condition": {
                cond: {k: vals[k] for k in METRIC_NAMES}
                for cond, vals in sorted(self.per_condition.items())
            },
            "skipped": {k: sorted(self.skipped[k]) for k in METRIC_NAMES},
        }
        return json.dumps(payload, indent=2, sort_keys=False)


def evaluate_predictions(
    truth: list[PseudoBulkProfile],
    predicted: list[PseudoBulkProfile],
    control: PseudoBulkProfile,
) -> MetricReport:
    """Score predicted condition profiles against truth at the pseudo-bulk level.

    Every predicted condition must exist in the truth list; the control
    condition itself is never scored. Undefined per-condition metrics are
    excluded from aggregates and listed under ``skipped``.
    """
    truth_by_name = {p.condition_name: p for p in truth}
    y_ctrl = control.mean_expr
    skipped: dict[str, list[str]] = {name: [] for name in METRIC_NAMES}
    per_condition: dict[str, dict[str, float | None]] = {}

    for pred in sorted(predicted, key=lambda p: p.condition_name):
        cond = pred.condition_name
        if cond == control.condition_name:
            continue
        if cond not in truth_by_name:
            raise ParameterError(
                f"predicted condition {cond!r} has no matching truth condition"
            )
        y_p = truth_by_name[cond].mean_expr
        y_hat = pred.mean_expr
        if y_p.shape != y_hat.shape:
            raise ParameterError(
                f"condition {cond!r}: truth has {y_p.shape[0]} genes, "
                f"prediction has {y_hat.shape[0]}"
            )
        d = y_p - y_ctrl
        d_hat = y_hat - y_ctrl
        values: dict[str, float | None] = {"rmse": rmse(y_p, y_hat)}
        try:
            values["delta_pcc"] = delta_pcc(d, d_hat)
        except UndefinedMetric:
            values["delta_pcc"] = None
            skipped["delta_pcc"].append(cond)
        try:
            values["cos_logfc"] = cos_logfc(d, d_hat)
        except UndefinedMetric:
            values["cos_logfc"] = None
            skipped["cos_logfc"].append(cond)
        per_condition[cond] = values

    aggregate: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        defined = [
            v[name] for v in per_condition.values() if v[name] is not None
        ]
        aggregate[name] = float(np.mean(defined)) if defined else None
    return MetricReport(
        per_condition=per_condition,
        aggregate=aggregate,
        skipped=skipped,
        n_conditions=len(per_condition),
    )
