"""Pseudo-bulk evaluation metrics: RMSE, shift-vector Pearson, shift cosine.

Shift vectors are condition means minus the control mean. Conditions where
a metric is undefined (zero variance or zero norm) or past the float range
are reported as skipped rather than coerced to a number; only the search
layer maps "undefined" to a zero reward.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, PertpipeError

METRIC_NAMES = ("rmse", "delta_pcc", "cos_logfc")


class UndefinedMetric(PertpipeError):
    """The metric has no value on this input (zero variance or zero norm)."""


def _check_lengths(a: np.ndarray, b: np.ndarray, minimum: int = 1) -> None:
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError(f"vector shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < minimum:
        raise ParameterError(f"need at least {minimum} components, got {a.shape[0]}")


def _without_overflow(f, v: np.ndarray):
    """``f(v)`` for an ``f`` that scales with ``v`` (a mean, a root mean
    square); when that overflows, ``v`` is divided by its largest magnitude
    first and the result scaled back, so it overflows only if it must."""
    with np.errstate(over="ignore"):
        out = f(v)
    if np.isinf(out):
        peak = np.abs(v).max()
        if peak < np.inf:
            out = peak * f(v / peak)
    return out


def rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Root mean squared error, rescaled when the squares overflow."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    _check_lengths(y, y_hat)
    return float(_without_overflow(lambda d: np.sqrt(np.mean(d**2)), y - y_hat))


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


# a metric past the float range is reported as null, not warned about
@np.errstate(over="ignore")
def evaluate_predictions(
    truth: dict[str, np.ndarray],
    predicted: dict[str, np.ndarray],
    control_name: str,
) -> dict:
    """Score predicted condition profiles against truth at the pseudo-bulk level.

    ``truth`` and ``predicted`` map a condition name to its mean expression,
    and ``truth`` holds ``control_name``. Every predicted condition must
    exist in ``truth``; the control condition itself is never scored.
    Returns the report ``pertpipe evaluate`` prints: ``n_conditions``,
    ``aggregate``, then ``per_condition`` and ``skipped``, both in name
    order. A per-condition metric that is undefined, or too large for a
    float, is null, left out of the aggregates and listed under ``skipped``.
    """
    y_ctrl = truth[control_name]
    skipped: dict[str, list[str]] = {name: [] for name in METRIC_NAMES}
    per_condition: dict[str, dict[str, float | None]] = {}
    for cond in sorted(predicted):
        if cond == control_name:
            continue
        if cond not in truth:
            raise ParameterError(
                f"predicted condition {cond!r} has no matching truth condition"
            )
        y_p, y_hat = truth[cond], predicted[cond]
        if y_p.shape != y_hat.shape:
            raise ParameterError(
                f"condition {cond!r}: truth has {y_p.shape[0]} genes, "
                f"prediction has {y_hat.shape[0]}"
            )
        d, d_hat = y_p - y_ctrl, y_hat - y_ctrl
        values: dict[str, float | None] = {"rmse": rmse(y_p, y_hat)}
        for name, metric in (("delta_pcc", delta_pcc), ("cos_logfc", cos_logfc)):
            try:
                values[name] = metric(d, d_hat)
            except UndefinedMetric:
                values[name] = None
        for name, value in values.items():
            if value is None or not math.isfinite(value):
                values[name] = None
                skipped[name].append(cond)
        per_condition[cond] = values

    aggregate: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        defined = [v[name] for v in per_condition.values() if v[name] is not None]
        aggregate[name] = float(_without_overflow(np.mean, np.array(defined))) if defined else None
    return {
        "n_conditions": len(per_condition),
        "aggregate": aggregate,
        "per_condition": per_condition,
        "skipped": skipped,
    }
