"""Evaluators the search engine scores against at desk scale.

None of these are real neural trainers. Each surrogate family is a fast
closed-form stand-in chosen so that different data regimes favor different
branches of the action space: plain ridge recovers clean linear effects,
gated and pathway-masked variants win under heavy noise, the generative
stand-ins estimate condition means with shrinkage or direction averaging.
A lookup-table landscape oracle tests search dynamics with no fitting at
all, a failure injector exercises the debug path, and an exhaustive
enumerator provides the optimality reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .actions import Candidate, enumerate_candidates
from .data import (
    CanonicalDataset,
    SplitAssignment,
    normalize_log1p,
    pseudo_bulk,
    validate_canonical,
)
from .errors import ParameterError, ValidationError
from .metrics import UndefinedMetric, delta_pcc
from .search import EvalOutcome

PATHWAY_FRACTION = 0.25
_HUBER_C = 1.345

# simulated seconds per family at unit data size
_FAMILY_COST = {
    "resnet": 1.0,
    "gated_mlp": 1.15,
    "pathway_masked": 0.9,
    "conditional_vae": 1.35,
    "flow_matching": 1.6,
}


def _hash_frac(text: str) -> float:
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def pathway_gene_mask(ensembl_ids, fraction: float = PATHWAY_FRACTION) -> np.ndarray:
    """Deterministic, identity-based gene subset playing the role of a pathway.

    Derived from a stable hash of each gene id, so it is invariant to gene
    reordering and shared between the synthetic generator and the
    pathway-masked surrogate family.
    """
    return np.array([_hash_frac(f"pathway|{g}") < fraction for g in ensembl_ids])


# --------------------------------------------------------------------------
# synthetic data with known ground truth


@dataclass(frozen=True)
class SyntheticConfig:
    n_genes: int
    n_perts: int
    cells_per_condition: int
    noise_sigma: float
    effect_sparsity: float
    seed: int

    def __post_init__(self):
        if min(self.n_genes, self.n_perts, self.cells_per_condition) < 1:
            raise ParameterError("all synthetic counts must be >= 1")
        if not (0.0 <= self.effect_sparsity <= 1.0):
            raise ParameterError(
                f"effect_sparsity must be in [0, 1], got {self.effect_sparsity}"
            )
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be nonnegative")


@dataclass(frozen=True)
class GroundTruth:
    """Hidden generator state, kept separate from the dataset for oracles."""

    x0: np.ndarray
    effects: np.ndarray  # (n_perts, n_genes), linear space
    pert_names: tuple[str, ...]
    support: np.ndarray  # gene indices carrying the effects
    linear_X: np.ndarray  # pre-log expression, same row order as the dataset

    def to_json(self) -> str:
        return json.dumps(
            {
                "x0": [float(v) for v in self.x0],
                "effects": [[float(v) for v in row] for row in self.effects],
                "pert_names": list(self.pert_names),
                "support": [int(i) for i in self.support],
            },
            sort_keys=True,
        )


def generate_synthetic(cfg: SyntheticConfig) -> tuple[CanonicalDataset, GroundTruth]:
    """Draw a dataset where every perturbation shifts a shared sparse gene set.

    Effects share one direction with per-perturbation amplitudes and small
    idiosyncratic wiggle, so mean-shift models generalize to held-out
    perturbations. The effect support is the sparsity-sized subset of genes
    ranked first by the pathway hash, which nests it inside the
    pathway-masked family's gene mask. Cells are basal + effect + Gaussian
    noise, clipped at zero, then log1p-transformed.
    """
    rng = np.random.default_rng(cfg.seed)
    g, p, c = cfg.n_genes, cfg.n_perts, cfg.cells_per_condition
    ensembl = np.array([f"ENSG{j:011d}" for j in range(g)], dtype=object)
    symbols = np.array([f"GENE{j}" for j in range(g)], dtype=object)

    x0 = rng.uniform(1.0, 5.0, size=g)
    k = math.ceil(cfg.effect_sparsity * g)
    fracs = np.array([_hash_frac(f"pathway|{e}") for e in ensembl])
    support = np.sort(np.argsort(fracs)[:k]) if k > 0 else np.array([], dtype=int)

    direction = np.zeros(g)
    if k > 0:
        signs = rng.choice([-1.0, 1.0], size=k)
        magnitude = rng.uniform(0.3, 0.6, size=k)
        direction[support] = signs * magnitude * x0[support] * 0.5

    amplitudes = rng.uniform(0.6, 1.0, size=p)
    wiggle = rng.normal(0.0, 0.05, size=(p, g))
    effects = np.zeros((p, g))
    for i in range(p):
        effects[i] = amplitudes[i] * direction * (1.0 + wiggle[i])
    effects[:, np.setdiff1d(np.arange(g), support)] = 0.0

    pert_names = tuple(f"PERT_{i:03d}" for i in range(p))
    n_cells = (p + 1) * c
    block = np.repeat(np.arange(p + 1), c)  # c cells per condition, controls first
    is_control = block == 0
    linear = np.vstack([x0, x0 + effects])[block]
    if cfg.noise_sigma > 0:
        noise = rng.normal(0.0, cfg.noise_sigma, size=(n_cells, g))
        linear = np.clip(linear + noise, 0.0, None)

    X = normalize_log1p(
        linear, target_sum=1e4, is_already_log1p=False, normalization_required=False
    )
    ds = CanonicalDataset(
        cell_type=np.array(["LINE_0"] * n_cells, dtype=object),
        batch_id=np.array(["batch_0"] * n_cells, dtype=object),
        donor_id=np.array(["LINE_0"] * n_cells, dtype=object),
        pert_type=np.where(is_control, "control", "crispr"),
        is_control=is_control,
        condition_name=np.array(("control",) + pert_names, dtype=object)[block],
        X=X,
        # one entry per perturbed cell, with no dose
        pert_indptr=np.concatenate(([0], np.cumsum(~is_control))),
        pert_indices=block[c:] - 1,
        pert_values=np.zeros(p * c),
        ensembl_id=ensembl,
        gene_symbol=symbols,
        pert_vocab=pert_names,
    )
    report = validate_canonical(ds)
    if not report.ok:
        raise ValidationError(f"synthetic dataset failed validation:\n{report}")
    truth = GroundTruth(
        x0=x0, effects=effects, pert_names=pert_names, support=support, linear_X=linear
    )
    return ds, truth


# --------------------------------------------------------------------------
# surrogate evaluator


@dataclass(frozen=True)
class _SplitStats:
    """Everything a surrogate evaluation needs that no candidate changes."""

    rows: np.ndarray  # perturbed train cells, grouped by condition in index_of order
    counts: np.ndarray  # (m,) cells per train condition
    y_ctrl: np.ndarray  # train control mean
    index_of: dict[str, int]  # sorted train condition names -> row
    val_deltas: tuple[tuple[str, np.ndarray], ...]  # (condition, truth shift)
    gene_mask: np.ndarray  # pathway_gene_mask of the dataset


@dataclass(frozen=True)
class _LossView:
    """Per-condition sufficient statistics of the train shifts under one loss."""

    sums: np.ndarray  # (m, g) per-condition sums of the shifts
    cond_means: np.ndarray  # (m, g)
    cond_vars: np.ndarray  # (m, g) within-condition variances
    grand: np.ndarray  # mean of the condition means
    var_between: np.ndarray  # variance of the condition means
    var_within: np.ndarray  # mean of the within-condition variances


def _loss_view(X: np.ndarray, stats: _SplitStats, clip=None) -> _LossView:
    """Shift statistics gathered one condition block at a time.

    Each block is the condition's rows of ``X`` minus the train control
    mean, clipped per gene to ``clip = (lo, hi)`` for the robust loss, so
    no n x g shift matrix is ever held.
    """
    m, g = stats.counts.size, X.shape[1]
    sums = np.empty((m, g))
    cond_vars = np.empty((m, g))
    start = 0
    for i, end in enumerate(np.cumsum(stats.counts).tolist()):
        block = X[stats.rows[start:end]]
        block -= stats.y_ctrl
        if clip is not None:
            np.clip(block, *clip, out=block)
        block.sum(axis=0, out=sums[i])
        cond_vars[i] = block.var(axis=0)
        start = end
    cond_means = sums / stats.counts[:, None]
    return _LossView(
        sums=sums,
        cond_means=cond_means,
        cond_vars=cond_vars,
        grand=cond_means.mean(axis=0),
        var_between=cond_means.var(axis=0),
        var_within=cond_vars.mean(axis=0),
    )


def _huber_bounds(stats: _SplitStats, mse: _LossView) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene clip bounds at 1.345 sigma of all train shifts: the robust-loss analog.

    The mean and standard deviation over every perturbed train cell are
    pooled from the per-condition counts, means and variances (law of
    total variance).
    """
    n = stats.counts.sum()
    mu = mse.sums.sum(axis=0) / n
    var = (stats.counts @ mse.cond_vars + stats.counts @ (mse.cond_means - mu) ** 2) / n
    sigma = np.sqrt(var)
    return mu - _HUBER_C * sigma, mu + _HUBER_C * sigma


class SurrogateEvaluator:
    """Closed-form per-family trainers scored by held-out shift correlation.

    Fits on the train split, predicts the val split's per-condition
    pseudo-bulk as train-control-mean plus an estimated shift, and returns
    the clamped mean DeltaPCC. Execution time is a deterministic per-family
    cost table scaled by data size, never the wall clock.

    Every family fits from per-condition sufficient statistics, built once
    on first use: the split views, control means and val truth shifts, then
    per loss the per-condition counts, sums, means and variances of the
    train shifts, gathered one condition block at a time (the huber clip
    bounds are pooled from the mse statistics). The ridge families solve
    the one-hot ridge in closed form over counts, so a candidate costs
    O(m * g) plus scoring and no n x g shift matrix is ever held.

    Inputs that are degenerate (a split without the cells a fit needs) or
    not finite (NaN or inf in the cells a fit reads) make every candidate
    fail with an error naming the problem.
    """

    def __init__(self, dataset: CanonicalDataset, split: SplitAssignment):
        self.dataset = dataset
        self.split = split
        self._views: dict[str, _LossView] = {}

    def evaluate(self, candidate: Candidate, seed: int) -> EvalOutcome:
        sim_time = self._simulated_time(candidate)
        stats = self._stats
        if isinstance(stats, str):
            return EvalOutcome(m_val=None, t_exec=sim_time, error=stats)
        reg = candidate.hyperparams.reg_strength * (1.0 + candidate.hyperparams.dropout)
        predict = self._fit_family(
            candidate.backbone, stats, self._view(stats, candidate.loss), reg
        )
        scores = []
        for condition, true_delta in stats.val_deltas:
            try:
                scores.append(delta_pcc(true_delta, predict(condition)))
            except UndefinedMetric:
                continue
        if not scores:
            return EvalOutcome(m_val=None, t_exec=sim_time, error=None)
        return EvalOutcome(m_val=max(0.0, float(np.mean(scores))), t_exec=sim_time)

    @cached_property
    def _stats(self) -> _SplitStats | str:
        """Candidate-invariant split statistics, or why no candidate can be scored."""
        ds = self.dataset
        train = self.split.indices("train")
        val = self.split.indices("val")
        train_ctrl = train[ds.is_control[train]]
        train_pert = train[~ds.is_control[train]]
        val_pert = val[~ds.is_control[val]]
        val_ctrl = val[ds.is_control[val]]
        if train_ctrl.size == 0 or train_pert.size == 0 or val_pert.size == 0:
            return (
                "degenerate split: train needs control and perturbed cells "
                "and val needs perturbed cells"
            )

        y_ctrl = ds.X[train_ctrl].mean(axis=0)
        # truth shifts reference the val split's own control so their noise is
        # independent of the fitted shift; falls back to the train control
        # when the val split carries no control cells
        y_ctrl_val = ds.X[val_ctrl].mean(axis=0) if val_ctrl.size else y_ctrl
        names, codes = np.unique(ds.condition_name[train_pert], return_inverse=True)
        stats = _SplitStats(
            rows=train_pert[np.argsort(codes, kind="stable")],
            counts=np.bincount(codes),
            y_ctrl=y_ctrl,
            index_of={c: i for i, c in enumerate(names.tolist())},
            val_deltas=tuple(
                (p.condition_name, p.mean_expr - y_ctrl_val)
                for p in pseudo_bulk(ds, val_pert)
            ),
            gene_mask=pathway_gene_mask(ds.ensembl_id),
        )
        with np.errstate(invalid="ignore"):  # inf - inf in a variance is reported below
            mse = self._views["mse"] = _loss_view(ds.X, stats)
        # NaN and inf survive every sum, so these aggregates see each cell read
        for cells, aggregate in (
            ("train control", y_ctrl),
            ("val", np.array([delta for _, delta in stats.val_deltas])),
            ("perturbed train", mse.sums),
        ):
            if not np.isfinite(aggregate).all():
                return f"non-finite input: X holds NaN or inf in the {cells} cells"
        return stats

    def _view(self, stats: _SplitStats, loss: str) -> _LossView:
        view = self._views.get(loss)
        if view is None:  # only the huber view is built here, from the mse one
            clip = _huber_bounds(stats, self._views["mse"])
            view = self._views[loss] = _loss_view(self.dataset.X, stats, clip)
        return view

    def _simulated_time(self, candidate: Candidate) -> float:
        size = self.dataset.n_cells * self.dataset.n_genes / 5e4
        t = _FAMILY_COST[candidate.backbone] * (0.5 + size)
        if candidate.hyperparams.learning_rate < 1e-2:
            t *= 1.3
        if candidate.loss == "huber":
            t *= 1.1
        if candidate.debug_fixed:
            t *= 1.05
        return t

    def _fit_family(self, backbone, stats: _SplitStats, view: _LossView, reg):
        index_of = stats.index_of
        cond_means = view.cond_means
        grand = view.grand

        if backbone in ("resnet", "pathway_masked"):
            # ridge on a one-hot condition design plus an intercept, every
            # coefficient penalized: the normal equations form an arrowhead
            # system whose solution is, with shrink_i = 1 / (c_i + reg),
            #   intercept = sum_i shrink_i S_i / (1 + sum_i c_i shrink_i)
            #   beta_i + intercept = shrink_i (S_i + reg * intercept)
            shrink = 1.0 / (stats.counts + reg)
            intercept = (shrink @ view.sums) / (1.0 + float(stats.counts @ shrink))
            mask = stats.gene_mask if backbone == "pathway_masked" else None

            def predict(cond: str) -> np.ndarray:
                shift = intercept
                if cond in index_of:
                    i = index_of[cond]
                    shift = shrink[i] * (view.sums[i] + reg * intercept)
                return shift if mask is None else shift * mask

            return predict

        if backbone == "gated_mlp":
            gate = view.var_between / (view.var_between + reg * view.var_within + 1e-12)

            def predict(cond: str) -> np.ndarray:
                base = cond_means[index_of[cond]] if cond in index_of else grand
                return gate * base

            return predict

        if backbone == "conditional_vae":
            m = len(index_of)
            spread = view.var_between
            kappa = grand**2 / (grand**2 + spread / max(m, 1) + reg / max(m, 1) + 1e-12)

            def predict(cond: str) -> np.ndarray:
                if cond in index_of:
                    return grand + kappa * (cond_means[index_of[cond]] - grand)
                return kappa * grand

            return predict

        if backbone == "flow_matching":
            norms = np.linalg.norm(cond_means, axis=1)
            safe = np.where(norms > 0, norms, 1.0)
            directions = cond_means / safe[:, None]
            mean_dir = directions.mean(axis=0)
            mean_norm = float(norms.mean())

            def predict(cond: str) -> np.ndarray:
                if cond in index_of:
                    return cond_means[index_of[cond]]
                return mean_dir * mean_norm / (1.0 + reg)

            return predict

        raise ParameterError(f"unknown backbone {backbone!r}")


# --------------------------------------------------------------------------
# landscape oracle


def builtin_landscape_path(name: str) -> Path:
    """Filesystem path of a landscape table shipped with the package."""
    from importlib import resources

    path = Path(str(resources.files("pertpipe") / "landscapes" / f"{name}.json"))
    if not path.is_file():
        raise ParameterError(f"no builtin landscape named {name!r}")
    return path


class LandscapeEvaluator:
    """Pure lookup-table evaluator for exercising search dynamics."""

    def __init__(self, table: dict[str, dict], t_exec: float = 10.0):
        self.table = dict(table)
        self.t_exec = t_exec

    @classmethod
    def from_file(cls, path: str | Path) -> "LandscapeEvaluator":
        doc = json.loads(Path(path).read_text())
        return cls(doc["leaves"], t_exec=float(doc.get("t_exec", 10.0)))

    @classmethod
    def builtin(cls, name: str) -> "LandscapeEvaluator":
        return cls.from_file(builtin_landscape_path(name))

    def evaluate(self, candidate: Candidate, seed: int) -> EvalOutcome:
        key = candidate.key().removesuffix("/fixed")
        if key not in self.table:
            raise ParameterError(f"unknown candidate leaf {key!r} in landscape table")
        row = self.table[key]
        mean = float(row["mean"])
        bound = float(row.get("jitter_bound", 0.0))
        jitter = 0.0
        if bound > 0:
            jitter = (2.0 * _hash_frac(f"jitter|{key}|{seed}") - 1.0) * bound
        return EvalOutcome(
            m_val=float(np.clip(mean + jitter, 0.0, 1.0)), t_exec=self.t_exec
        )


# --------------------------------------------------------------------------
# failure injection (exercises bug nodes and the debug action)


class FailureInjectingEvaluator:
    """Deterministically fails a fraction of candidates until debug-fixed."""

    def __init__(self, inner, failure_rate: float, salt: int = 0, fix_succeeds: bool = True):
        if not (0.0 <= failure_rate <= 1.0):
            raise ParameterError("failure_rate must be in [0, 1]")
        self.inner = inner
        self.failure_rate = failure_rate
        self.salt = salt
        self.fix_succeeds = fix_succeeds

    def is_injected(self, candidate: Candidate) -> bool:
        base = candidate.key().removesuffix("/fixed")
        return _hash_frac(f"fail|{self.salt}|{base}") < self.failure_rate

    def evaluate(self, candidate: Candidate, seed: int) -> EvalOutcome:
        outcome = self.inner.evaluate(candidate, seed)
        if not self.is_injected(candidate):
            return outcome
        if candidate.debug_fixed and self.fix_succeeds:
            return outcome
        return EvalOutcome(
            m_val=None,
            t_exec=outcome.t_exec,
            error=f"injected failure for {candidate.key()}",
        )


# --------------------------------------------------------------------------
# exhaustive oracle


@dataclass(frozen=True)
class ExhaustiveRow:
    candidate_key: str
    m_val: float | None
    t_exec: float
    error: str | None


@dataclass(frozen=True)
class ExhaustiveResult:
    best_candidate: Candidate | None
    best_m_val: float | None
    table: tuple[ExhaustiveRow, ...]

    def to_tsv(self) -> str:
        lines = ["candidate\tm_val\tt_exec\tstatus"]
        for row in self.table:
            m = "" if row.m_val is None else repr(row.m_val)
            status = "failed" if row.error else "ok"
            lines.append(f"{row.candidate_key}\t{m}\t{row.t_exec!r}\t{status}")
        return "\n".join(lines) + "\n"


def exhaustive_best(evaluator, seed: int) -> ExhaustiveResult:
    """Evaluate every hierarchy-legal candidate once; ties keep the first."""
    rows: list[ExhaustiveRow] = []
    best: Candidate | None = None
    best_m: float | None = None
    for candidate in enumerate_candidates():
        outcome = evaluator.evaluate(candidate, seed)
        rows.append(
            ExhaustiveRow(
                candidate_key=candidate.key(),
                m_val=outcome.m_val if outcome.ok else None,
                t_exec=outcome.t_exec,
                error=outcome.error,
            )
        )
        if outcome.ok and outcome.m_val is not None:
            if best_m is None or outcome.m_val > best_m:
                best, best_m = candidate, outcome.m_val
    return ExhaustiveResult(best_candidate=best, best_m_val=best_m, table=tuple(rows))
