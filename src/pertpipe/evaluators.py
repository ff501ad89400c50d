"""Evaluators the search engine scores against at desk scale.

None of these are real neural trainers. Each surrogate family is a fast
closed-form stand-in chosen so that different data regimes favor different
branches of the action space: plain ridge recovers clean linear effects,
gated and pathway-masked variants win under heavy noise, the generative
stand-ins estimate condition means with shrinkage or direction averaging.
A lookup-table landscape oracle tests search dynamics with no fitting at
all, and a failure injector exercises the debug path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .actions import Candidate, enumerate_candidates
from .data import (
    CanonicalDataset,
    SplitAssignment,
    _block_rows,
    _row_halves,
    column_means,
    factorize,
    normalize_log1p,
    pseudo_bulk,
    release_pages,
    validate_canonical,
)
from .errors import ParameterError, ValidationError
# delta_pcc is not called here; the benchmark's tracer (perfbench/tracing.py)
# patches it through this module's namespace
from .metrics import delta_pcc, pcc_side  # noqa: F401
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


def _pathway_fracs(ensembl_ids) -> np.ndarray:
    """Each gene's stable hash in [0, 1), which ranks it for the pathway.

    ``_hash_frac`` of each ``pathway|<id>``: the digests are joined and
    their first 8 bytes read as big-endian integers in one pass.
    """
    blob = b"".join([hashlib.sha256(f"pathway|{g}".encode()).digest() for g in ensembl_ids])
    return np.frombuffer(blob, dtype=">u8")[::4] / 2.0**64


def pathway_gene_mask(ensembl_ids) -> np.ndarray:
    """Deterministic, identity-based gene subset playing the role of a pathway.

    Derived from a stable hash of each gene id, so it is invariant to gene
    reordering and shared between the synthetic generator and the
    pathway-masked surrogate family.
    """
    return _pathway_fracs(ensembl_ids) < PATHWAY_FRACTION


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
        if not 0.0 <= self.noise_sigma < float("inf"):
            raise ParameterError(f"noise_sigma must be in [0, inf), got {self.noise_sigma}")


@dataclass(frozen=True)
class GroundTruth:
    """Hidden generator state, kept separate from the dataset for oracles."""

    x0: np.ndarray
    effects: np.ndarray  # (n_perts, n_genes), linear space
    pert_names: tuple[str, ...]
    support: np.ndarray  # gene indices carrying the effects

    def to_json(self) -> str:
        return json.dumps(
            {
                "x0": self.x0.tolist(),
                "effects": self.effects.tolist(),
                "pert_names": list(self.pert_names),
                "support": self.support.tolist(),
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

    ``X`` is filled one block of ``_block_rows`` rows at a time, in row
    order on the calling thread, so no n x g temporary is ever held beside
    it. The generator draws the same noise stream in blocks as in one call,
    so the dataset does not depend on the block size. A non-finite cell
    (noise past the float64 range) is named by its row in ``X``.
    """
    rng = np.random.default_rng(cfg.seed)
    g, p, c = cfg.n_genes, cfg.n_perts, cfg.cells_per_condition
    ensembl = np.array([f"ENSG{j:011d}" for j in range(g)], dtype=object)
    symbols = np.array([f"GENE{j}" for j in range(g)], dtype=object)

    x0 = rng.uniform(1.0, 5.0, size=g)
    k = math.ceil(cfg.effect_sparsity * g)
    support = np.sort(np.argsort(_pathway_fracs(ensembl))[:k])

    direction = np.zeros(g)
    if k > 0:
        signs = rng.choice([-1.0, 1.0], size=k)
        magnitude = rng.uniform(0.3, 0.6, size=k)
        direction[support] = signs * magnitude * x0[support] * 0.5

    amplitudes = rng.uniform(0.6, 1.0, size=p)
    # amplitude * direction * (1 + wiggle), in place to hold no third p x g array
    effects = rng.normal(0.0, 0.05, size=(p, g))  # the wiggle
    effects += 1.0
    effects *= amplitudes[:, None] * direction
    effects[:, np.setdiff1d(np.arange(g), support)] = 0.0

    pert_names = tuple(f"PERT_{i:03d}" for i in range(p))
    n_cells = (p + 1) * c
    block = np.repeat(np.arange(p + 1), c)  # c cells per condition, controls first
    is_control = block == 0
    means = np.vstack([x0, x0 + effects])
    X = np.empty((n_cells, g))
    step = _block_rows(X)
    for lo in range(0, n_cells, step):
        hi = min(lo + step, n_cells)
        linear = means[block[lo:hi]]
        if cfg.noise_sigma > 0:
            linear += rng.normal(0.0, cfg.noise_sigma, size=(hi - lo, g))
            np.clip(linear, 0.0, None, out=linear)
        try:
            X[lo:hi] = normalize_log1p(
                linear, target_sum=1e4, is_already_log1p=False, normalization_required=False
            )
        except ValidationError:
            # the rows before lo passed, so a scan of X[:hi] that leaves it
            # unchanged names the same cell by its row in X
            X[lo:hi] = linear
            normalize_log1p(X[:hi], 1e4, is_already_log1p=True, normalization_required=False)
            raise
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
    report = validate_canonical(ds, x_checked=True)
    if not report.ok:
        raise ValidationError(f"synthetic dataset failed validation:\n{report}")
    return ds, GroundTruth(x0=x0, effects=effects, pert_names=pert_names, support=support)


# --------------------------------------------------------------------------
# surrogate evaluator


@dataclass(frozen=True)
class _SplitStats:
    """Everything a surrogate evaluation needs that no candidate changes."""

    rows: np.ndarray  # perturbed train cells, grouped by condition in index_of order
    counts: np.ndarray  # (m,) cells per train condition
    y_ctrl: np.ndarray  # train control mean
    index_of: dict[str, int]  # sorted train condition names -> row
    # per val condition, in pseudo_bulk order: the condition if train has it,
    # else None, the key of the one prediction every other condition shares
    val_keys: tuple[str | None, ...]
    val_truth: np.ndarray  # (k, g) read-only, each row pcc_side's centred truth shift
    val_squares: np.ndarray  # (k,) read-only, each row's sum of squares
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
    mean_dir: np.ndarray  # mean unit direction of the condition means
    mean_norm: float  # mean norm of the condition means


def _release_runs(X: np.ndarray, rows: np.ndarray) -> None:
    """``release_pages`` on each run of consecutive rows of ``X`` in ``rows``."""
    cuts = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), rows.size]
    for a, b in zip(cuts, cuts[1:]):
        release_pages(X[rows[a]:rows[b - 1] + 1])


def _loss_view(X: np.ndarray, stats: _SplitStats, clip=None) -> _LossView:
    """Shift statistics gathered one condition block at a time.

    Each block is the condition's rows of ``X`` minus the train control
    mean, clipped per gene to ``clip = (lo, hi)`` for the robust loss, so
    no n x g shift matrix is ever held. The variances take ``np.var``'s
    steps in place and reuse the block's sum, so they keep its bits. The
    conditions are split in two halves, one on a worker thread, each under
    the caller's numpy error state. The mean direction and norm are flow
    matching's unseen-condition statistics.

    Once rows are read, ``release_pages`` lets go of each run of
    consecutive rows among them, so a search never holds the whole of an
    ``X`` mapped from a bundle. A run that goes on into the next condition
    waits for that condition's rows until ``_block_rows`` rows are read,
    so adjacent conditions share a release (one per condition took
    measurably longer) and neither half holds more than about a block of
    read rows. A later pass maps the pages back from the page cache, so no
    value changes.
    """
    m, g = stats.counts.size, X.shape[1]
    rows = stats.rows
    step = _block_rows(X)
    sums = np.empty((m, g))
    cond_vars = np.empty((m, g))
    ends = np.cumsum(stats.counts).tolist()
    errors = np.geterr()

    def blocks(lo: int, hi: int) -> None:
        with np.errstate(**errors):  # the caller's state does not reach the worker
            start = read = ends[lo - 1] if lo else 0
            for i in range(lo, hi):
                block = X[rows[start:ends[i]]]
                block -= stats.y_ctrl
                if clip is not None:
                    np.maximum(block, clip[0], out=block)
                    np.minimum(block, clip[1], out=block)
                block.sum(axis=0, out=sums[i])
                block -= sums[i] / (ends[i] - start)
                np.square(block, out=block)
                block.sum(axis=0, out=cond_vars[i])
                start = ends[i]
                goes_on = i + 1 < hi and rows[start] == rows[start - 1] + 1
                if not goes_on or start - read >= step:
                    _release_runs(X, rows[read:start])
                    read = start

    _row_halves(m, blocks)
    cond_vars /= stats.counts[:, None]
    cond_means = sums / stats.counts[:, None]
    norms = np.linalg.norm(cond_means, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return _LossView(
        sums=sums,
        cond_means=cond_means,
        cond_vars=cond_vars,
        grand=cond_means.mean(axis=0),
        var_between=cond_means.var(axis=0),
        var_within=cond_vars.mean(axis=0),
        mean_dir=(cond_means / safe[:, None]).mean(axis=0),
        mean_norm=float(norms.mean()),
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


def _in_range(view: _LossView, counts: np.ndarray) -> bool:
    """Whether the fits from ``view`` and their scores stay in the float64 range.

    The total sum of squares of the train shifts, sum_i (S_i . m_i + c_i
    sum of v_i), bounds every condition mean's squared norm, and each
    family's prediction lies within three such norms of zero, so a
    prediction's sum of squares is at most 9 times the total. The total
    times 16 must be finite, which NaN or inf in the statistics fails.
    """
    total = np.vdot(view.sums, view.cond_means) + (counts @ view.cond_vars).sum()
    return bool(np.isfinite(16.0 * total))


def _prepare(ds: CanonicalDataset, split: SplitAssignment):
    """Candidate-invariant split statistics and the view of each loss, or
    why no candidate can be scored."""
    if ds.n_genes < 2:
        return (
            f"degenerate input: a shift correlation needs at least 2 genes, "
            f"the dataset has {ds.n_genes}"
        )
    train = split.indices("train")
    val = split.indices("val")
    train_ctrl = train[ds.is_control[train]]
    train_pert = train[~ds.is_control[train]]
    val_pert = val[~ds.is_control[val]]
    val_ctrl = val[ds.is_control[val]]
    if train_ctrl.size == 0 or train_pert.size == 0 or val_pert.size == 0:
        return (
            "degenerate split: train needs control and perturbed cells "
            "and val needs perturbed cells"
        )

    y_ctrl = column_means(ds.X[train_ctrl])
    # truth shifts reference the val split's own control so their noise is
    # independent of the fitted shift; falls back to the train control
    # when the val split carries no control cells
    y_ctrl_val = column_means(ds.X[val_ctrl]) if val_ctrl.size else y_ctrl
    val_means = pseudo_bulk(ds, val_pert)
    release_pages(ds.X)  # the control and val rows are read; the loss views read train rows
    # NaN and inf survive every sum, so these means see each cell read; the
    # means of finite cells are finite, but a shift or its square may not be
    non_finite = "non-finite input: X holds NaN or inf in the {} cells".format
    overflow = ("overflow: shifts from the control mean in the {} cells "
                "pass the float64 range").format
    if not np.isfinite(y_ctrl).all():
        return non_finite("train control")
    if not all(np.isfinite(mean).all() for mean in (y_ctrl_val, *val_means.values())):
        return non_finite("val")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        truth, squares = zip(*(pcc_side(mean - y_ctrl_val) for mean in val_means.values()))
    # C order, so each row adds up as the 1-D sum of that row would
    val_truth, val_squares = np.stack(truth), np.array(squares)
    if not np.isfinite(val_squares).all():
        return overflow("val")
    names, codes = factorize(ds.condition_name[train_pert])
    index_of = {c: i for i, c in enumerate(names.tolist())}
    for shared in (val_truth, val_squares):
        shared.setflags(write=False)
    stats = _SplitStats(
        rows=train_pert[np.argsort(codes, kind="stable")],
        counts=np.bincount(codes),
        y_ctrl=y_ctrl,
        index_of=index_of,
        val_keys=tuple(c if c in index_of else None for c in val_means),
        val_truth=val_truth,
        val_squares=val_squares,
        gene_mask=pathway_gene_mask(ds.ensembl_id),
    )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mse = _loss_view(ds.X, stats)
        huber = _loss_view(ds.X, stats, _huber_bounds(stats, mse))
        in_range = all(_in_range(view, stats.counts) for view in (mse, huber))
    if not in_range:
        cells_finite = np.isfinite(ds.X[train_pert]).all()
        return (overflow if cells_finite else non_finite)("perturbed train")
    return stats, {"mse": mse, "huber": huber}


class SurrogateEvaluator:
    """Closed-form per-family trainers scored by held-out shift correlation.

    Fits on the train split, predicts the val split's per-condition
    pseudo-bulk as train-control-mean plus an estimated shift, and returns
    the clamped mean DeltaPCC. Execution time is a deterministic per-family
    cost table scaled by data size, never the wall clock.

    Every family fits from per-condition sufficient statistics, which the
    constructor builds. They are the split views, the train control mean
    and the val conditions' truth shifts, centred and stacked in one
    read-only k x g matrix with their sums of squares (the truth's half of
    the Pearson correlation), then per loss the per-condition counts, sums,
    means and variances of the train shifts, gathered one condition block
    at a time with the blocks split over two cores (the huber clip bounds
    are pooled from the mse statistics), and flow matching's mean direction
    and norm. When ``X`` is mapped from a bundle, the pages of the control
    and val rows are let go of once they are read, and each loss pass lets
    go of the train rows it has read, so the evaluator never holds the
    whole mapped matrix. An error raised while building them is raised by the
    constructor.

    A candidate costs O(m * g) for its fit (the ridge families solve the
    one-hot ridge in closed form over counts, so no n x g shift matrix is
    ever held; its intercept is computed once per loss and regularization
    and shared by both ridge families), one prediction for all val
    conditions outside train and one for each val condition in train (the
    ``unseen_cell`` split), each prepared once, and one O(k * g) product
    sum that scores all k val conditions at once.

    Inputs that are degenerate (fewer than 2 genes, which no correlation is
    defined on, or a split without the cells a fit needs) or not finite (NaN
    or inf in the cells a fit reads) make every candidate fail with an error
    naming the problem.
    """

    def __init__(self, dataset: CanonicalDataset, split: SplitAssignment):
        self._size = dataset.n_cells * dataset.n_genes / 5e4
        self._ridges: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]] = {}
        self._prepared = _prepare(dataset, split)

    def evaluate(self, candidate: Candidate, seed: int) -> EvalOutcome:
        sim_time = self._simulated_time(candidate)
        if isinstance(self._prepared, str):
            return EvalOutcome(m_val=None, t_exec=sim_time, error=self._prepared)
        stats, views = self._prepared
        reg = candidate.hyperparams.reg_strength * (1.0 + candidate.hyperparams.dropout)
        predict = self._fit_family(candidate.backbone, candidate.loss, reg, stats, views)
        # each side is prepared once: a train condition's own, and the one
        # every condition outside train shares (key None, which train lacks)
        sides = {key: pcc_side(predict(key)) for key in dict.fromkeys(stats.val_keys)}
        centred, squares = zip(*(sides[key] for key in stats.val_keys))
        predicted = centred[0] if len(sides) == 1 else np.stack(centred)
        # every step below is per row, so each condition's correlation keeps
        # the bits of one pcc_of_sides call; a zero-variance side is skipped
        products = (stats.val_truth * predicted).sum(axis=1)
        denom = np.sqrt(stats.val_squares) * np.sqrt(np.array(squares))
        defined = denom != 0
        if not defined.any():
            return EvalOutcome(m_val=None, t_exec=sim_time, error=None)
        scores = np.clip(products[defined] / denom[defined], -1.0, 1.0)
        return EvalOutcome(m_val=max(0.0, float(np.mean(scores))), t_exec=sim_time)

    def _simulated_time(self, candidate: Candidate) -> float:
        t = _FAMILY_COST[candidate.backbone] * (0.5 + self._size)
        if candidate.hyperparams.learning_rate < 1e-2:
            t *= 1.3
        if candidate.loss == "huber":
            t *= 1.1
        if candidate.debug_fixed:
            t *= 1.05
        return t

    def _fit_family(self, backbone, loss: str, reg: float, stats: _SplitStats, views):
        view = views[loss]
        index_of = stats.index_of
        cond_means = view.cond_means
        grand = view.grand

        if backbone in ("resnet", "pathway_masked"):
            # ridge on a one-hot condition design plus an intercept, every
            # coefficient penalized: the normal equations form an arrowhead
            # system whose solution is, with shrink_i = 1 / (c_i + reg),
            #   intercept = sum_i shrink_i S_i / (1 + sum_i c_i shrink_i)
            #   beta_i + intercept = shrink_i (S_i + reg * intercept)
            # both families share it, so it is solved once per (loss, reg)
            if (loss, reg) not in self._ridges:
                shrink = 1.0 / (stats.counts + reg)
                intercept = (shrink @ view.sums) / (1.0 + float(stats.counts @ shrink))
                shrink.setflags(write=False)
                intercept.setflags(write=False)
                self._ridges[loss, reg] = shrink, intercept
            shrink, intercept = self._ridges[loss, reg]
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
            def predict(cond: str) -> np.ndarray:
                if cond in index_of:
                    return cond_means[index_of[cond]]
                return view.mean_dir * view.mean_norm / (1.0 + reg)

            return predict

        raise ParameterError(f"unknown backbone {backbone!r}")


# --------------------------------------------------------------------------
# landscape oracle


def _finite(value) -> bool:
    return type(value) is float and math.isfinite(value)


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
        self.digest: str | None = None  # sha256 of the bytes from_file parsed

    @classmethod
    def from_file(cls, path: str | Path) -> "LandscapeEvaluator":
        """Load a table, checked whole so a bad one fails before any search.

        The file is a UTF-8 JSON object. Its ``leaves`` object holds a row
        for every candidate key, each with a finite ``mean`` and, if it has
        one, a finite ``jitter_bound``; a ``t_exec`` is a finite number.
        Sets ``digest`` to the sha256 of the bytes it read.
        """
        data = Path(path).read_bytes()
        try:
            # integers read as floats, so one finiteness check covers both
            doc = json.loads(data.decode("utf-8"), parse_int=float)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ParameterError(f"landscape table {path} is not UTF-8 JSON: {exc}") from None
        leaves = doc.get("leaves") if isinstance(doc, dict) else None
        if not isinstance(leaves, dict):
            raise ParameterError(f"landscape table {path} needs an object of 'leaves'")
        missing = [c.key() for c in enumerate_candidates() if c.key() not in leaves]
        if missing:
            raise ParameterError(
                f"landscape table {path} lacks {len(missing)} candidate leaves, "
                f"first {missing[0]!r}"
            )
        for key, row in leaves.items():
            if not (
                isinstance(row, dict)
                and _finite(row.get("mean"))
                and _finite(row.get("jitter_bound", 0.0))
            ):
                raise ParameterError(
                    f"landscape table {path} leaf {key!r} needs a finite number 'mean' "
                    f"and an optional finite number 'jitter_bound', got {row!r}"
                )
        t_exec = doc.get("t_exec", 10.0)
        if not _finite(t_exec):
            raise ParameterError(f"landscape table {path} has t_exec {t_exec!r}, not a number")
        evaluator = cls(leaves, t_exec=t_exec)
        evaluator.digest = hashlib.sha256(data).hexdigest()
        return evaluator

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

    def __init__(self, inner, failure_rate: float, fix_succeeds: bool = True):
        if not (0.0 <= failure_rate <= 1.0):
            raise ParameterError("failure_rate must be in [0, 1]")
        self.inner = inner
        self.failure_rate = failure_rate
        self.fix_succeeds = fix_succeeds

    def is_injected(self, candidate: Candidate) -> bool:
        base = candidate.key().removesuffix("/fixed")
        # any change to this text moves every --fail-rate trajectory
        return _hash_frac(f"fail|0|{base}") < self.failure_rate

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
