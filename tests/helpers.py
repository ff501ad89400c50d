"""Shared test helpers: independent oracles and fixture builders.

The metric oracle here is a deliberately naive pure-Python reimplementation
(no shared code with the package) used to cross-check the vectorized
implementations. The expression generator derives mapping-logic text from
the grammar together with the tree the parser must return for it. The
surrogate reference recomputes everything per candidate from the full
n x g shift matrix, with a dense ridge solve and a direct winsorization,
the way the evaluator did before it fitted from per-condition sufficient
statistics; the scoring reference calls ``pcc_of_sides`` once per val
condition, as the evaluator did before it scored every condition in one
array pass; the loss-view reference takes each block's variance with
``np.var`` and clips with ``np.clip``, as the evaluator did before it
reused the block sum and clipped by maximum then minimum. The harmonize
references keep the per-cell loops that bundle writes, mapping
application, merging, validation, CSR row grouping and the DSL's string
comparison ran before they were vectorized, the bundle TSV reader that
split and appended one line at a time, and pseudo-bulk's one mask over the
cells per condition. The knowledge-base references
embed one text at a time and score one entry at a time, the way retrieval
did before it embedded and scored in batches. The exhaustive oracle
evaluates every hierarchy-legal candidate once; it is the reference the
search's optimality is checked against.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pertpipe import dsl
from pertpipe.actions import Candidate, enumerate_candidates
from pertpipe.data import (
    CANONICAL_OBS_KEYS,
    PERT_TYPES,
    CanonicalDataset,
    RawTable,
    ValidationIssue,
    pseudo_bulk,
)
from pertpipe.errors import BundleFormatError, ValidationError
from pertpipe.evaluators import (
    _FAMILY_COST,
    _HUBER_C,
    LandscapeEvaluator,
    _LossView,
    builtin_landscape_path,
    pathway_gene_mask,
)
from pertpipe.knowledge import RetrievalResult, composite_weight
from pertpipe.metrics import UndefinedMetric, delta_pcc, pcc_of_sides, pcc_side
from pertpipe.search import EvalOutcome


# --------------------------------------------------------------------------
# naive metric oracles (plain loops, no numpy vector ops)


def oracle_rmse(y, y_hat):
    total = 0.0
    for a, b in zip(y, y_hat):
        total += (a - b) ** 2
    return math.sqrt(total / len(y))


def oracle_pcc(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sxx = syy = 0.0
    for a, b in zip(x, y):
        cov += (a - mx) * (b - my)
        sxx += (a - mx) ** 2
        syy += (b - my) ** 2
    denom = math.sqrt(sxx) * math.sqrt(syy)
    if denom == 0:
        return None
    return cov / denom


def oracle_cosine(x, y):
    dot = nx = ny = 0.0
    for a, b in zip(x, y):
        dot += a * b
        nx += a * a
        ny += b * b
    denom = math.sqrt(nx) * math.sqrt(ny)
    if denom == 0:
        return None
    return dot / denom


def oracle_condition_metrics(y_true, y_pred, y_ctrl):
    """Per-condition metric triple from plain lists."""
    delta = [a - c for a, c in zip(y_true, y_ctrl)]
    delta_hat = [a - c for a, c in zip(y_pred, y_ctrl)]
    return {
        "rmse": oracle_rmse(y_true, y_pred),
        "delta_pcc": oracle_pcc(delta, delta_hat),
        "cos_logfc": oracle_cosine(delta, delta_hat),
    }


# --------------------------------------------------------------------------
# grammar-derived random expressions


_COLUMNS = ["drug_id", "conc_um", "cell_line", "guide", "dose", "batch"]
_STRINGS = ["DMSO", "Ctrl", "KRAS knockdown", "a_b", "x 1", "", "it's", 'say "hi"', "a\\b", "x\x00"]
_NUMBERS = ["0", "1", "10", "1000", "-5", "2.5", ".125", "1e3", "-2.5E-1"]
# binary operators from loosest to tightest, each with how many to chain
_LEVELS = [(["or"], [0, 0, 1]), (["and"], [0, 0, 1]), (["==", "!="], [0, 0, 0, 1, 1]),
           (["+", "-"], [0, 0, 1, 2]), (["*", "/"], [0, 0, 1])]
_LITERAL_NODES = {"str": dsl.StrLit, "num": dsl.NumLit, "bool": dsl.BoolLit}


def random_expr(rng: random.Random, depth: int = 6) -> tuple[str, dsl.Expr]:
    """Mapping-logic text and the tree ``dsl.parse`` must return for it."""
    return _gen_level(rng, depth, 0)


def _gen_level(rng, depth, level):
    if level == len(_LEVELS):
        return _gen_postfix(rng, depth)
    ops, chain = _LEVELS[level]
    text, tree = _gen_level(rng, depth, level + 1)
    for _ in range(rng.choice(chain) if depth > 1 else 0):
        op = rng.choice(ops)
        rhs_text, rhs_tree = _gen_level(rng, depth - 1, level + 1)
        space = rng.choice([" ", "  ", "\n"] if op.isalpha() else ["", " ", "\t"])
        text, tree = f"{text}{space}{op}{space}{rhs_text}", dsl.BinOp(op, tree, rhs_tree)
    return text, tree


def _gen_postfix(rng, depth):
    text, tree = _gen_atom(rng, depth)
    for _ in range(rng.choice([0, 0, 0, 1]) if depth > 0 else 0):
        if rng.random() < 0.6:
            target = rng.choice(dsl.CAST_TARGETS)
            text, tree = f"{text}.astype({target})", dsl.Cast(target, tree)
        else:
            kind = rng.choice(list(_LITERAL_NODES))
            items = [_gen_literal(rng, kind) for _ in range(rng.randint(1, 3))]
            item_text = ", ".join(item for item, _ in items)
            text, tree = f"{text}.isin([{item_text}])", dsl.IsIn(tree, tuple(v for _, v in items))
    return text, tree


def _gen_atom(rng, depth):
    kind = rng.choice(["column", *_LITERAL_NODES] + (["paren"] if depth > 1 else []))
    if kind == "column":
        name = rng.choice(_COLUMNS)
        return f"{rng.choice(['df', 'adata.obs'])}[{_quote(rng, name)}]", dsl.ColumnRef(name)
    if kind == "paren":
        text, tree = _gen_level(rng, depth - 1, 0)
        return f"({text})", tree
    text, value = _gen_literal(rng, kind)
    return text, _LITERAL_NODES[kind](value)


def _gen_literal(rng, kind):
    if kind == "str":
        value = rng.choice(_STRINGS)
        return _quote(rng, value), value
    if kind == "num":
        text = rng.choice(_NUMBERS)
        return text, float(text)
    value = rng.choice([True, False])
    return str(value), value


def _quote(rng, value):
    # a backslash escapes any character, and must escape the quote and itself
    quote = rng.choice("'\"")
    escape = lambda c: c in (quote, "\\") or rng.random() < 0.1  # noqa: E731
    return quote + "".join("\\" + c if escape(c) else c for c in value) + quote


# --------------------------------------------------------------------------
# dataset builders


def csr_from_dense(mask, dose) -> dict[str, np.ndarray]:
    """The ``CanonicalDataset`` perturbation arguments for a dense mask and dose.

    Raises ``ValueError`` on what CSR cannot hold: a mask value above 1, or
    a dose with any bit set (``-0.0`` included) under a 0 mask bit.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    dose = np.ascontiguousarray(dose, dtype=np.float64)
    if (mask > 1).any():
        raise ValueError("mask value above 1")
    if (dose.view(np.int64)[mask == 0] != 0).any():
        raise ValueError("dose set under a 0 mask bit")
    rows, cols = np.nonzero(mask)
    return {
        "pert_indptr": np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=1)))),
        "pert_indices": cols,
        "pert_values": dose[rows, cols],
    }


def obs_table(columns: dict[str, np.ndarray], n_cells: int | None = None) -> RawTable:
    """A ``RawTable`` of these obs columns and no genes, for ``dsl.evaluate``.

    ``n_cells`` defaults to the length of the first column.
    """
    if n_cells is None:
        n_cells = len(next(iter(columns.values())))
    return RawTable(obs=columns, var_index=np.array([], dtype=object), X=np.zeros((n_cells, 0)))


def dataset_from_fields(fields: dict) -> CanonicalDataset:
    """A ``CanonicalDataset`` from fields that hold dense ``pert_mask``/``pert_dose``."""
    fields = dict(fields)
    csr = csr_from_dense(fields.pop("pert_mask"), fields.pop("pert_dose"))
    return CanonicalDataset(**fields, **csr)


def small_canonical(
    conditions: dict[str, list[list[float]]],
    control_name: str = "control",
    vocab: tuple[str, ...] | None = None,
    doses: dict[str, float] | None = None,
) -> CanonicalDataset:
    """Build a canonical dataset from {condition: list of expression rows}.

    Conditions other than ``control_name`` get a one-hot mask over the vocab
    (default: sorted non-control condition names).
    """
    if vocab is None:
        vocab = tuple(sorted(c for c in conditions if c != control_name))
    rows, names, ctrl = [], [], []
    for cond in conditions:
        for row in conditions[cond]:
            rows.append(row)
            names.append(cond)
            ctrl.append(cond == control_name)
    n = len(rows)
    mask = np.zeros((n, len(vocab)), dtype=np.uint8)
    dose = np.zeros((n, len(vocab)))
    for i, cond in enumerate(names):
        if cond != control_name and cond in vocab:
            j = vocab.index(cond)
            mask[i, j] = 1
            if doses and cond in doses:
                dose[i, j] = doses[cond]
    g = len(rows[0])
    return CanonicalDataset(
        cell_type=np.array(["T0"] * n, dtype=object),
        batch_id=np.array(["b0"] * n, dtype=object),
        donor_id=np.array(["d0"] * n, dtype=object),
        pert_type=np.array(
            ["control" if c else "crispr" for c in ctrl], dtype=object
        ),
        is_control=np.array(ctrl, dtype=bool),
        condition_name=np.array(names, dtype=object),
        X=np.array(rows, dtype=np.float64),
        **csr_from_dense(mask, dose),
        ensembl_id=np.array([f"ENSG{j:011d}" for j in range(g)], dtype=object),
        gene_symbol=np.array([f"G{j}" for j in range(g)], dtype=object),
        pert_vocab=vocab,
    )


# --------------------------------------------------------------------------
# per-candidate surrogate reference (no state shared between candidates)


def huge_constant_shifts() -> CanonicalDataset:
    """Control rows of 0 and conditions A, B, C of 4 equal rows ``[v, 2v, v/2]``
    for v = 1e200, -1e200, 3e199: finite means whose squares overflow."""
    conditions = {"control": [[0.0, 0.0, 0.0]] * 4}
    for name, v in (("A", 1e200), ("B", -1e200), ("C", 3e199)):
        conditions[name] = [[v, 2 * v, 0.5 * v]] * 4
    return small_canonical(conditions)


def _winsorize(D: np.ndarray) -> np.ndarray:
    """One-pass per-gene clipping at 1.345 sigma: the robust-loss analog."""
    mu = D.mean(axis=0)
    sigma = D.std(axis=0)
    return np.clip(D, mu - _HUBER_C * sigma, mu + _HUBER_C * sigma)


def reference_loss_view(X: np.ndarray, stats, clip=None) -> _LossView:
    """``_loss_view`` as it was before it reused the block sum for the
    variance and clipped by maximum then minimum: ``np.clip`` and ``np.var``."""
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
    norms = np.linalg.norm(cond_means, axis=1)
    directions = cond_means / np.where(norms > 0, norms, 1.0)[:, None]
    return _LossView(
        sums=sums,
        cond_means=cond_means,
        cond_vars=cond_vars,
        grand=cond_means.mean(axis=0),
        var_between=cond_means.var(axis=0),
        var_within=cond_vars.mean(axis=0),
        mean_dir=directions.mean(axis=0),
        mean_norm=float(norms.mean()),
    )


def reference_surrogate_evaluate(ds, split, candidate) -> EvalOutcome:
    """What ``SurrogateEvaluator.evaluate`` must return, recomputed for each candidate."""
    train = split.indices("train")
    val = split.indices("val")
    sim_time = _FAMILY_COST[candidate.backbone] * (0.5 + ds.n_cells * ds.n_genes / 5e4)
    if candidate.hyperparams.learning_rate < 1e-2:
        sim_time *= 1.3
    if candidate.loss == "huber":
        sim_time *= 1.1
    if candidate.debug_fixed:
        sim_time *= 1.05

    train_ctrl = train[ds.is_control[train]]
    train_pert = train[~ds.is_control[train]]
    val_pert = val[~ds.is_control[val]]
    val_ctrl = val[ds.is_control[val]]
    if train_ctrl.size == 0 or train_pert.size == 0 or val_pert.size == 0:
        return EvalOutcome(
            m_val=None,
            t_exec=sim_time,
            error="degenerate split: train needs control and perturbed cells "
            "and val needs perturbed cells",
        )

    y_ctrl = ds.X[train_ctrl].mean(axis=0)
    y_ctrl_val = ds.X[val_ctrl].mean(axis=0) if val_ctrl.size else y_ctrl
    D = ds.X[train_pert] - y_ctrl
    if candidate.loss == "huber":
        D = _winsorize(D)
    train_conds = ds.condition_name[train_pert]
    cond_names = sorted(set(train_conds.tolist()))
    cond_means = np.vstack([D[train_conds == c].mean(axis=0) for c in cond_names])
    reg = candidate.hyperparams.reg_strength * (1.0 + candidate.hyperparams.dropout)
    predict = _reference_fit(ds, candidate.backbone, D, train_conds, cond_names, cond_means, reg)

    scores = []
    for cond, mean in pseudo_bulk(ds, val_pert).items():
        try:
            scores.append(delta_pcc(mean - y_ctrl_val, predict(cond)))
        except UndefinedMetric:
            continue
    if not scores:
        return EvalOutcome(m_val=None, t_exec=sim_time, error=None)
    return EvalOutcome(m_val=max(0.0, float(np.mean(scores))), t_exec=sim_time)


def reference_scored_m_val(ev, ds, split, candidate) -> float | None:
    """``ev``'s ``m_val`` for ``candidate``, scored the way ``evaluate`` did
    before it scored every val condition in one array pass: its own fit,
    then, for each val condition on its own, the truth side, the side of
    that condition's prediction and one ``pcc_of_sides`` call. ``delta_pcc``
    takes the same steps, so these are also the bits of one ``delta_pcc``
    call per condition. ``ev`` is built on ``ds`` and ``split``, which must
    not be degenerate."""
    stats, views = ev._prepared
    val = split.indices("val")
    val_ctrl = val[ds.is_control[val]]
    y_ctrl_val = ds.X[val_ctrl].mean(axis=0) if val_ctrl.size else stats.y_ctrl
    reg = candidate.hyperparams.reg_strength * (1.0 + candidate.hyperparams.dropout)
    predict = ev._fit_family(candidate.backbone, candidate.loss, reg, stats, views)
    scores = []
    for cond, mean in pseudo_bulk(ds, val[~ds.is_control[val]]).items():
        truth = pcc_side(mean - y_ctrl_val)
        try:
            scores.append(pcc_of_sides(truth, pcc_side(predict(cond))))
        except UndefinedMetric:
            continue
    return max(0.0, float(np.mean(scores))) if scores else None


def assert_outcome_close(out: EvalOutcome, expected: EvalOutcome, what: str = "") -> None:
    """``out`` equals ``expected`` except for a relative 1e-9 in ``m_val``."""
    assert (out.t_exec, out.error, out.t_ratio) == (
        expected.t_exec, expected.error, expected.t_ratio
    ), what
    if expected.m_val is None or out.m_val is None:
        assert out.m_val == expected.m_val, what
    else:
        assert math.isclose(out.m_val, expected.m_val, rel_tol=1e-9, abs_tol=0.0), (
            what, out.m_val, expected.m_val
        )


def _reference_fit(ds, backbone, D, train_conds, cond_names, cond_means, reg):
    index_of = {c: i for i, c in enumerate(cond_names)}
    grand = cond_means.mean(axis=0)
    if backbone in ("resnet", "pathway_masked"):
        m = len(cond_names)
        Z = np.zeros((D.shape[0], m + 1))
        for i, c in enumerate(train_conds.tolist()):
            Z[i, index_of[c]] = 1.0
        Z[:, m] = 1.0
        beta = np.linalg.solve(Z.T @ Z + reg * np.eye(m + 1), Z.T @ D)
        intercept = beta[m]
        if backbone == "pathway_masked":
            gene_mask = pathway_gene_mask(ds.ensembl_id)
            beta = beta * gene_mask[None, :]
            intercept = intercept * gene_mask
        return lambda c: beta[index_of[c]] + intercept if c in index_of else intercept
    if backbone == "gated_mlp":
        var_between = cond_means.var(axis=0)
        var_within = np.mean([D[train_conds == c].var(axis=0) for c in cond_names], axis=0)
        gate = var_between / (var_between + reg * var_within + 1e-12)
        return lambda c: gate * (cond_means[index_of[c]] if c in index_of else grand)
    if backbone == "conditional_vae":
        m = len(cond_names)
        spread = cond_means.var(axis=0)
        kappa = grand**2 / (grand**2 + spread / max(m, 1) + reg / max(m, 1) + 1e-12)
        return lambda c: (
            grand + kappa * (cond_means[index_of[c]] - grand) if c in index_of else kappa * grand
        )
    assert backbone == "flow_matching", backbone
    norms = np.linalg.norm(cond_means, axis=1)
    directions = cond_means / np.where(norms > 0, norms, 1.0)[:, None]
    fallback = directions.mean(axis=0) * float(norms.mean()) / (1.0 + reg)
    return lambda c: cond_means[index_of[c]] if c in index_of else fallback


# --------------------------------------------------------------------------
# harmonize references: the per-cell loops as they were before vectorization


def _reference_format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if "\t" in text or "\n" in text or "\r" in text:
        raise BundleFormatError(f"tsv cell value contains tab/newline: {text!r}")
    return text


def reference_tsv_text(columns: dict[str, np.ndarray]) -> str:
    """The text the bundle TSV writer produced cell by cell."""
    names = list(columns)
    n = len(next(iter(columns.values()))) if columns else 0
    lines = ["\t".join(names)]
    for i in range(n):
        lines.append("\t".join(_reference_format_cell(columns[name][i]) for name in names))
    return "\n".join(lines) + "\n"


def reference_pseudo_bulk(ds: CanonicalDataset, cells: np.ndarray) -> list[tuple]:
    """``pseudo_bulk`` as it was before it grouped by codes: one mask over
    ``cells`` per condition, conditions in sorted order. The mask compares
    with Python's ``==``; numpy's ``names == cond`` drops a trailing NUL of
    ``cond``."""
    names = ds.condition_name[cells].tolist()
    out = []
    for cond in sorted(set(names)):
        member = cells[np.array([name == cond for name in names], dtype=bool)]
        out.append((cond, ds.X[member].mean(axis=0)))
    return out


def reference_read_tsv(path) -> dict[str, list[str]]:
    """The bundle TSV reader that split each line and appended cell by cell."""
    try:
        lines = path.read_text().removesuffix("\n").split("\n")
    except FileNotFoundError:
        raise BundleFormatError(f"bundle file {path} is missing") from None
    if lines[0] == "":
        raise BundleFormatError(f"{path} is empty")
    names = lines[0].split("\t")
    columns: dict[str, list[str]] = {name: [] for name in names}
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "" and len(names) > 1:
            continue
        parts = line.split("\t")
        if len(parts) != len(names):
            raise BundleFormatError(
                f"{path}:{lineno} has {len(parts)} fields, expected {len(names)}"
            )
        for name, value in zip(names, parts):
            columns[name].append(value)
    return columns


def reference_str_compare(op, lhs, rhs) -> np.ndarray:
    """The DSL's string ``==``/``!=`` with a column, one Python comparison per cell."""
    lhs_list = lhs.tolist() if isinstance(lhs, np.ndarray) else None
    rhs_list = rhs.tolist() if isinstance(rhs, np.ndarray) else None
    n = len(lhs_list) if lhs_list is not None else len(rhs_list)
    out = np.empty(n, dtype=bool)
    for i in range(n):
        a = lhs_list[i] if lhs_list is not None else lhs
        b = rhs_list[i] if rhs_list is not None else rhs
        out[i] = a == b
    return out if op == "==" else ~out


def reference_normalize_log1p(X, target_sum, is_already_log1p, normalization_required):
    """Full-matrix checks, then row normalization and log1p through a boolean-indexed copy."""
    X = np.asarray(X, dtype=np.float64)
    for bad, what in ((X < 0, "negative"), (~np.isfinite(X), "non-finite")):
        cells = np.argwhere(bad)
        if cells.size:
            i, j = cells[0]
            raise ValidationError(f"{what} expression value {X[i, j]} at cell X[{i}, {j}]")
    if is_already_log1p:
        return X
    out = X.copy()
    if normalization_required:
        with np.errstate(over="ignore"):
            sums = out.sum(axis=1)
        overflowed = [i for i, total in enumerate(sums) if total == np.inf]
        if overflowed:
            raise ValidationError(
                f"expression row X[{overflowed[0]}] sums past the float64 range; "
                f"{len(overflowed)} row(s) cannot be normalized"
            )
        with np.errstate(over="ignore", divide="ignore"):
            scale = np.divide(target_sum, sums, out=np.zeros_like(sums), where=sums > 0)
        usable = (sums > 0) & np.isfinite(scale)
        out[usable] = out[usable] * scale[usable][:, None]
    return np.log1p(out)


def reference_perturbation_matrices(pert_values, is_control, dose_col, combo_delimiter):
    """Vocabulary, mask and dose built cell by cell, as ``apply_mapping`` did.

    ``pert_values`` or ``dose_col`` is None when the mapping leaves it absent.
    """
    n = len(is_control)
    vocab: list[str] = []
    if pert_values is not None:
        seen = set()
        for i in np.flatnonzero(~is_control):
            for part in str(pert_values[i]).split(combo_delimiter):
                part = part.strip()
                if part and part not in seen:
                    seen.add(part)
                    vocab.append(part)
        vocab.sort()
    index_of = {name: j for j, name in enumerate(vocab)}

    mask = np.zeros((n, len(vocab)), dtype=np.uint8)
    if pert_values is not None:
        for i in np.flatnonzero(~is_control):
            for part in str(pert_values[i]).split(combo_delimiter):
                part = part.strip()
                if part:
                    mask[i, index_of[part]] = 1

    dose = np.zeros((n, len(vocab)), dtype=np.float64)
    if dose_col is not None and vocab:
        rows = np.flatnonzero((~is_control) & (mask.sum(axis=1) > 0))
        for i in rows:
            dose[i, mask[i] == 1] = dose_col[i]
    return vocab, mask, dose


def reference_merge_fields(parts: list[CanonicalDataset]) -> tuple[dict, list[str]]:
    """Every field ``merge_datasets`` builds, by per-column and per-cell loops, plus warnings."""
    common = set(parts[0].ensembl_id.tolist())
    for part in parts[1:]:
        common &= set(part.ensembl_id.tolist())
    gene_order = [g for g in parts[0].ensembl_id.tolist() if g in common]

    warnings: list[str] = []
    symbol_for: dict[str, str] = {}
    for i, part in enumerate(parts):
        for eid, sym in zip(part.ensembl_id.tolist(), part.gene_symbol.tolist()):
            if eid not in common:
                continue
            if eid not in symbol_for:
                symbol_for[eid] = sym
            elif symbol_for[eid] != sym:
                warnings.append(
                    f"gene_symbol conflict for {eid!r}: keeping "
                    f"{symbol_for[eid]!r}, dataset_{i} says {sym!r}"
                )

    vocab: list[str] = []
    for part in parts:
        for name in part.pert_vocab:
            if name not in vocab:
                vocab.append(name)
    vocab_index = {name: j for j, name in enumerate(vocab)}

    x_blocks, mask_blocks, dose_blocks = [], [], []
    obs_concat: dict[str, list] = {k: [] for k in CANONICAL_OBS_KEYS}
    extra_keys = sorted({k for part in parts for k in part.extra_obs} - {"source_dataset"})
    extras: dict[str, list] = {k: [] for k in extra_keys}
    source: list[str] = []
    for i, part in enumerate(parts):
        col_of = {eid: j for j, eid in enumerate(part.ensembl_id.tolist())}
        x_blocks.append(part.X[:, [col_of[g] for g in gene_order]])
        mask = np.zeros((part.n_cells, len(vocab)), dtype=np.uint8)
        dose = np.zeros((part.n_cells, len(vocab)), dtype=np.float64)
        for j, name in enumerate(part.pert_vocab):
            mask[:, vocab_index[name]] = part.pert_mask[:, j]
            dose[:, vocab_index[name]] = part.pert_dose[:, j]
        mask_blocks.append(mask)
        dose_blocks.append(dose)
        for k in CANONICAL_OBS_KEYS:
            obs_concat[k].extend(getattr(part, k).tolist())
        for k in extra_keys:
            values = part.extra_obs.get(k)
            extras[k].extend(
                values.tolist() if values is not None else ["unknown"] * part.n_cells
            )
        source.extend([f"dataset_{i}"] * part.n_cells)

    mask_all = np.vstack(mask_blocks)
    dose_all = np.vstack(dose_blocks)
    condition = np.array(obs_concat["condition_name"], dtype=object)
    pattern_name: dict[bytes, str] = {}
    renamed = 0
    for i in range(mask_all.shape[0]):
        key = mask_all[i].tobytes() + dose_all[i].tobytes()
        if key not in pattern_name:
            pattern_name[key] = condition[i]
        elif condition[i] != pattern_name[key]:
            renamed += 1
            condition[i] = pattern_name[key]
    if renamed:
        warnings.append(
            f"renamed condition_name on {renamed} cells to match the first-seen "
            f"name of their mask/dose pattern"
        )
    fields = {k: np.array(v, dtype=object) for k, v in obs_concat.items()}
    fields["is_control"] = np.array(obs_concat["is_control"], dtype=bool)
    fields["condition_name"] = condition
    extra_obs = {k: np.array(v, dtype=object) for k, v in extras.items()}
    extra_obs["source_dataset"] = np.array(source, dtype=object)
    fields.update(
        X=np.vstack(x_blocks),
        pert_mask=mask_all,
        pert_dose=dose_all,
        ensembl_id=np.array(gene_order, dtype=object),
        gene_symbol=np.array([symbol_for[g] for g in gene_order], dtype=object),
        pert_vocab=tuple(vocab),
        extra_obs=extra_obs,
    )
    return fields, warnings


def reference_first_pattern_rows(indptr, indices, values) -> np.ndarray:
    """Each CSR row's first row with the same (column, dose bytes) entries, one dict per row."""
    pairs = np.rec.fromarrays([indices, values], dtype=[("j", "<i8"), ("v", "<f8")])
    keys = pairs.tobytes()
    bounds = (np.asarray(indptr) * pairs.itemsize).tolist()
    first: dict[bytes, int] = {}
    return np.array(
        [first.setdefault(keys[a:b], i) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))],
        dtype=np.intp,
    )


def reference_validation_issues(ds: CanonicalDataset) -> list[ValidationIssue]:
    """``validate_canonical`` with full ``argwhere`` scans and a per-cell pattern loop.

    It predates the ``non_finite`` check, so compare against the new report
    with those issues left out.
    """
    issues: list[ValidationIssue] = []
    seen: dict[str, int] = {}
    for j, eid in enumerate(ds.ensembl_id.tolist()):
        if eid in seen:
            issues.append(
                ValidationIssue(
                    "duplicate_ensembl_id",
                    f"ensembl_id {eid!r} appears at gene rows {seen[eid]} and {j}",
                )
            )
        else:
            seen[eid] = j
    bad_mask = np.argwhere((ds.pert_mask != 0) & (ds.pert_mask != 1))
    if bad_mask.size:
        i, j = bad_mask[0]
        issues.append(
            ValidationIssue(
                "mask_not_binary",
                f"pert_mask[{i}, {j}] = {ds.pert_mask[i, j]} is not in {{0, 1}} "
                f"({len(bad_mask)} offending entries)",
            )
        )
    neg_dose = np.argwhere(ds.pert_dose < 0)
    if neg_dose.size:
        i, j = neg_dose[0]
        issues.append(
            ValidationIssue(
                "negative_dose",
                f"pert_dose[{i}, {j}] = {ds.pert_dose[i, j]} is negative "
                f"({len(neg_dose)} offending entries)",
            )
        )
    stray = (ds.pert_mask == 0) & (ds.pert_dose != 0)
    for i in np.flatnonzero(stray.any(axis=1)):
        j = int(np.flatnonzero(stray[i])[0])
        issues.append(
            ValidationIssue(
                "dose_without_mask",
                f"cell {i} has nonzero pert_dose[{i}, {j}] where pert_mask is 0",
            )
        )
    ctrl_nonzero = ds.is_control & (ds.pert_mask.sum(axis=1) > 0)
    for i in np.flatnonzero(ctrl_nonzero):
        issues.append(
            ValidationIssue("control_with_mask", f"control cell {i} has a nonzero pert_mask row")
        )
    neg_x = np.argwhere(ds.X < 0)
    if neg_x.size:
        i, j = neg_x[0]
        issues.append(
            ValidationIssue(
                "negative_expression",
                f"X[{i}, {j}] = {ds.X[i, j]} is negative ({len(neg_x)} entries)",
            )
        )
    bad_types = sorted(set(ds.pert_type.tolist()) - set(PERT_TYPES))
    if bad_types:
        issues.append(
            ValidationIssue(
                "unknown_pert_type",
                f"pert_type values {bad_types} not in {list(PERT_TYPES)}",
            )
        )
    pattern_names: dict[bytes, tuple[str, int]] = {}
    reported: set[bytes] = set()
    for i in range(ds.n_cells):
        key = ds.pert_mask[i].tobytes() + ds.pert_dose[i].tobytes()
        name = ds.condition_name[i]
        if key not in pattern_names:
            pattern_names[key] = (name, i)
        elif pattern_names[key][0] != name and key not in reported:
            first_name, first_row = pattern_names[key]
            issues.append(
                ValidationIssue(
                    "condition_name_conflict",
                    f"cells {first_row} and {i} share one mask/dose pattern but have "
                    f"condition names {first_name!r} and {name!r}",
                )
            )
            reported.add(key)
    return issues


# --------------------------------------------------------------------------
# knowledge-base references: one text and one entry at a time


def reference_embed(text: str) -> np.ndarray:
    vec = np.zeros(256, dtype=np.float64)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.sha256(token.encode()).digest()
        vec[int.from_bytes(digest[:8], "big") % 256] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def reference_retrieve(query_text, entries, params) -> RetrievalResult:
    query = reference_embed(query_text)
    sims = [float(np.clip(np.dot(query, reference_embed(e.profile_text)), -1.0, 1.0))
            for e in entries]
    rho = max(sims)
    survivors = [(e, s) for e, s in zip(entries, sims) if s > params.tau_filter]
    if rho <= params.tau or not survivors:
        return RetrievalResult(rho=rho, mode="ab_initio", ranked=(), epsilon0=None)
    rewards = [e.reward for e, _ in survivors]
    r_min, r_max = min(rewards), max(rewards)
    weighted = [
        (e, s, composite_weight(s, e.reward, r_min, r_max, params.tau_filter,
                                params.alpha_retrieval))
        for e, s in survivors
    ]
    weighted.sort(key=lambda item: (-item[2], -item[0].created_at))
    ranked = tuple(weighted[: params.m])
    return RetrievalResult(rho=rho, mode="warm_start", ranked=ranked,
                           epsilon0=ranked[0][0].action_path)


# --------------------------------------------------------------------------
# exhaustive search-optimality oracle


def builtin_landscape(name: str) -> LandscapeEvaluator:
    """The landscape evaluator over a table shipped with the package."""
    return LandscapeEvaluator.from_file(builtin_landscape_path(name))


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


def mapping_rss_kb(a: np.ndarray) -> int:
    """The resident kB of the mapping that holds ``a``'s first byte."""
    address = a.ctypes.data
    inside = False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        field = line.split()[0]
        if not field.endswith(":"):  # a mapping's "start-end perms ..." line
            start, end = (int(x, 16) for x in field.split("-"))
            inside = start <= address < end
        elif inside and field == "Rss:":
            return int(line.split()[1])
    raise AssertionError("no mapping holds the array")
