"""Shared test helpers: independent oracles and fixture builders.

The metric oracle here is a deliberately naive pure-Python reimplementation
(no shared code with the package) used to cross-check the vectorized
implementations. The expression generator draws ASTs from the grammar's
derivation space, so every generated tree is reachable by the parser. The
surrogate reference recomputes everything per candidate, the way the
evaluator did before it cached candidate-invariant statistics.
"""

from __future__ import annotations

import math
import random

import numpy as np

from pertpipe import dsl
from pertpipe.data import CanonicalDataset, pseudo_bulk
from pertpipe.evaluators import _FAMILY_COST, _winsorize, pathway_gene_mask
from pertpipe.metrics import UndefinedMetric, delta_pcc
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
_STRINGS = ["DMSO", "Ctrl", "KRAS knockdown", "a_b", "x 1", ""]


def random_expr(rng: random.Random, depth: int = 6) -> dsl.Expr:
    return _gen_or(rng, depth)


def _gen_or(rng, depth):
    node = _gen_and(rng, depth)
    for _ in range(rng.choice([0, 0, 1]) if depth > 1 else 0):
        node = dsl.BinOp("or", node, _gen_and(rng, depth - 1))
    return node


def _gen_and(rng, depth):
    node = _gen_cmp(rng, depth)
    for _ in range(rng.choice([0, 0, 1]) if depth > 1 else 0):
        node = dsl.BinOp("and", node, _gen_cmp(rng, depth - 1))
    return node


def _gen_cmp(rng, depth):
    node = _gen_sum(rng, depth)
    if depth > 1 and rng.random() < 0.4:
        node = dsl.BinOp(rng.choice(["==", "!="]), node, _gen_sum(rng, depth - 1))
    return node


def _gen_sum(rng, depth):
    node = _gen_term(rng, depth)
    for _ in range(rng.choice([0, 0, 1, 2]) if depth > 1 else 0):
        node = dsl.BinOp(rng.choice(["+", "-"]), node, _gen_term(rng, depth - 1))
    return node


def _gen_term(rng, depth):
    node = _gen_postfix(rng, depth)
    for _ in range(rng.choice([0, 0, 1]) if depth > 1 else 0):
        node = dsl.BinOp(rng.choice(["*", "/"]), node, _gen_postfix(rng, depth - 1))
    return node


def _gen_postfix(rng, depth):
    node = _gen_atom(rng, depth)
    for _ in range(rng.choice([0, 0, 0, 1]) if depth > 0 else 0):
        if rng.random() < 0.6:
            node = dsl.Cast(rng.choice(["float", "str"]), node)
        else:
            node = dsl.IsIn(node, _gen_list(rng))
    return node


def _gen_list(rng):
    kind = rng.choice(["str", "num", "bool"])
    n = rng.randint(1, 3)
    if kind == "str":
        items = tuple(rng.choice(_STRINGS) for _ in range(n))
    elif kind == "num":
        items = tuple(float(rng.randint(-50, 1000)) for _ in range(n))
    else:
        items = tuple(rng.choice([True, False]) for _ in range(n))
    return dsl.ListLit(items)


def _gen_atom(rng, depth):
    choices = ["column", "str", "num", "bool"]
    if depth > 1:
        choices.append("paren")
    kind = rng.choice(choices)
    if kind == "column":
        return dsl.ColumnRef(rng.choice(_COLUMNS))
    if kind == "str":
        return dsl.StrLit(rng.choice(_STRINGS))
    if kind == "num":
        return dsl.NumLit(float(rng.choice([0, 1, 10, 1000, -5, 2.5, 0.125])))
    if kind == "bool":
        return dsl.BoolLit(rng.choice([True, False]))
    return dsl.Paren(_gen_or(rng, depth - 1))


# --------------------------------------------------------------------------
# dataset builders


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
        pert_mask=mask,
        pert_dose=dose,
        ensembl_id=np.array([f"ENSG{j:011d}" for j in range(g)], dtype=object),
        gene_symbol=np.array([f"G{j}" for j in range(g)], dtype=object),
        pert_vocab=vocab,
    )


# --------------------------------------------------------------------------
# per-candidate surrogate reference (no state shared between candidates)


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
    for profile in pseudo_bulk(ds, val_pert):
        true_delta = profile.mean_expr - y_ctrl_val
        try:
            scores.append(delta_pcc(true_delta, predict(profile.condition_name)))
        except UndefinedMetric:
            continue
    if not scores:
        return EvalOutcome(m_val=None, t_exec=sim_time, error=None)
    return EvalOutcome(m_val=max(0.0, float(np.mean(scores))), t_exec=sim_time)


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
