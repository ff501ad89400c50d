"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and asserting its runtime budget. Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines."""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import builtin_landscape, exhaustive_best, oracle_condition_metrics, random_expr
from pertpipe import dsl
from pertpipe.actions import materialize
from pertpipe.bundle import bundle_digest
from pertpipe.data import split_unseen_perturbation, validate_canonical
from pertpipe.evaluators import (
    SurrogateEvaluator,
    SyntheticConfig,
    generate_synthetic,
)
from pertpipe.knowledge import (
    RetrievalParams,
    composite_weight,
    make_entry,
    retrieve,
)
from pertpipe.llm import LlmClient
from pertpipe.metrics import evaluate_predictions
from pertpipe.search import (
    EvalOutcome,
    Node,
    SearchConfig,
    reward,
    run_search,
    time_decay,
    uct_score,
)
from pertpipe.unifier import MappingSpec, apply_mapping, induce_mapping, preview_schema


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_01_time_decay_exactness():
    with criterion(1, "time-decay table and continuity", 1.0):
        table = {
            0.0: 1.0, 0.5: 1.0, 0.8: 1.0, 0.9: 0.9, 1.0: 0.8,
            1.25: 0.65, 1.5: 0.5, 2.25: 0.25, 3.0: 0.0, 4.0: 0.0,
        }
        for t, expected in table.items():
            assert abs(time_decay(t) - expected) < 1e-12, t
        for b in (0.8, 1.0, 1.5, 3.0):
            left = time_decay(b - 1e-13)
            right = time_decay(b + 1e-13)
            assert abs(left - time_decay(b)) < 1e-12
            assert abs(right - time_decay(b)) < 1e-12
        grid = np.linspace(0.0, 5.0, 2001)
        values = [time_decay(float(t)) for t in grid]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_02_selection_and_reward_formulas():
    with criterion(2, "selection score and reward formulas", 1.0):
        config = SearchConfig()  # C=1.0, alpha_qmix=0.7, w_p=0.8, w_e=0.2
        parent = Node(None, 0, ())
        parent.n_visits = 10
        child = Node("paradigm:discriminative", 1, ("paradigm:discriminative",))
        child.n_visits = 2
        child.q_sum = 0.8  # mean 0.4
        child.q_max = 0.6
        got = uct_score(parent, child, config)
        # independent closed-form evaluation of the selection formula:
        # 0.54 + sqrt(ln 10 / 2.000001) = 1.6129827...
        expected = (0.7 * 0.6 + 0.3 * 0.4) + 1.0 * math.sqrt(
            math.log(10) / (2 + 1e-6)
        )
        assert abs(got - expected) < 1e-12
        assert abs(got - 1.6129827) < 1e-5

        r = reward(EvalOutcome(m_val=0.5, t_exec=1.0, t_ratio=1.0), config)
        assert abs(r - 0.56) < 1e-12
        r_failed = reward(
            EvalOutcome(m_val=None, t_exec=1.0, error="x", t_ratio=0.5), config
        )
        assert abs(r_failed - 0.2) < 1e-12
        r_max = reward(EvalOutcome(m_val=1.0, t_exec=1.0, t_ratio=0.5), config)
        assert abs(r_max - 1.0) < 1e-12


def test_03_metrics_oracle_equivalence():
    with criterion(3, "metrics vs naive-loop oracle", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            g = int(rng.integers(3, 51))
            n_cond = int(rng.integers(1, 11))
            y_ctrl = rng.uniform(0, 3, g)
            truth, preds = {"control": y_ctrl}, {}
            for c in range(n_cond):
                truth[f"c{c}"] = rng.uniform(0, 3, g)
                preds[f"c{c}"] = rng.uniform(0, 3, g)
            report = evaluate_predictions(truth, preds, "control")
            for cond, y_p in preds.items():
                expected = oracle_condition_metrics(
                    truth[cond].tolist(), y_p.tolist(), y_ctrl.tolist()
                )
                got = report["per_condition"][cond]
                for key, ref in expected.items():
                    if ref is None:
                        assert got[key] is None
                    else:
                        assert abs(got[key] - ref) < 1e-9
        # fixed hand-derived triple: y=[1,2,3] vs yhat=[1,1,3], control at zero
        from pertpipe.metrics import cos_logfc, delta_pcc, rmse

        assert abs(rmse([1, 2, 3], [1, 1, 3]) - 0.57735) < 1e-5
        assert abs(delta_pcc([1, 2, 3], [1, 1, 3]) - 0.86603) < 1e-5
        assert abs(cos_logfc([1, 2, 3], [1, 1, 3]) - 0.96698) < 1e-5


def test_04_search_optimality_vs_exhaustive():
    with criterion(4, "search optimality vs exhaustive oracle", 60.0):
        ev = builtin_landscape("funnel")
        best_key = exhaustive_best(ev, seed=0).best_candidate.key()
        hits = sum(
            1
            for seed in range(100)
            if run_search(SearchConfig(n_sim=32, seed=seed), ev).best_candidate.key()
            == best_key
        )
        assert hits >= 95, f"only {hits}/100 zero-jitter runs found the optimum"

        ev_j = builtin_landscape("funnel_jitter")
        config = SearchConfig(n_sim=64, seed=0)
        close = 0
        for seed in range(100):
            table_best = exhaustive_best(ev_j, seed=seed).best_m_val
            # reward-scale reference: uniform landscape time ratio is 1.0
            best_possible = config.w_p * table_best + config.w_e * time_decay(1.0)
            result = run_search(SearchConfig(n_sim=64, seed=seed), ev_j)
            if result.best_reward >= best_possible - 0.02:
                close += 1
        assert close >= 90, f"only {close}/100 jittered runs got within 0.02"


def test_05_hierarchy_freeze_property():
    with criterion(5, "hierarchy freeze over 1000 runs", 60.0):
        ev = builtin_landscape("funnel")
        structural = ("paradigm", "backbone")
        for seed in range(1000):
            result = run_search(SearchConfig(n_sim=16, seed=seed), ev)
            for rec in result.trajectory:
                seen_refinement = False
                for action in rec["path"]:
                    kind = action.split(":")[0]
                    if kind in ("hyperparam", "loss"):
                        seen_refinement = True
                    elif kind in structural and seen_refinement:
                        raise AssertionError(
                            f"seed {seed}: structural action after refinement "
                            f"in {rec['path']}"
                        )


def test_06_warm_start_gating():
    with criterion(6, "warm-start vs ab-initio gating", 10.0):
        ev = builtin_landscape("funnel")
        stored_path = ("paradigm:generative", "backbone:conditional_vae")
        profile = "drug response 48 cells 40 genes"
        entries = [make_entry(profile, stored_path, 0.8, created_at=1.0)]
        result = retrieve(profile, entries, RetrievalParams(tau=0.5))
        assert result.mode == "warm_start" and result.rho > 0.5
        for seed in range(100):
            search = run_search(
                SearchConfig(n_sim=4, seed=seed), ev, retrieval=result
            )
            assert search.trajectory[0]["path"][: len(stored_path)] == list(stored_path)

        # a far-away query: every similarity at or below the filter threshold
        unrelated = retrieve(
            "zzz completely unrelated qqq tokens xxx", entries, RetrievalParams(tau=0.5)
        )
        assert unrelated.rho <= 0.3
        assert unrelated.mode == "ab_initio"
        for seed in range(100):
            search = run_search(SearchConfig(n_sim=2, seed=seed), ev, retrieval=unrelated)
            first = {rec["path"][0] for rec in search.trajectory}
            assert first == {"paradigm:discriminative", "paradigm:generative"}


def test_07_unifier_fidelity(tmp_path, drug_raw_table, flat_form_mapping):
    with criterion(7, "unifier fidelity and replay determinism", 5.0):
        spec = MappingSpec.from_dict(flat_form_mapping)
        ds = apply_mapping(drug_raw_table, spec)
        dmso = drug_raw_table.obs["drug_id"] == "DMSO"
        assert np.array_equal(ds.is_control, dmso)
        col = ds.pert_vocab.index("drugA")
        for i in np.flatnonzero(drug_raw_table.obs["drug_id"] == "drugA"):
            assert ds.pert_dose[i, col] == 10000.0  # 10 uM -> 10000 nM
        assert validate_canonical(ds).ok

        nested = {
            "uscp_mapping": {
                "obs": {
                    "cell_type": "cell_type_annotation",
                    "batch_id": "None",
                    "donor_id": "cell_type_annotation",
                    "pert_type": "drug",
                    "is_control_logic": "adata.obs['drug_id'] == 'DMSO'",
                    "condition_name_logic": "adata.obs['drug_id'].astype(str)",
                },
                "obsm": {"pert_mask_source": "drug_id", "pert_dose_source": "None"},
                "var": {"index_type": "Ensembl ID", "gene_symbol_col": "symbol"},
                "numerical": {
                    "is_already_log1p": False,
                    "normalization_required": True,
                    "target_sum": 10000.0,
                },
            },
        }
        response = "```json\n" + json.dumps(nested) + "\n```"
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps([response]))

        from pertpipe.bundle import write_canonical_bundle

        digests = []
        preview = preview_schema(drug_raw_table, 8)
        for i in range(3):
            spec_i = induce_mapping(preview, LlmClient.replay(replay))
            ds_i = apply_mapping(drug_raw_table, spec_i)
            out = tmp_path / f"canon{i}"
            write_canonical_bundle(ds_i, out)
            digests.append(bundle_digest(out))
        assert len(set(digests)) == 1


def test_08_dsl_parse_fidelity_and_rejection():
    with criterion(8, "expression parse fidelity and rejection", 5.0):
        from test_dsl import NEGATIVE_CORPUS, REFERENCE_EXPRESSIONS

        for text, tree in REFERENCE_EXPRESSIONS.items():
            assert dsl.parse(text) == tree

        rng = random.Random(777)
        for _ in range(1000):
            text, tree = random_expr(rng, depth=6)
            assert dsl.parse(text) == tree, text

        assert len(NEGATIVE_CORPUS) == 20
        for bad in NEGATIVE_CORPUS:
            with pytest.raises(dsl.UnsupportedConstructError) as err:
                dsl.parse(bad)
            assert "unsupported construct" in str(err.value)


def test_09_end_to_end_synthetic_pipeline():
    with criterion(9, "synthetic pipeline search near exhaustive", 120.0):
        for seed in range(10):
            cfg = SyntheticConfig(
                n_genes=60, n_perts=8, cells_per_condition=12,
                noise_sigma=0.4, effect_sparsity=0.3, seed=seed,
            )
            ds, _ = generate_synthetic(cfg)
            split = split_unseen_perturbation(ds, 0.8, seed=seed)
            ev = SurrogateEvaluator(ds, split)
            ex = exhaustive_best(ev, seed=seed)
            result = run_search(SearchConfig(n_sim=32, seed=seed), ev)
            assert result.found_valid
            assert result.best_m_val >= 0.9 * ex.best_m_val, (
                f"seed {seed}: {result.best_m_val} < 0.9 * {ex.best_m_val}"
            )


def test_10_hierarchical_vs_flat_ablation():
    with criterion(10, "hierarchical beats flat on ablation fixture", 60.0):
        ev = builtin_landscape("ablation")
        best_key = exhaustive_best(ev, seed=0).best_candidate.key()
        n_sim = 60

        def iterations_to_optimum(mode: str, seed: int) -> int:
            result = run_search(SearchConfig(n_sim=n_sim, seed=seed, mode=mode), ev)
            for rec in result.trajectory:
                if materialize(tuple(rec["path"])).key() == best_key:
                    return rec["iter"]
            return n_sim + 1

        wins = 0
        for seed in range(10):
            h = iterations_to_optimum("hierarchical", seed)
            f = iterations_to_optimum("flat_ablation", seed)
            if h <= f:
                wins += 1
        assert wins >= 8, f"hierarchical no slower in only {wins}/10 seeds"


def test_11_retrieval_formula_exactness():
    with criterion(11, "retrieval weight formula and monotonicity", 5.0):
        w1 = composite_weight(0.65, 0.6, 0.6, 0.9, tau_filter=0.3, alpha_retrieval=0.5)
        assert abs(w1 - 0.25) < 1e-9
        w2 = composite_weight(0.5, 0.9, 0.6, 0.9, tau_filter=0.3, alpha_retrieval=0.5)
        assert abs(w2 - 0.6428571428571428) < 1e-9
        w3 = composite_weight(1.0, 0.42, 0.42, 0.42, tau_filter=0.3, alpha_retrieval=0.5)
        assert abs(w3 - 1.0) < 1e-9

        rng = np.random.default_rng(55)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            sims = rng.uniform(0.31, 1.0, n)
            rewards = rng.uniform(0.0, 1.0, n)
            r_min, r_max = float(rewards.min()), float(rewards.max())
            weights = [
                composite_weight(s, r, r_min, r_max) for s, r in zip(sims, rewards)
            ]
            order = sorted(range(n), key=lambda i: -weights[i])
            target = int(rng.integers(0, n))
            bumped = float(min(r_max, rewards[target] + rng.uniform(0, 0.3)))
            weights2 = list(weights)
            weights2[target] = composite_weight(sims[target], bumped, r_min, r_max)
            order2 = sorted(range(n), key=lambda i: -weights2[i])
            assert order2.index(target) <= order.index(target)
