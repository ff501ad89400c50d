from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from pertpipe.actions import Candidate, HYPERPARAM_GRID, enumerate_candidates
from helpers import assert_outcome_close, csr_from_dense, reference_surrogate_evaluate
from pertpipe.data import (
    SplitAssignment,
    pseudo_bulk,
    split_unseen_cell,
    split_unseen_perturbation,
    validate_canonical,
)
from pertpipe.errors import ParameterError
from pertpipe.evaluators import (
    FailureInjectingEvaluator,
    LandscapeEvaluator,
    SurrogateEvaluator,
    SyntheticConfig,
    builtin_landscape_path,
    exhaustive_best,
    generate_synthetic,
    pathway_gene_mask,
)
from pertpipe.metrics import evaluate_predictions
from pertpipe.search import SearchConfig, run_search

H0 = HYPERPARAM_GRID[0]
RIDGE_FAMILIES = ("resnet", "gated_mlp", "pathway_masked")


def _ridge(backbone, loss="mse", point=H0):
    return Candidate("discriminative", backbone, point, loss)


class TestGenerateSynthetic:
    def test_deterministic_given_seed(self):
        cfg = SyntheticConfig(30, 4, 5, 0.3, 0.25, seed=9)
        a, truth_a = generate_synthetic(cfg)
        b, truth_b = generate_synthetic(cfg)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(truth_a.effects, truth_b.effects)
        assert a.condition_name.tolist() == b.condition_name.tolist()

    def test_noiseless_pseudobulk_delta_equals_effects(self):
        cfg = SyntheticConfig(40, 5, 6, 0.0, 0.3, seed=2)
        ds, truth = generate_synthetic(cfg)
        linear = truth.linear_X
        ctrl = linear[ds.is_control].mean(axis=0)
        for i, name in enumerate(truth.pert_names):
            delta = linear[ds.condition_name == name].mean(axis=0) - ctrl
            assert np.allclose(delta, truth.effects[i], atol=1e-12)

    def test_effect_support_size_is_ceil_of_sparsity(self):
        cfg = SyntheticConfig(50, 3, 4, 0.1, 0.17, seed=5)
        _, truth = generate_synthetic(cfg)
        expected = math.ceil(0.17 * 50)
        assert len(truth.support) == expected
        for row in truth.effects:
            assert int(np.sum(row != 0)) == expected

    def test_zero_sparsity_means_no_effects(self):
        cfg = SyntheticConfig(30, 3, 4, 0.0, 0.0, seed=1)
        ds, truth = generate_synthetic(cfg)
        assert truth.effects.sum() == 0.0
        profiles = {p.condition_name: p for p in pseudo_bulk(ds)}
        control = profiles["control"]
        report = evaluate_predictions(
            [profiles[n] for n in truth.pert_names] + [control],
            [profiles[n] for n in truth.pert_names],
            control,
        )
        assert set(report.skipped["delta_pcc"]) == set(truth.pert_names)

    def test_support_lies_inside_pathway_mask(self):
        cfg = SyntheticConfig(80, 4, 4, 0.2, 0.1, seed=3)
        ds, truth = generate_synthetic(cfg)
        mask = pathway_gene_mask(ds.ensembl_id)
        assert np.all(mask[truth.support])

    def test_output_is_canonical(self):
        ds, _ = generate_synthetic(SyntheticConfig(25, 3, 4, 0.5, 0.3, seed=8))
        assert validate_canonical(ds).ok

    def test_truth_against_itself_scores_perfectly(self):
        ds, truth = generate_synthetic(SyntheticConfig(30, 4, 5, 0.0, 0.3, seed=4))
        profiles = {p.condition_name: p for p in pseudo_bulk(ds)}
        control = profiles["control"]
        truth_profiles = [profiles[n] for n in truth.pert_names]
        report = evaluate_predictions(
            truth_profiles + [control], truth_profiles, control
        )
        assert report.aggregate["rmse"] == 0.0
        assert abs(report.aggregate["delta_pcc"] - 1.0) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SyntheticConfig(0, 3, 4, 0.1, 0.3, seed=1)
        with pytest.raises(ParameterError):
            SyntheticConfig(10, 3, 4, 0.1, 1.5, seed=1)


@pytest.fixture(scope="module")
def noiseless_bundle():
    ds, truth = generate_synthetic(SyntheticConfig(60, 8, 10, 0.0, 0.3, seed=7))
    split = split_unseen_perturbation(ds, 0.8, seed=3)
    return ds, split, truth


@pytest.fixture(scope="module")
def noisy_bundle():
    ds, truth = generate_synthetic(SyntheticConfig(60, 8, 12, 0.4, 0.3, seed=1))
    split = split_unseen_perturbation(ds, 0.8, seed=1)
    return ds, split, truth


class TestSurrogateEvaluator:
    def test_noiseless_ridge_families_near_perfect(self, noiseless_bundle):
        ds, split, _ = noiseless_bundle
        ev = SurrogateEvaluator(ds, split)
        for backbone in RIDGE_FAMILIES:
            out = ev.evaluate(_ridge(backbone), seed=0)
            assert out.ok
            assert out.m_val >= 0.99, backbone

    def test_pathway_masked_beats_unmasked_at_high_noise(self):
        # effects supported only on the pathway mask, heavy noise
        for seed in range(5):
            cfg = SyntheticConfig(90, 12, 20, 0.8, 0.1, seed=seed)
            ds, _ = generate_synthetic(cfg)
            split = split_unseen_perturbation(ds, 0.8, seed=2)
            ev = SurrogateEvaluator(ds, split)
            masked = ev.evaluate(_ridge("pathway_masked"), seed=0).m_val
            plain = ev.evaluate(_ridge("resnet"), seed=0).m_val
            assert masked > plain, f"seed {seed}: {masked} vs {plain}"

    def test_degenerate_split_fails_cleanly(self, noiseless_bundle):
        ds, _, _ = noiseless_bundle
        labels = np.array(["train"] * ds.n_cells, dtype=object)
        labels[~ds.is_control] = "train"
        labels[ds.is_control] = "val"  # train has no control cells
        split = SplitAssignment(labels=labels, split_kind="unseen_perturbation", seed=0)
        out = SurrogateEvaluator(ds, split).evaluate(_ridge("resnet"), seed=0)
        assert not out.ok
        assert "degenerate split" in out.error

    @pytest.mark.parametrize(
        "part,control,cells",
        [
            ("train", True, "train control"),
            ("train", False, "perturbed train"),
            ("val", True, "val"),
            ("val", False, "val"),
        ],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_fails_every_candidate(self, noisy_bundle, part, control, cells, bad):
        ds, split, _ = noisy_bundle
        X = ds.X.copy()
        X[np.flatnonzero((split.labels == part) & (ds.is_control == control))[0], 3] = bad
        ev = SurrogateEvaluator(replace(ds, X=X), split)
        for candidate in EVERY_CANDIDATE:
            out = ev.evaluate(candidate, 0)
            assert out.m_val is None, candidate.key()
            assert out.error == f"non-finite input: X holds NaN or inf in the {cells} cells"
        # a cell outside train and val is never read
        X = ds.X.copy()
        X[np.flatnonzero(split.labels == "test")[0], 3] = bad
        assert SurrogateEvaluator(replace(ds, X=X), split).evaluate(_ridge("resnet"), 0).ok

    def test_purity_identical_outcomes(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        ev = SurrogateEvaluator(ds, split)
        for candidate in (
            _ridge("resnet"),
            _ridge("gated_mlp", loss="huber", point=HYPERPARAM_GRID[2]),
            Candidate("generative", "flow_matching", HYPERPARAM_GRID[1], "mse"),
        ):
            assert ev.evaluate(candidate, 5) == ev.evaluate(candidate, 5)

    def test_gene_permutation_invariance(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        rng = np.random.default_rng(99)
        perm = rng.permutation(ds.n_genes)
        shuffled = replace(
            ds,
            X=ds.X[:, perm],
            ensembl_id=ds.ensembl_id[perm],
            gene_symbol=ds.gene_symbol[perm],
        )
        ev_a = SurrogateEvaluator(ds, split)
        ev_b = SurrogateEvaluator(shuffled, split)
        for paradigm, backbone in (
            ("discriminative", "resnet"),
            ("discriminative", "gated_mlp"),
            ("discriminative", "pathway_masked"),
            ("generative", "conditional_vae"),
            ("generative", "flow_matching"),
        ):
            c = Candidate(paradigm, backbone, H0, "huber")
            a = ev_a.evaluate(c, 0).m_val
            b = ev_b.evaluate(c, 0).m_val
            assert abs(a - b) < 1e-9, backbone

    def test_simulated_time_depends_on_family_and_params(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        ev = SurrogateEvaluator(ds, split)
        t_resnet = ev.evaluate(_ridge("resnet"), 0).t_exec
        t_flow = ev.evaluate(
            Candidate("generative", "flow_matching", H0, "mse"), 0
        ).t_exec
        assert t_flow > t_resnet
        slow_lr = ev.evaluate(_ridge("resnet", point=HYPERPARAM_GRID[1]), 0).t_exec
        assert slow_lr > t_resnet

    def test_all_candidates_evaluate(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        ev = SurrogateEvaluator(ds, split)
        for candidate in enumerate_candidates():
            out = ev.evaluate(candidate, 0)
            assert out.ok
            assert 0.0 <= out.m_val <= 1.0


# every hierarchy-legal candidate followed by its debug-fixed variant
EVERY_CANDIDATE = tuple(
    c for base in enumerate_candidates() for c in (base, replace(base, debug_fixed=True))
)


def _reference_case(noise, split_kind):
    """An S-size dataset (108 x 60) under one of the two split strategies."""
    ds, _ = generate_synthetic(SyntheticConfig(60, 8, 12, noise, 0.3, seed=1))
    if split_kind == "unseen_perturbation":
        return ds, split_unseen_perturbation(ds, 0.8, seed=1)
    lines = np.where(np.arange(ds.n_cells) % 2 == 0, "LINE_0", "LINE_1").astype(object)
    ds = replace(ds, cell_type=lines)
    return ds, split_unseen_cell(ds, "LINE_1", 0.5, seed=1)


class TestSurrogateMatchesReference:
    """Fits from per-condition sufficient statistics agree with the dense fits.

    ``t_exec`` and ``error`` are exact; ``m_val`` moves only by rounding
    (the closed-form ridge and the pooled huber clip bounds round
    differently from a dense solve and a direct pass over the shifts).
    """

    @pytest.mark.parametrize("noise", [0.0, 0.4])
    @pytest.mark.parametrize("split_kind", ["unseen_perturbation", "unseen_cell"])
    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_every_candidate_matches(self, noise, split_kind, order):
        ds, split = _reference_case(noise, split_kind)
        ev = SurrogateEvaluator(ds, split)
        for candidate in EVERY_CANDIDATE[::order]:
            expected = reference_surrogate_evaluate(ds, split, candidate)
            assert_outcome_close(ev.evaluate(candidate, 0), expected, candidate.key())

    def test_shuffled_cells_match(self):
        # the generator writes each condition's cells in one sorted block;
        # the evaluator must not rely on that order
        ds, split = _reference_case(0.4, "unseen_perturbation")
        order = np.random.default_rng(5).permutation(ds.n_cells)
        per_cell = ("cell_type", "batch_id", "donor_id", "pert_type", "is_control",
                    "condition_name", "X")
        ds = replace(ds, **{name: getattr(ds, name)[order] for name in per_cell},
                     **csr_from_dense(ds.pert_mask[order], ds.pert_dose[order]))
        split = replace(split, labels=split.labels[order])
        ev = SurrogateEvaluator(ds, split)
        for candidate in EVERY_CANDIDATE:
            expected = reference_surrogate_evaluate(ds, split, candidate)
            assert_outcome_close(ev.evaluate(candidate, 0), expected, candidate.key())

    def test_degenerate_split_error_on_every_call(self, noiseless_bundle):
        ds, _, _ = noiseless_bundle
        labels = np.where(ds.is_control, "val", "train").astype(object)
        split = SplitAssignment(labels=labels, split_kind="unseen_perturbation", seed=0)
        ev = SurrogateEvaluator(ds, split)
        for candidate in EVERY_CANDIDATE + EVERY_CANDIDATE[:3]:
            out = ev.evaluate(candidate, 0)
            assert out == reference_surrogate_evaluate(ds, split, candidate)
            assert "degenerate split" in out.error


class TestLandscapeEvaluator:
    def test_zero_jitter_returns_table_mean(self):
        ev = LandscapeEvaluator.builtin("funnel")
        c = Candidate("discriminative", "resnet", HYPERPARAM_GRID[3], "mse")
        out = ev.evaluate(c, seed=0)
        assert out.m_val == 0.9
        assert out.t_exec == 10.0

    def test_jitter_is_bounded_and_seeded(self):
        ev = LandscapeEvaluator.builtin("funnel_jitter")
        c = Candidate("discriminative", "resnet", HYPERPARAM_GRID[3], "mse")
        values = {ev.evaluate(c, seed=s).m_val for s in range(20)}
        assert len(values) > 1
        assert all(abs(v - 0.9) <= 0.05 + 1e-12 for v in values)
        assert ev.evaluate(c, seed=3) == ev.evaluate(c, seed=3)

    def test_unknown_candidate_rejected(self):
        ev = LandscapeEvaluator({"discriminative/resnet/h0/mse": {"mean": 0.5}})
        with pytest.raises(ParameterError, match="unknown candidate"):
            ev.evaluate(Candidate("generative", "flow_matching", H0, "mse"), 0)

    def test_debug_fixed_candidates_share_base_row(self):
        ev = LandscapeEvaluator.builtin("funnel")
        base = Candidate("discriminative", "resnet", H0, "mse")
        fixed = replace(base, debug_fixed=True)
        assert ev.evaluate(base, 0).m_val == ev.evaluate(fixed, 0).m_val

    def test_builtin_path_resolution(self):
        assert builtin_landscape_path("funnel").is_file()
        with pytest.raises(ParameterError):
            builtin_landscape_path("missing_table")


class TestFailureInjection:
    def test_injected_candidate_fails_until_fixed(self):
        ev = FailureInjectingEvaluator(
            LandscapeEvaluator.builtin("funnel"), failure_rate=1.0
        )
        c = Candidate("generative", "conditional_vae", H0, "mse")
        broken = ev.evaluate(c, 0)
        assert not broken.ok and "injected" in broken.error
        fixed = ev.evaluate(replace(c, debug_fixed=True), 0)
        assert fixed.ok

    def test_unfixable_failures_stay_failed(self):
        ev = FailureInjectingEvaluator(
            LandscapeEvaluator.builtin("funnel"), failure_rate=1.0, fix_succeeds=False
        )
        c = Candidate("generative", "conditional_vae", H0, "mse", debug_fixed=True)
        assert not ev.evaluate(c, 0).ok

    def test_rate_zero_is_transparent(self):
        inner = LandscapeEvaluator.builtin("funnel")
        ev = FailureInjectingEvaluator(inner, failure_rate=0.0)
        c = Candidate("discriminative", "resnet", H0, "mse")
        assert ev.evaluate(c, 0) == inner.evaluate(c, 0)

    def test_fraction_roughly_respected(self):
        ev = FailureInjectingEvaluator(
            LandscapeEvaluator.builtin("funnel"), failure_rate=0.5, salt=7
        )
        failed = sum(
            0 if ev.evaluate(c, 0).ok else 1 for c in enumerate_candidates()
        )
        assert 8 <= failed <= 32  # 40 candidates, deterministic hash split


class TestExhaustiveBest:
    def test_zero_jitter_matches_table_max(self):
        ev = LandscapeEvaluator.builtin("funnel")
        result = exhaustive_best(ev, seed=0)
        assert result.best_candidate.key() == "discriminative/resnet/h3/mse"
        assert result.best_m_val == 0.9
        assert len(result.table) == 40

    def test_all_failed_gives_empty_best(self):
        ev = FailureInjectingEvaluator(
            LandscapeEvaluator.builtin("funnel"), failure_rate=1.0, fix_succeeds=False
        )
        result = exhaustive_best(ev, seed=0)
        assert result.best_candidate is None
        assert result.best_m_val is None
        assert all(r.error for r in result.table)

    def test_tsv_reproducible(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        ev = SurrogateEvaluator(ds, split)
        a = exhaustive_best(ev, seed=2).to_tsv()
        b = exhaustive_best(ev, seed=2).to_tsv()
        assert a == b
        assert a.splitlines()[0] == "candidate\tm_val\tt_exec\tstatus"

    def test_ties_keep_first_in_enumeration_order(self):
        table = {c.key(): {"mean": 0.5} for c in enumerate_candidates()}
        result = exhaustive_best(LandscapeEvaluator(table), seed=0)
        assert result.best_candidate.key() == enumerate_candidates()[0].key()

    def test_search_reward_consistent_with_exhaustive(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        ev = SurrogateEvaluator(ds, split)
        ex = exhaustive_best(ev, seed=4)
        res = run_search(SearchConfig(n_sim=24, seed=4), ev)
        assert res.best_m_val <= ex.best_m_val + 1e-12
