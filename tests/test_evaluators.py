from __future__ import annotations

import math
import itertools
import mmap
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pertpipe import data, evaluators
from pertpipe.actions import Candidate, HYPERPARAM_GRID, enumerate_candidates
from pertpipe.bundle import bundle_digest, read_canonical_bundle, write_canonical_bundle
from helpers import (
    assert_outcome_close,
    builtin_landscape,
    csr_from_dense,
    exhaustive_best,
    huge_constant_shifts,
    mapping_rss_kb,
    reference_loss_view,
    reference_scored_m_val,
    reference_surrogate_evaluate,
    small_canonical,
)
from pertpipe.data import (
    SplitAssignment,
    pseudo_bulk,
    split_unseen_cell,
    split_unseen_perturbation,
    validate_canonical,
)
from pertpipe.errors import ParameterError, ValidationError
from pertpipe.evaluators import (
    FailureInjectingEvaluator,
    LandscapeEvaluator,
    SurrogateEvaluator,
    SyntheticConfig,
    builtin_landscape_path,
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
        linear = np.expm1(ds.X)  # the generator log1p-transforms without normalizing
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
        profiles = pseudo_bulk(ds)
        report = evaluate_predictions(
            profiles, {n: profiles[n] for n in truth.pert_names}, "control"
        )
        assert report["skipped"]["delta_pcc"] == sorted(truth.pert_names)

    def test_support_lies_inside_pathway_mask(self):
        cfg = SyntheticConfig(80, 4, 4, 0.2, 0.1, seed=3)
        ds, truth = generate_synthetic(cfg)
        mask = pathway_gene_mask(ds.ensembl_id)
        assert np.all(mask[truth.support])

    def test_pathway_fracs_equal_each_gene_hash(self):
        ids = np.array([f"ENSG{i:011d}" for i in range(300)]
                       + ["", "é", "中文", "\U0001F600", "a|b", "\x00"], dtype=object)
        want = [evaluators._hash_frac(f"pathway|{g}") for g in ids]
        got = evaluators._pathway_fracs(ids)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert evaluators._pathway_fracs([]).shape == (0,)

    def test_output_is_canonical(self):
        ds, _ = generate_synthetic(SyntheticConfig(25, 3, 4, 0.5, 0.3, seed=8))
        assert validate_canonical(ds).ok

    def test_truth_against_itself_scores_perfectly(self):
        ds, truth = generate_synthetic(SyntheticConfig(30, 4, 5, 0.0, 0.3, seed=4))
        profiles = pseudo_bulk(ds)
        report = evaluate_predictions(
            profiles, {n: profiles[n] for n in truth.pert_names}, "control"
        )
        assert report["aggregate"]["rmse"] == 0.0
        assert abs(report["aggregate"]["delta_pcc"] - 1.0) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SyntheticConfig(0, 3, 4, 0.1, 0.3, seed=1)
        with pytest.raises(ParameterError):
            SyntheticConfig(10, 3, 4, 0.1, 1.5, seed=1)

    # bundle_digest of each config, taken when X was drawn in one call
    BLOCK_PINS = {
        # the gen-synthetic defaults
        SyntheticConfig(60, 8, 12, 0.3, 0.3, seed=0):
            "90d674cc91255bfaa0f034eed35c426a119378ebbdd42fe10f84ccefbe4687a3",
        # no noise is drawn
        SyntheticConfig(60, 8, 12, 0.0, 0.3, seed=0):
            "50e4daec79ea9d65d4057ececfded57bd8363c485b208da06dedbccda7c12863",
        # one cell per condition
        SyntheticConfig(7, 5, 1, 0.4, 0.3, seed=2):
            "3db20fa0fa13bfbaaeb2faaff3aa160379d754175609f0d7ed275f3ae489b94f",
    }

    @pytest.mark.parametrize("cfg", list(BLOCK_PINS), ids=["defaults", "noiseless", "one-cell"])
    @pytest.mark.parametrize("rows", [1, 3, None], ids=["one-row", "three-rows", "all-of-X"])
    def test_the_bundle_does_not_depend_on_the_block_size(self, tmp_path, monkeypatch, cfg, rows):
        n_cells = (cfg.n_perts + 1) * cfg.cells_per_condition
        row_bytes = cfg.n_genes * 8
        monkeypatch.setattr(data, "_BLOCK_BYTES", row_bytes * (rows or 2 * n_cells))
        ds, _ = generate_synthetic(cfg)
        write_canonical_bundle(ds, tmp_path / "b")
        assert bundle_digest(tmp_path / "b") == self.BLOCK_PINS[cfg]

    @pytest.mark.parametrize("rows", [1, 16, None], ids=["one-row", "16-rows", "default"])
    def test_a_non_finite_cell_is_named_by_its_row_in_x(self, monkeypatch, rows):
        # noise this wide passes the float64 range first at row 134, past
        # the first block of 1 or 16 rows; the message was taken when X was
        # drawn in one call
        if rows:
            monkeypatch.setattr(data, "_BLOCK_BYTES", 256 * 8 * rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as caught:
                generate_synthetic(SyntheticConfig(256, 8, 64, 4.5e307, 0.3, seed=0))
        assert str(caught.value) == "non-finite expression value inf at cell X[134, 34]"

    @pytest.mark.skipif(
        not Path("/proc/self/status").is_file(), reason="needs /proc/self/status"
    )
    def test_x_is_built_without_whole_temporaries(self):
        # 2040 x 2000 float64: a 31 MiB X. The child reads its own high-water
        # mark: ru_maxrss would start at this process's peak, which a child
        # inherits
        code = (
            "import re\n"
            "from pathlib import Path\n"
            "from pertpipe.evaluators import SyntheticConfig, generate_synthetic\n"
            "def kb(key):\n"
            "    status = Path('/proc/self/status').read_text()\n"
            "    return int(re.search(rf'^{key}:\\s+(\\d+) kB', status, re.M).group(1))\n"
            "before = kb('VmRSS')\n"
            "ds, _ = generate_synthetic(SyntheticConfig(2000, 50, 40, 0.4, 0.3, seed=0))\n"
            "print(before, kb('VmHWM'), ds.X.nbytes // 1024)\n"
        )
        src = str(Path(evaluators.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        before, peak, x_kb = map(int, done.stdout.split())
        # the noise, the noisy cells, their clip and the log1p output of
        # whole-matrix steps would add about 4 * x_kb
        assert peak - before < 2 * x_kb


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
        split = SplitAssignment(labels=labels)
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
    return ds, split_unseen_cell(ds, "LINE_1", seed=1)


def _shuffled_case():
    """The noisy ``unseen_perturbation`` reference case with its cells shuffled."""
    ds, split = _reference_case(0.4, "unseen_perturbation")
    order = np.random.default_rng(5).permutation(ds.n_cells)
    per_cell = ("cell_type", "batch_id", "donor_id", "pert_type", "is_control",
                "condition_name", "X")
    ds = replace(ds, **{name: getattr(ds, name)[order] for name in per_cell},
                 **csr_from_dense(ds.pert_mask[order], ds.pert_dose[order]))
    return ds, replace(split, labels=split.labels[order])


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
        ds, split = _shuffled_case()
        ev = SurrogateEvaluator(ds, split)
        for candidate in EVERY_CANDIDATE:
            expected = reference_surrogate_evaluate(ds, split, candidate)
            assert_outcome_close(ev.evaluate(candidate, 0), expected, candidate.key())

    @pytest.mark.parametrize("block_rows", [None, 1], ids=["default-block", "one-row-block"])
    def test_a_mapped_x_is_released_and_scores_as_in_memory(
        self, tmp_path, monkeypatch, block_rows
    ):
        # each condition's rows are scattered, so the released runs are short;
        # with one-row blocks no release waits for the next condition
        ds, split = _shuffled_case()
        write_canonical_bundle(ds, tmp_path / "b")
        mapped = read_canonical_bundle(tmp_path / "b")
        base = mapped.X
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview)  # X maps the bundle's X.f64
        expected = SurrogateEvaluator(replace(mapped, X=np.array(mapped.X)), split)

        passes = [set()]  # the rows released before the loss views, then by each view
        loss_view, release_pages = evaluators._loss_view, evaluators.release_pages

        def each_pass(*args, **kwargs):
            passes.append(set())
            return loss_view(*args, **kwargs)

        def spy(a):
            if a.size:
                first = (a.ctypes.data - mapped.X.ctypes.data) // mapped.X.strides[0]
                passes[-1].update(range(first, first + len(a)))
            release_pages(a)

        monkeypatch.setattr(evaluators, "_loss_view", each_pass)
        if block_rows:
            monkeypatch.setattr(data, "_BLOCK_BYTES", mapped.X[:block_rows].nbytes)
        monkeypatch.setattr(evaluators, "release_pages", spy)
        ev = SurrogateEvaluator(mapped, split)
        train = np.flatnonzero((split.labels == "train") & ~mapped.is_control)
        assert passes == [set(range(mapped.n_cells))] + [set(train.tolist())] * 2
        for candidate in EVERY_CANDIDATE:
            assert ev.evaluate(candidate, 0) == expected.evaluate(candidate, 0), candidate.key()

    def test_degenerate_split_error_on_every_call(self, noiseless_bundle):
        ds, _, _ = noiseless_bundle
        labels = np.where(ds.is_control, "val", "train").astype(object)
        split = SplitAssignment(labels=labels)
        ev = SurrogateEvaluator(ds, split)
        for candidate in EVERY_CANDIDATE + EVERY_CANDIDATE[:3]:
            out = ev.evaluate(candidate, 0)
            assert out == reference_surrogate_evaluate(ds, split, candidate)
            assert "degenerate split" in out.error


# float.hex of each base candidate's m_val, in enumerate_candidates order, for
# the four _reference_case datasets (split kind/noise); a debug-fixed variant
# scores as its base. Taken from the evaluator that scored each val condition
# with one delta_pcc call, before the candidate-invariant scoring work was
# shared between candidates
M_VAL_PINS = {
    "unseen_perturbation/0.0": (
        "0x1.ff5f78c744a1bp-1", "0x1.ff4eba680cdf3p-1", "0x1.ff5f78c744a16p-1",
        "0x1.ff4eba680cdf5p-1", "0x1.ff5f78c744a1ap-1", "0x1.ff4eba680cdf7p-1",
        "0x1.ff5f78c744a1dp-1", "0x1.ff4eba680cdfap-1", "0x1.ff5f78c7d526ep-1",
        "0x1.ff4eba68a235dp-1", "0x1.ff5f78c7d526ep-1", "0x1.ff4eba68a235dp-1",
        "0x1.ff5f78c7d526ep-1", "0x1.ff4eba68a235dp-1", "0x1.ff5f78c7d526ep-1",
        "0x1.ff4eba68a235dp-1", "0x1.ff5f78c744a19p-1", "0x1.ff4eba680cdf5p-1",
        "0x1.ff5f78c744a18p-1", "0x1.ff4eba680cdf5p-1", "0x1.ff5f78c744a1ap-1",
        "0x1.ff4eba680cdf5p-1", "0x1.ff5f78c744a1dp-1", "0x1.ff4eba680cdfbp-1",
        "0x1.febf5bbcd56b3p-1", "0x1.fea3448ab2c5cp-1", "0x1.f2627f98eb1b9p-1",
        "0x1.f20824cbdf2a4p-1", "0x1.db4b47873727dp-1", "0x1.da9ac8114654cp-1",
        "0x1.ff5ac91bb65e8p-1", "0x1.ff48d4eee69d6p-1", "0x1.ff5d3b33d8e8ap-1",
        "0x1.ff4cc25841f27p-1", "0x1.ff5d3b33d8e89p-1", "0x1.ff4cc25841f2cp-1",
        "0x1.ff5d3b33d8e86p-1", "0x1.ff4cc25841f2dp-1", "0x1.ff5d3b33d8e87p-1",
        "0x1.ff4cc25841f28p-1",
    ),
    "unseen_perturbation/0.4": (
        "0x1.3d4f33af06beap-1", "0x1.3bf2a5b309e43p-1", "0x1.3d4f33af06beap-1",
        "0x1.3bf2a5b309e44p-1", "0x1.3d4f33af06be8p-1", "0x1.3bf2a5b309e45p-1",
        "0x1.3d4f33af06be7p-1", "0x1.3bf2a5b309e44p-1", "0x1.3bc3f54e5befcp-1",
        "0x1.379c7a1d0e783p-1", "0x1.2174c8e4ac62ep-1", "0x1.1cfff977b6743p-1",
        "0x1.fb04206147a27p-2", "0x1.f04189cc03579p-2", "0x1.3d70850ac6888p-1",
        "0x1.3b94f17b46cfep-1", "0x1.60e26c8dee3b0p-1", "0x1.6044260ee75a7p-1",
        "0x1.60e26c8dee3b2p-1", "0x1.6044260ee75a7p-1", "0x1.60e26c8dee3afp-1",
        "0x1.6044260ee75a7p-1", "0x1.60e26c8dee3afp-1", "0x1.6044260ee75a6p-1",
        "0x1.536628d51d56ap-1", "0x1.514aeef646c90p-1", "0x1.4c3cfe27c390dp-1",
        "0x1.487893656c406p-1", "0x1.22ea7ef24a873p-1", "0x1.1b04803e304e0p-1",
        "0x1.4add8ed84c8c0p-1", "0x1.48a8aece90968p-1", "0x1.3d3ff73ba6917p-1",
        "0x1.3c0be42b25c43p-1", "0x1.3d3ff73ba6918p-1", "0x1.3c0be42b25c44p-1",
        "0x1.3d3ff73ba6919p-1", "0x1.3c0be42b25c43p-1", "0x1.3d3ff73ba6918p-1",
        "0x1.3c0be42b25c45p-1",
    ),
    "unseen_cell/0.0": (
        "0x1.ffffffee268f0p-1", "0x1.fff6e62b5b646p-1", "0x1.fffff93d0af1cp-1",
        "0x1.fff6b25824b70p-1", "0x1.fffda9521a40fp-1", "0x1.fff31fcf9f653p-1",
        "0x1.ffffffffbe002p-1", "0x1.fff6ead733701p-1", "0x1.ffffffffffffep-1",
        "0x1.fff6eb78d364ep-1", "0x1.ffffffffffffep-1", "0x1.fff6eb78d364ep-1",
        "0x1.ffffffffffffep-1", "0x1.fff6eb78d364ep-1", "0x1.ffffffffffffep-1",
        "0x1.fff6eb78d364ep-1", "0x1.ffffffee268f0p-1", "0x1.fff6e62b5b646p-1",
        "0x1.fffff93d0af1cp-1", "0x1.fff6b25824b70p-1", "0x1.fffda9521a410p-1",
        "0x1.fff31fcf9f652p-1", "0x1.ffffffffbe002p-1", "0x1.fff6ead733701p-1",
        "0x1.fffe4c9079720p-1", "0x1.fff5303f5a2dep-1", "0x1.ffde56c84d0bdp-1",
        "0x1.ffd6b9a716b59p-1", "0x1.ffa0fe88c9a92p-1", "0x1.ff9cab150dd33p-1",
        "0x1.fffff6662adcep-1", "0x1.fff6d872750ffp-1", "0x1.0000000000000p+0",
        "0x1.fff6eb78d1877p-1", "0x1.0000000000000p+0", "0x1.fff6eb78d1877p-1",
        "0x1.0000000000000p+0", "0x1.fff6eb78d1877p-1", "0x1.0000000000000p+0",
        "0x1.fff6eb78d1877p-1",
    ),
    "unseen_cell/0.4": (
        "0x1.8cb013f445958p-3", "0x1.a2ba8ec0d3bc0p-3", "0x1.8e3836b70ecf4p-3",
        "0x1.a412f79ea4068p-3", "0x1.9c709b364f6b9p-3", "0x1.b081bfcd709e5p-3",
        "0x1.8c890fce53a58p-3", "0x1.a298459fdcdeap-3", "0x1.7039b272018d3p-3",
        "0x1.8ec52eed73dd1p-3", "0x1.0cdaca1d1c346p-3", "0x1.452483bff2626p-3",
        "0x1.92c5e9aa7f4efp-4", "0x1.13c400a2dbb3dp-3", "0x1.88a4f37a3bde4p-3",
        "0x1.9fe934ad9adf2p-3", "0x1.31b591a17a076p-2", "0x1.3a58df648c9f9p-2",
        "0x1.320b6ecb661b0p-2", "0x1.3aaf9ec936a8cp-2", "0x1.350959edd3b57p-2",
        "0x1.3dbb8fb299412p-2", "0x1.31acfd140da82p-2", "0x1.3a50361822ab7p-2",
        "0x1.a978570fa2832p-3", "0x1.bbdbd6cdb7bf0p-3", "0x1.d0e8d66e49f8fp-3",
        "0x1.dd706da852d31p-3", "0x1.e5ee4101a11b4p-3", "0x1.f00a3fe5b88e2p-3",
        "0x1.988ad642e60e6p-3", "0x1.ac863ed09e33cp-3", "0x1.8c83bb5dab3cbp-3",
        "0x1.a293968d26b71p-3", "0x1.8c83bb5dab3cbp-3", "0x1.a293968d26b71p-3",
        "0x1.8c83bb5dab3cbp-3", "0x1.a293968d26b71p-3", "0x1.8c83bb5dab3cbp-3",
        "0x1.a293968d26b71p-3",
    ),
}


@pytest.mark.parametrize("case", sorted(M_VAL_PINS))
def test_every_candidate_keeps_its_m_val_bits(case):
    split_kind, noise = case.split("/")
    ev = SurrogateEvaluator(*_reference_case(float(noise), split_kind))
    got = {}
    for candidate in EVERY_CANDIDATE:
        got.setdefault(candidate.key().removesuffix("/fixed"), []).append(
            ev.evaluate(candidate, 0).m_val.hex()
        )
    expected = {c.key(): [pin, pin] for c, pin in zip(enumerate_candidates(), M_VAL_PINS[case])}
    assert got == expected


def _hex(m_val):
    return None if m_val is None else m_val.hex()


@given(
    n_genes=st.integers(2, 40),
    n_perts=st.integers(3, 7),
    noise=st.sampled_from([0.0, 0.4, 1.5]),
    sparsity=st.sampled_from([0.3, 1.0]),
    seed=st.integers(0, 2**16),
    split_kind=st.sampled_from(["unseen_perturbation", "unseen_cell", "mixed"]),
    zeroed=st.sampled_from(["none", "one", "all", "train"]),
)
# past the 8192 elements numpy adds up in one buffer
@example(n_genes=8193, n_perts=3, noise=0.4, sparsity=0.3, seed=1,
         split_kind="unseen_perturbation", zeroed="none")
@example(n_genes=8193, n_perts=3, noise=0.4, sparsity=0.3, seed=1,
         split_kind="unseen_cell", zeroed="none")
@example(n_genes=10_000, n_perts=4, noise=0.4, sparsity=0.3, seed=2,
         split_kind="unseen_perturbation", zeroed="none")
@example(n_genes=10_000, n_perts=4, noise=0.4, sparsity=0.3, seed=2,
         split_kind="unseen_cell", zeroed="none")
@example(n_genes=10_000, n_perts=5, noise=0.4, sparsity=0.3, seed=3,
         split_kind="mixed", zeroed="none")
@example(n_genes=2, n_perts=4, noise=0.4, sparsity=0.3, seed=0,
         split_kind="unseen_perturbation", zeroed="none")
@example(n_genes=2, n_perts=4, noise=0.4, sparsity=0.3, seed=0,
         split_kind="unseen_cell", zeroed="none")
@example(n_genes=5, n_perts=6, noise=0.4, sparsity=0.3, seed=1,
         split_kind="unseen_perturbation", zeroed="one")
@example(n_genes=5, n_perts=6, noise=0.4, sparsity=0.3, seed=1,
         split_kind="unseen_cell", zeroed="one")
@example(n_genes=5, n_perts=6, noise=0.4, sparsity=0.3, seed=1,
         split_kind="unseen_cell", zeroed="all")
@example(n_genes=6, n_perts=6, noise=0.4, sparsity=0.3, seed=1,
         split_kind="unseen_perturbation", zeroed="train")
@settings(max_examples=40, deadline=None)
def test_m_val_keeps_the_bits_of_one_pcc_of_sides_per_condition(
    n_genes, n_perts, noise, sparsity, seed, split_kind, zeroed
):
    """Scoring every val condition in one array pass keeps the bits of one
    ``pcc_of_sides`` call per condition. Under ``mixed``, half of one val
    condition's cells move to train, so that condition gets its own
    prediction while the others share one. ``zeroed`` sets the controls and
    one val condition's cells (or every val condition's) to zero, so that
    truth shift has zero variance and is skipped, or every train cell, so
    every prediction has zero variance and no condition is scored."""
    ds, _ = generate_synthetic(SyntheticConfig(n_genes, n_perts, 4, noise, sparsity, seed))
    if split_kind == "unseen_cell":
        ds = replace(ds, cell_type=np.resize(np.array(["LINE_0", "LINE_1"], dtype=object),
                                             ds.n_cells))
        split = split_unseen_cell(ds, "LINE_1", seed=seed)
    else:
        split = split_unseen_perturbation(ds, 0.6, seed=seed)
    val_conditions = sorted(set(ds.condition_name[split.labels == "val"]) - {"control"})
    if split_kind == "mixed":
        labels = split.labels.copy()
        cells = np.flatnonzero(ds.condition_name == val_conditions[0])
        labels[cells[: cells.size // 2]] = "train"
        split = SplitAssignment(labels=labels)
    zero = {"none": [], "one": val_conditions[:1], "all": val_conditions, "train": []}[zeroed]
    if zeroed != "none":
        X = ds.X.copy()
        X[ds.is_control | np.isin(ds.condition_name, zero)] = 0.0
        if zeroed == "train":
            X[split.labels == "train"] = 0.0
        ds = replace(ds, X=X)
    ev = SurrogateEvaluator(ds, split)
    for candidate in enumerate_candidates():
        expected = reference_scored_m_val(ev, ds, split, candidate)
        assert _hex(ev.evaluate(candidate, 0).m_val) == _hex(expected), candidate.key()
        if zeroed in ("all", "train"):
            assert expected is None
    stats, _ = ev._prepared
    assert (0.0 in stats.val_squares) == bool(zero)


class TestSharedState:
    """What evaluations share is read-only, and no two evaluators share it."""

    def test_stacked_truth_refuses_writes(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        ev = SurrogateEvaluator(ds, split)
        assert ev.evaluate(_ridge("resnet"), 0).ok
        stats, _ = ev._prepared
        assert stats.val_truth.flags.c_contiguous
        assert stats.val_truth.shape == (len(stats.val_keys), ds.n_genes)
        for array in (stats.val_truth, stats.val_squares):
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1.0

    def test_ridge_families_share_one_read_only_intercept(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        ev = SurrogateEvaluator(ds, split)
        for backbone in ("resnet", "pathway_masked"):
            for loss in ("mse", "huber"):
                assert ev.evaluate(_ridge(backbone, loss=loss), 0).ok
        reg = H0.reg_strength * (1.0 + H0.dropout)
        assert sorted(ev._ridges) == [("huber", reg), ("mse", reg)]
        for shrink, intercept in ev._ridges.values():
            for array in (shrink, intercept):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    def test_evaluators_do_not_share_intercepts(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        other = split_unseen_perturbation(ds, 0.8, seed=2)
        first, second = SurrogateEvaluator(ds, split), SurrogateEvaluator(ds, other)
        candidate = _ridge("resnet")
        assert first.evaluate(candidate, 0).ok
        assert second._ridges == {}
        # the second split's intercept is its own, not the first one's
        assert second.evaluate(candidate, 0) == SurrogateEvaluator(ds, other).evaluate(
            candidate, 0
        )
        [(key, (_, a))], [(other_key, (_, b))] = first._ridges.items(), second._ridges.items()
        assert key == other_key
        assert not np.array_equal(a, b)


class TestPreparation:
    """The constructor builds the statistics, its condition blocks split over two cores."""

    def test_construction_leaves_no_thread(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        before = threading.enumerate()
        ev = SurrogateEvaluator(ds, split)
        assert threading.enumerate() == before
        assert ev.evaluate(_ridge("resnet"), 0).ok

    def test_preparation_error_raised_by_the_constructor(self, noisy_bundle, monkeypatch):
        ds, split, _ = noisy_bundle
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)

        def broken(*args, **kwargs):
            raise MemoryError("no room for the loss view")

        monkeypatch.setattr(evaluators, "_loss_view", broken)
        with pytest.raises(MemoryError, match="^no room for the loss view$"):
            SurrogateEvaluator(ds, split)
        assert hooked == []

    @pytest.mark.skipif(
        not Path("/proc/self/smaps").is_file() or not hasattr(mmap, "MADV_DONTNEED"),
        reason="needs /proc/self/smaps and MADV_DONTNEED",
    )
    def test_a_mapped_x_is_let_go_of(self, tmp_path):
        # 200 x 2048 float64: each row is four whole 4 KiB pages
        ds, _ = generate_synthetic(SyntheticConfig(2048, 24, 8, 0.4, 0.3, seed=1))
        write_canonical_bundle(ds, tmp_path / "b")
        mapped = read_canonical_bundle(tmp_path / "b")
        split = split_unseen_perturbation(mapped, 0.8, seed=1)
        assert SurrogateEvaluator(mapped, split).evaluate(_ridge("resnet"), 0).ok
        resident = mapping_rss_kb(mapped.X) * 1024
        # the control and val rows that the preparation reads stay mapped;
        # the perturbed train rows, most of X, are let go of
        train = np.count_nonzero((split.labels == "train") & ~mapped.is_control)
        row = mapped.X[:1].nbytes
        assert resident < (mapped.n_cells - train) * row < train * row

    @pytest.mark.parametrize("half", ["first", "second"])
    def test_both_halves_ignore_invalid_values(self, noisy_bundle, half):
        # numpy's error state is per thread and a new one starts at the
        # defaults, so inf - inf in a variance would warn on the worker half
        # unless it takes the caller's; it is left to the finiteness check
        ds, split, _ = noisy_bundle
        train = np.flatnonzero((split.labels == "train") & ~ds.is_control)
        names = sorted(set(ds.condition_name[train]))
        assert len(names) >= 2
        name = names[0] if half == "first" else names[-1]
        X = ds.X.copy()
        X[train[ds.condition_name[train] == name][0], 3] = np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = SurrogateEvaluator(replace(ds, X=X), split).evaluate(_ridge("resnet"), 0)
        assert out.error == "non-finite input: X holds NaN or inf in the perturbed train cells"
        assert [str(w.message) for w in caught] == []


    @pytest.mark.parametrize("val_sign, cells", [(1.0, "perturbed train"), (-1.0, "val")])
    def test_huge_finite_cells_name_the_overflow(self, val_sign, cells):
        # the means of these cells are finite; the shifts from the control mean
        # (val, negated) or their squares (perturbed train) are not
        u = np.random.default_rng(0).uniform(0.5, 1.0, (12, 6)) * 1.7e308
        ds = small_canonical({"control": u[:4].tolist(), "A": u[4:8].tolist(),
                              "B": (val_sign * u[8:]).tolist()})
        split = SplitAssignment(["train", "train", "val", "val"] + ["train"] * 4 + ["val"] * 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = SurrogateEvaluator(ds, split).evaluate(_ridge("resnet"), 0)
        assert out.error == (f"overflow: shifts from the control mean in the {cells} cells "
                             f"pass the float64 range")
        assert [str(w.message) for w in caught] == []

    def test_huge_constant_shifts_name_the_overflow(self):
        # each condition's rows are equal, so every within-condition variance
        # is 0; the means are finite, but the squares every fit takes are not
        ds = huge_constant_shifts()
        split = split_unseen_perturbation(ds, train_frac=0.67, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ev = SurrogateEvaluator(ds, split)
            outs = [ev.evaluate(c, 0) for c in enumerate_candidates()]
        assert {(out.m_val, out.error) for out in outs} == {
            (None, "overflow: shifts from the control mean in the perturbed train cells "
                   "pass the float64 range")
        }
        assert [str(w.message) for w in caught] == []


_FINITE = [-0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 3.0, 1e-300, -1e300]


def _train_stats(rows, counts, y_ctrl):
    """Split statistics with the train part a loss view reads and no val condition."""
    g = y_ctrl.size
    return evaluators._SplitStats(
        rows=rows, counts=counts, y_ctrl=y_ctrl, index_of={}, val_keys=(),
        val_truth=np.empty((0, g)), val_squares=np.empty(0), gene_mask=np.ones(g, dtype=bool),
    )


@st.composite
def loss_view_inputs(draw):
    """Small matrices whose shifts tie the clip bounds, with signed zeros
    and constant genes; the mse view also sees NaN and inf."""
    clipped = draw(st.booleans())
    values = st.sampled_from(_FINITE if clipped else _FINITE + [np.nan, np.inf, -np.inf])
    counts = np.array(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    g = draw(st.integers(1, 12))
    n = int(counts.sum()) + draw(st.integers(0, 2))
    X = draw(arrays(np.float64, (n, g), elements=values))
    for j in draw(st.sets(st.integers(0, g - 1))):
        X[:, j] = draw(values)  # a constant gene
    rows = np.array(draw(st.permutations(range(n)))[: counts.sum()])
    y_ctrl = draw(arrays(np.float64, g, elements=values))
    stats = _train_stats(rows, counts, y_ctrl)
    clip = None
    if clipped:
        bounds = [sorted(draw(st.lists(values, min_size=2, max_size=2))) for _ in range(g)]
        clip = tuple(np.array(b) for b in zip(*bounds))
    return X, stats, clip


def _assert_same_view(view, expected):
    for field in ("sums", "cond_means", "cond_vars", "grand", "var_between", "var_within",
                  "mean_dir", "mean_norm"):
        got, want = np.asarray(getattr(view, field)), np.asarray(getattr(expected, field))
        assert got.tobytes() == want.tobytes(), field


@given(loss_view_inputs())
@settings(max_examples=400, deadline=None)
def test_loss_view_matches_reference(case):
    X, stats, clip = case
    with np.errstate(all="ignore"):
        view = evaluators._loss_view(X, stats, clip)
        expected = reference_loss_view(X, stats, clip)
    _assert_same_view(view, expected)


@pytest.mark.parametrize("g", [1, 2, 33])
def test_loss_view_signed_zero_ties(g):
    # on a signed-zero tie np.clip keeps the cell when there is one gene and
    # returns the bound otherwise, while maximum then minimum always return
    # the bound; sums start from +0.0 and variances square, so no zero's
    # sign reaches the view
    for x, y, lo, hi in itertools.product([-0.0, 0.0], repeat=4):
        stats = _train_stats(np.arange(3), np.array([2, 1]), np.full(g, y))
        X, clip = np.full((3, g), x), (np.full(g, lo), np.full(g, hi))
        view = evaluators._loss_view(X, stats, clip)
        _assert_same_view(view, reference_loss_view(X, stats, clip))


class TestLandscapeEvaluator:
    def test_zero_jitter_returns_table_mean(self):
        ev = builtin_landscape("funnel")
        c = Candidate("discriminative", "resnet", HYPERPARAM_GRID[3], "mse")
        out = ev.evaluate(c, seed=0)
        assert out.m_val == 0.9
        assert out.t_exec == 10.0

    def test_jitter_is_bounded_and_seeded(self):
        ev = builtin_landscape("funnel_jitter")
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
        ev = builtin_landscape("funnel")
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
            builtin_landscape("funnel"), failure_rate=1.0
        )
        c = Candidate("generative", "conditional_vae", H0, "mse")
        broken = ev.evaluate(c, 0)
        assert not broken.ok and "injected" in broken.error
        fixed = ev.evaluate(replace(c, debug_fixed=True), 0)
        assert fixed.ok

    def test_unfixable_failures_stay_failed(self):
        ev = FailureInjectingEvaluator(
            builtin_landscape("funnel"), failure_rate=1.0, fix_succeeds=False
        )
        c = Candidate("generative", "conditional_vae", H0, "mse", debug_fixed=True)
        assert not ev.evaluate(c, 0).ok

    def test_rate_zero_is_transparent(self):
        inner = builtin_landscape("funnel")
        ev = FailureInjectingEvaluator(inner, failure_rate=0.0)
        c = Candidate("discriminative", "resnet", H0, "mse")
        assert ev.evaluate(c, 0) == inner.evaluate(c, 0)

    def test_fraction_roughly_respected(self):
        ev = FailureInjectingEvaluator(builtin_landscape("funnel"), failure_rate=0.5)
        failed = sum(
            0 if ev.evaluate(c, 0).ok else 1 for c in enumerate_candidates()
        )
        assert 8 <= failed <= 32  # 40 candidates, deterministic hash split


class TestExhaustiveBest:
    def test_zero_jitter_matches_table_max(self):
        ev = builtin_landscape("funnel")
        result = exhaustive_best(ev, seed=0)
        assert result.best_candidate.key() == "discriminative/resnet/h3/mse"
        assert result.best_m_val == 0.9
        assert len(result.table) == 40

    def test_all_failed_gives_empty_best(self):
        ev = FailureInjectingEvaluator(
            builtin_landscape("funnel"), failure_rate=1.0, fix_succeeds=False
        )
        result = exhaustive_best(ev, seed=0)
        assert result.best_candidate is None
        assert result.best_m_val is None
        assert all(r.error for r in result.table)

    def test_tsv_reproducible(self, noisy_bundle):
        ds, split, _ = noisy_bundle
        a = exhaustive_best(SurrogateEvaluator(ds, split), seed=2)
        b = exhaustive_best(SurrogateEvaluator(ds, split), seed=2)
        assert a.table == b.table
        assert [row.candidate_key for row in a.table] == [
            c.key() for c in enumerate_candidates()
        ]

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
