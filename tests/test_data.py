from __future__ import annotations

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    csr_from_dense,
    reference_first_pattern_rows,
    reference_pseudo_bulk,
    small_canonical,
)
from pertpipe import data, unifier
from pertpipe.data import (
    cast_column,
    factorize,
    first_pattern_rows,
    normalize_log1p,
    pseudo_bulk,
    split_unseen_cell,
    split_unseen_perturbation,
    validate_canonical,
)
from pertpipe.errors import ParameterError, ValidationError


class TestRowHalves:
    """A pass split in two row halves: the first on one worker thread, the
    second on the caller. An error in either reaches the caller, and no
    thread outlives the call."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_each_row_is_in_one_half(self, n):
        threads = []

        def work(lo, hi):
            threads.append(threading.current_thread())
            return lo, hi

        assert data._row_halves(n, work) == [(0, n // 2), (n // 2, n)]
        assert sorted(t is threading.current_thread() for t in threads) == [False, True]

    def _dataset(self):
        return small_canonical({"control": [[1.0, 0.5], [2.0, 0.0]], "A": [[2.0, 0.25]]})

    @pytest.mark.parametrize("half", ["worker", "caller"])
    @pytest.mark.parametrize("call", ["normalize_log1p", "validate_canonical", "merge_datasets"])
    def test_an_error_in_either_half_reaches_the_caller(self, monkeypatch, half, call):
        real = data._row_halves
        caller = threading.current_thread()
        counts = []

        def failing(n, work):
            def half_work(lo, hi):
                counts.append(threading.active_count())
                on_caller = threading.current_thread() is caller
                if on_caller == (half == "caller"):
                    raise RuntimeError(f"{half} half failed")
                return work(lo, hi)

            return real(n, half_work)

        monkeypatch.setattr(data, "_row_halves", failing)
        monkeypatch.setattr(unifier, "_row_halves", failing)
        run = {
            "normalize_log1p": lambda: normalize_log1p(np.ones((5, 3)), 1e4, False, True),
            "validate_canonical": lambda: validate_canonical(self._dataset()),
            "merge_datasets": lambda: unifier.merge_datasets([self._dataset()] * 2),
        }[call]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{half} half failed"):
            run()
        assert threading.active_count() == before
        assert counts and max(counts) <= before + 1


class TestNormalizeLog1p:
    def test_sum_already_at_target_applies_log1p(self):
        out = normalize_log1p(np.array([[1.0, 3.0]]), 4.0, False, True)
        assert np.allclose(out, [[math.log(2), math.log(4)]], atol=1e-12)

    def test_already_log1p_is_identity(self):
        X = np.array([[0.3, 1.7], [2.0, 0.0]])
        out = normalize_log1p(X, 1e4, True, True)
        assert np.array_equal(out, X)

    def test_scaling_then_log1p(self):
        # row [2,0,2] scaled to sum 8 -> [4,0,4] -> [ln5, 0, ln5]
        out = normalize_log1p(np.array([[2.0, 0.0, 2.0]]), 8.0, False, True)
        assert np.allclose(out, [[math.log(5), 0.0, math.log(5)]], atol=1e-12)

    def test_normalization_skipped_when_not_required(self):
        out = normalize_log1p(np.array([[2.0, 0.0, 2.0]]), 8.0, False, False)
        assert np.allclose(out, np.log1p([[2.0, 0.0, 2.0]]))

    def test_zero_rows_pass_through_unscaled(self):
        out = normalize_log1p(np.array([[0.0, 0.0], [1.0, 1.0]]), 10.0, False, True)
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.allclose(np.expm1(out[1]).sum(), 10.0)

    def test_negative_entry_names_first_offending_cell(self):
        X = np.array([[1.0, 2.0], [3.0, -0.5]])
        with pytest.raises(ValidationError, match=r"X\[1, 1\]"):
            normalize_log1p(X, 1e4, False, True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("already_log1p", [False, True])
    def test_non_finite_entry_names_first_offending_cell(self, bad, already_log1p):
        X = np.array([[1.0, 2.0], [3.0, bad], [bad, 1.0]])
        with pytest.raises(ValidationError, match=r"non-finite .* X\[1, 1\]"):
            normalize_log1p(X, 1e4, already_log1p, True)

    def test_bad_target_sum(self):
        with pytest.raises(ParameterError):
            normalize_log1p(np.ones((1, 2)), 0.0, False, True)

    @pytest.mark.parametrize("target_sum", [np.nan, np.inf])
    def test_non_finite_target_sum(self, target_sum):
        # either makes every row's scale unusable, so no row would be scaled
        with pytest.raises(ParameterError, match="target_sum must be finite and positive"):
            normalize_log1p(np.ones((1, 2)), target_sum, False, True)

    def test_target_sum_that_scales_a_row_past_float64_names_the_row(self):
        # rows 0 and 3 scale to a sum past the largest float, rows 1 and 2 do not
        X = np.array([[3.0, 0.0], [1.0, 1.0], [2.0, 2.0], [7.0, 0.0]])
        biggest = np.finfo(np.float64).max
        with pytest.raises(ValidationError, match=r"^expression row X\[0\] scaled to target_sum "
                           r"1\.7976931348623157e\+308 passes the float64 range; 2 row\(s\)"):
            normalize_log1p(X, biggest, False, True)
        assert np.isfinite(normalize_log1p(X[1:3], biggest, False, True)).all()
        # without the scaling no row is refused
        assert np.array_equal(normalize_log1p(X, biggest, False, False), np.log1p(X))

    @given(
        st.lists(
            st.lists(st.floats(0, 100), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        st.floats(1.0, 1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_target_after_roundtrip(self, rows, target):
        X = np.array(rows)
        out = normalize_log1p(X, target, False, True)
        sums = np.expm1(out).sum(axis=1)
        for i, row_sum in enumerate(X.sum(axis=1)):
            with np.errstate(over="ignore"):
                scalable = row_sum > 0 and np.isfinite(target / row_sum)
            if scalable:
                assert abs(sums[i] - target) <= 1e-9 * target

    def test_subnormal_row_sum_passes_through(self):
        X = np.array([[0.0, 0.0, 0.0, 2.2e-311]])
        out = normalize_log1p(X, 1.0, False, True)
        assert np.isfinite(out).all()
        assert np.allclose(out, np.log1p(X))

    def test_idempotent_with_log1p_flag(self):
        X = np.array([[1.0, 2.0, 3.0]])
        once = normalize_log1p(X, 4.0, False, True)
        again = normalize_log1p(once, 4.0, True, True)
        assert np.array_equal(once, again)


class TestPseudoBulk:
    def test_mean_of_two_cells(self):
        ds = small_canonical({"control": [[0.0, 0.0]], "A": [[1.0, 2.0], [3.0, 4.0]]})
        assert np.allclose(pseudo_bulk(ds)["A"], [2.0, 3.0])

    def test_singleton_condition_equals_row(self):
        ds = small_canonical({"control": [[0.5, 0.5]], "A": [[1.5, 2.5]]})
        assert np.array_equal(pseudo_bulk(ds)["A"], [1.5, 2.5])

    def test_matches_brute_force_grouping_oracle(self):
        rng = np.random.default_rng(11)
        conditions = {
            "control": rng.uniform(0, 3, (2, 5)).tolist(),
            "A": rng.uniform(0, 3, (2, 5)).tolist(),
            "B": rng.uniform(0, 3, (2, 5)).tolist(),
        }
        ds = small_canonical(conditions)
        profiles = pseudo_bulk(ds)
        for cond, rows in conditions.items():
            expected = [sum(col) / len(rows) for col in zip(*rows)]
            assert np.allclose(profiles[cond], expected, atol=1e-12)

    def test_control_profile_included(self):
        ds = small_canonical({"control": [[1.0, 1.0]], "B": [[2.0, 2.0]], "A": [[3.0, 3.0]]})
        assert list(pseudo_bulk(ds)) == ["A", "B", "control"]

    def test_means_near_the_float64_maximum_are_finite(self):
        # a plain mean's sum overflows; an overflow warning fails the test
        rows = np.random.default_rng(0).uniform(0, 1, (4, 3)) * 1.7e308
        ds = small_canonical({"control": [[0.0] * 3], "A": rows.tolist()})
        assert np.allclose(pseudo_bulk(ds)["A"], (rows / 4).sum(axis=0), rtol=1e-12)

    def test_column_means_pass_nan_and_inf_through(self):
        X = np.array([[np.inf, np.nan, 1e308, 1.0], [1.0, 1.0, 1e308, 2.0]])
        means = data.column_means(X)
        assert np.array_equal(means, [np.inf, np.nan, 1e308, 1.5], equal_nan=True)

    def test_empty_subset_rejected(self):
        ds = small_canonical({"control": [[1.0, 1.0]], "A": [[2.0, 2.0]]})
        with pytest.raises(ParameterError):
            pseudo_bulk(ds, np.array([], dtype=int))

    def test_union_is_count_weighted_average(self):
        rng = np.random.default_rng(5)
        ds = small_canonical({"control": rng.uniform(0, 2, (6, 4)).tolist(),
                              "A": rng.uniform(0, 2, (6, 4)).tolist()})
        all_cells = np.arange(ds.n_cells)
        first, second = all_cells[:4], all_cells[4:]
        whole = pseudo_bulk(ds, all_cells)
        part1 = pseudo_bulk(ds, first)
        part2 = pseudo_bulk(ds, second)
        for cond, mean in whole.items():
            a = part1.get(cond)
            b = part2.get(cond)
            # each part's count of the condition's cells, from its subset
            n_a = ds.condition_name[first].tolist().count(cond)
            n_b = ds.condition_name[second].tolist().count(cond)
            combined = np.zeros(ds.n_genes)
            if a is not None:
                combined += a * n_a
            if b is not None:
                combined += b * n_b
            combined /= n_a + n_b
            assert np.allclose(combined, mean, atol=1e-12)

    def test_shuffled_cells_keep_the_bits_of_a_mask_per_condition(self):
        rng = np.random.default_rng(3)
        # magnitudes spread over 16 decades, so a sum in another order moves bits
        conditions = {
            name: (rng.standard_normal((n, 7)) * 10.0 ** rng.uniform(-8, 8, (n, 7))).tolist()
            for name, n in (("control", 30), ("B", 25), ("A", 1), ("C\x00", 40), ("", 12))
        }
        ds = small_canonical(conditions)
        cells = rng.permutation(ds.n_cells)[: ds.n_cells - 9]
        got = [(name, list(map(float.hex, mean.tolist())))
               for name, mean in pseudo_bulk(ds, cells).items()]
        want = [(name, list(map(float.hex, mean.tolist())))
                for name, mean in reference_pseudo_bulk(ds, cells)]
        assert got == want


_LABELS = ("", "a", "ab", "b", "\x00", "a\x00", "\r", "a\r", "\u00e9", "\u6f22", "\U0001f600")


class TestFactorize:
    @given(st.lists(st.sampled_from(_LABELS) | st.text(max_size=3), max_size=60))
    @settings(max_examples=300, deadline=None)
    @example([])
    @example(["b", "a"] * 20)
    def test_equals_np_unique(self, values):
        col = np.empty(len(values), dtype=object)
        col[:] = values
        labels, codes = factorize(col)
        want_labels, want_codes = np.unique(col, return_inverse=True)
        assert labels.dtype == object and labels.tolist() == want_labels.tolist()
        assert codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes)


class TestCastColumnToStr:
    @pytest.mark.parametrize(
        "values",
        [
            ["a", np.str_("b"), 1, 2.5, True, None],
            [np.str_("x"), np.str_("y\x00")],
            [float("nan"), -0.0, np.float64(1e300), np.int64(3), np.bool_(False), 10**30],
            ["a", "", "a\x00", "\u00e9"],  # only str: returned as is, not cast cell by cell
            [],
        ],
        ids=repr,
    )
    def test_equals_str_of_each_cell(self, values):
        col = np.empty(len(values), dtype=object)
        col[:] = values
        col.setflags(write=False)
        got = cast_column(col, "str")
        want = np.array(list(map(str, col.tolist())), dtype=object)
        if set(map(type, values)) <= {str}:
            assert got is col
        else:
            assert not np.shares_memory(got, col)
        assert got.dtype == object and got.shape == want.shape
        assert got.tolist() == want.tolist()
        assert [type(v) for v in got.tolist()] == [str] * len(values)


def _split_fixture(n_conditions: int, cells_per: int = 3, n_control: int = 12):
    conditions = {"control": [[float(i), 1.0] for i in range(n_control)]}
    for c in range(n_conditions):
        conditions[f"P{c:02d}"] = [[float(i), 2.0] for i in range(cells_per)]
    return small_canonical(conditions)


class TestSplitUnseenPerturbation:
    def test_ten_conditions_eight_one_one(self):
        ds = _split_fixture(10)
        split = split_unseen_perturbation(ds, 0.8, seed=1)
        by_label = {"train": set(), "val": set(), "test": set()}
        for i in range(ds.n_cells):
            if not ds.is_control[i]:
                by_label[split.labels[i]].add(ds.condition_name[i])
        assert (len(by_label["train"]), len(by_label["val"]), len(by_label["test"])) == (8, 1, 1)

    def test_seven_conditions_five_one_one(self):
        ds = _split_fixture(7)
        split = split_unseen_perturbation(ds, 0.8, seed=4)
        by_label = {"train": set(), "val": set(), "test": set()}
        for i in range(ds.n_cells):
            if not ds.is_control[i]:
                by_label[split.labels[i]].add(ds.condition_name[i])
        assert (len(by_label["train"]), len(by_label["val"]), len(by_label["test"])) == (5, 1, 1)

    def test_conditions_never_straddle_splits(self):
        ds = _split_fixture(6)
        split = split_unseen_perturbation(ds, 0.5, seed=9)
        seen: dict[str, str] = {}
        for i in range(ds.n_cells):
            if ds.is_control[i]:
                continue
            cond = ds.condition_name[i]
            assert seen.setdefault(cond, split.labels[i]) == split.labels[i]

    def test_deterministic_given_seed(self):
        ds = _split_fixture(8)
        a = split_unseen_perturbation(ds, 0.8, seed=7)
        b = split_unseen_perturbation(ds, 0.8, seed=7)
        assert np.array_equal(a.labels, b.labels)

    def test_every_cell_labelled(self):
        ds = _split_fixture(5)
        split = split_unseen_perturbation(ds, 0.8, seed=0)
        assert set(split.labels.tolist()) <= {"train", "val", "test"}
        assert len(split.labels) == ds.n_cells

    def test_controls_follow_cell_count_ratios(self):
        ds = _split_fixture(10, cells_per=4, n_control=40)
        split = split_unseen_perturbation(ds, 0.8, seed=2)
        ctrl = ds.is_control
        pert_counts = {
            lab: int(np.sum((split.labels == lab) & ~ctrl))
            for lab in ("train", "val", "test")
        }
        total_pert = sum(pert_counts.values())
        n_ctrl = int(ctrl.sum())
        for lab in ("train", "val", "test"):
            got = int(np.sum((split.labels == lab) & ctrl))
            expected = pert_counts[lab] / total_pert * n_ctrl
            assert abs(got - expected) <= 1.0

    def test_too_few_conditions(self):
        ds = _split_fixture(1)
        with pytest.raises(ParameterError):
            split_unseen_perturbation(ds, 0.8, seed=0)


class TestSplitUnseenCell:
    def _dataset(self):
        ds = small_canonical({"control": [[1.0, 1.0]] * 6, "A": [[2.0, 2.0]] * 12})
        cell_type = np.array(["K562"] * 4 + ["MCF7"] * 4 + ["A549"] * 10, dtype=object)
        return replace(ds, cell_type=cell_type)

    def test_other_types_all_train(self):
        ds = self._dataset()
        split = split_unseen_cell(ds, "A549", seed=1)
        others = ds.cell_type != "A549"
        assert set(split.labels[others].tolist()) == {"train"}

    def test_holdout_half_val_half_test(self):
        ds = self._dataset()
        split = split_unseen_cell(ds, "A549", seed=1)
        holdout = split.labels[ds.cell_type == "A549"]
        assert int(np.sum(holdout == "val")) == 5
        assert int(np.sum(holdout == "test")) == 5

    def test_deterministic(self):
        ds = self._dataset()
        a = split_unseen_cell(ds, "A549", seed=8)
        b = split_unseen_cell(ds, "A549", seed=8)
        assert np.array_equal(a.labels, b.labels)

    def test_unknown_cell_type(self):
        ds = self._dataset()
        with pytest.raises(ParameterError, match="HEK293"):
            split_unseen_cell(ds, "HEK293", seed=0)

    @pytest.mark.parametrize("held_out", ["T\x00", "T"])
    def test_a_type_ending_in_nul_is_its_own_type(self, held_out):
        ds = small_canonical({"control": [[1.0, 1.0]] * 2, "A": [[2.0, 2.0]] * 2})
        cell_type = np.array(["T\x00", "T", "T", "T\x00"], dtype=object)
        split = split_unseen_cell(replace(ds, cell_type=cell_type), held_out, seed=0)
        held = np.array([t == held_out for t in cell_type.tolist()])
        assert set(split.labels[~held].tolist()) == {"train"}
        assert sorted(split.labels[held].tolist()) == ["test", "val"]


# 0.0, -0.0, 1.0, and NaNs of three payloads
_DOSE_BITS = [0, 0x8000_0000_0000_0000, 0x3FF0_0000_0000_0000,
              0x7FF8_0000_0000_0000, 0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0000]


class TestCanonicalCsr:
    """The perturbation arrays must be CSR over the vocabulary."""

    @pytest.mark.parametrize(
        "indptr, indices, message",
        [
            ([0, 0], [], r"pert_indptr has shape \(2,\), expected \(3,\)"),
            ([1, 1, 1], [], "pert_indptr starts at 1, expected 0"),
            ([0, 1, 0], [], "pert_indptr decreases from 1 to 0 at row 1"),
            ([0, 0, 2], [0], r"pert_indptr ends at 2, but pert_indices has shape \(1,\)"),
            ([0, 0, 1], [-1], r"pert_indices\[0\] = -1 lies outside \[0, 2\)"),
            ([0, 0, 1], [2], r"pert_indices\[0\] = 2 lies outside \[0, 2\)"),
            ([0, 0, 2], [1, 1], "not strictly increasing in row 1"),
            ([0, 0, 2], [1, 0], "not strictly increasing in row 1"),
        ],
    )
    def test_malformed_arrays_rejected(self, indptr, indices, message):
        ds = small_canonical({"control": [[1.0]], "A": [[2.0]]}, vocab=("A", "B"))
        with pytest.raises(ValidationError, match=message):
            replace(ds, pert_indptr=indptr, pert_indices=indices,
                    pert_values=np.zeros(len(indices)))

    def test_an_extra_column_may_not_name_a_canonical_one(self):
        ds = small_canonical({"control": [[1.0]], "A": [[2.0]]})
        extra = {"cell_type": np.array(["OTHER", "OTHER"], dtype=object)}
        with pytest.raises(ValidationError, match="extra obs column 'cell_type' is a canonical"):
            replace(ds, extra_obs=extra)

    def test_a_perturbation_named_twice_is_rejected(self):
        ds = small_canonical({"control": [[1.0]], "A": [[2.0]]}, vocab=("A", "B"))
        with pytest.raises(ValidationError, match="pert_vocab names 'B' twice"):
            replace(ds, pert_vocab=("B", "A", "B"))

    def test_rows_may_restart_lower_and_skip(self):
        ds = small_canonical({"control": [[1.0]] * 2, "A": [[2.0]]}, vocab=("A", "B"))
        ds = replace(ds, pert_indptr=[0, 2, 2, 3], pert_indices=[0, 1, 0],
                     pert_values=[1.0, -0.0, 5.0])
        assert ds.pert_mask.tolist() == [[1, 1], [0, 0], [1, 0]]
        assert ds.pert_dose.tobytes() == np.array([[1.0, -0.0], [0.0, 0.0], [5.0, 0.0]]).tobytes()
        assert not ds.pert_mask.flags.writeable and not ds.pert_dose.flags.writeable

    def test_pattern_rows_key_on_exact_dose_bytes(self):
        rows = first_pattern_rows(
            np.array([0, 1, 2, 3, 3, 5]), np.array([0, 0, 0, 0, 1]),
            np.array([0.0, -0.0, 0.0, 0.0, 0.0]),
        )
        assert rows.tolist() == [0, 1, 0, 3, 4]

    @given(
        rows=st.lists(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, len(_DOSE_BITS) - 1)),
                     max_size=3),
            max_size=40,
        ),
        huge_columns=st.booleans(),
    )
    @example(rows=[], huge_columns=False)
    @example(rows=[[(j, d), (0, d)] for j in range(4) for d in range(len(_DOSE_BITS))],
             huge_columns=True)
    @settings(max_examples=300, deadline=None)
    def test_pattern_rows_match_the_per_row_dict(self, rows, huge_columns):
        # columns near 2**59 put rows * pair codes past int64, so the pairs are re-coded
        offset = 2**59 if huge_columns else 0
        indptr = np.cumsum([0] + [len(row) for row in rows])
        indices = np.array([offset + j for row in rows for j, _ in row], dtype=np.int64)
        values = np.array([_DOSE_BITS[d] for row in rows for _, d in row],
                          dtype=np.uint64).view(np.float64)
        want = reference_first_pattern_rows(indptr, indices, values)
        got = first_pattern_rows(indptr, indices, values)
        assert got.dtype == np.intp and got.tolist() == want.tolist()

    def test_pattern_keys_that_would_wrap_are_recoded(self):
        # two doses and 2**62 columns give 2**63 pair codes, so packing each
        # row's second entry onto its first would wrap rows 0 and 2 onto one key
        top = 2**62 - 1
        indptr = np.array([0, 2, 4, 6, 8, 9])
        indices = np.array([top - 3, top, top - 2, top, top - 1, top, top, top, top])
        values = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        rows = first_pattern_rows(indptr, indices, values)
        assert rows.tolist() == reference_first_pattern_rows(indptr, indices, values).tolist()
        assert rows.tolist() == [0, 1, 2, 3, 4]


class TestValidateCanonical:
    def test_valid_fixture_gives_empty_report(self):
        ds = small_canonical({"control": [[1.0, 2.0]], "A": [[2.0, 1.0]]})
        assert validate_canonical(ds).ok

    def test_control_with_mask_names_row(self):
        ds = small_canonical({"control": [[1.0, 2.0]], "A": [[2.0, 1.0]]})
        mask = ds.pert_mask.copy()
        mask[0, 0] = 1  # row 0 is the control cell
        report = validate_canonical(replace(ds, **csr_from_dense(mask, ds.pert_dose)))
        assert any(i.code == "control_with_mask" for i in report.issues)
        assert any("cell 0" in i.message for i in report.issues)

    def test_duplicate_ensembl_names_both_rows(self):
        ds = small_canonical({"control": [[1.0, 2.0]], "A": [[2.0, 1.0]]})
        bad = replace(ds, ensembl_id=np.array(["E1", "E1"], dtype=object))
        report = validate_canonical(bad)
        assert any(
            i.code == "duplicate_ensembl_id" and "0" in i.message and "1" in i.message
            for i in report.issues
        )

    def test_negative_expression(self):
        ds = small_canonical({"control": [[1.0, 2.0]], "A": [[2.0, 1.0]]})
        X = ds.X.copy()
        X[1, 1] = -0.1
        report = validate_canonical(replace(ds, X=X))
        assert any(i.code == "negative_expression" for i in report.issues)

    def test_condition_name_conflict_on_shared_pattern(self):
        # two control cells share the all-zero pattern but carry two names
        ds = small_canonical(
            {"control": [[1.0, 1.0], [1.0, 1.0]], "A": [[2.0, 2.0]]}
        )
        names = ds.condition_name.copy()
        names[1] = "vehicle"
        report = validate_canonical(replace(ds, condition_name=names))
        assert any(i.code == "condition_name_conflict" for i in report.issues)

    def test_non_finite_expression_and_dose(self):
        ds = small_canonical({"control": [[1.0, 2.0]], "A": [[2.0, 1.0]]})
        X = ds.X.copy()
        X[0, 1] = np.nan
        report = validate_canonical(replace(ds, X=X, pert_values=[np.nan]))
        messages = [i.message for i in report.issues if i.code == "non_finite"]
        assert messages == [
            "X[0, 1] = nan is not finite (1 entries)",
            "pert_dose[1, 0] = nan is not finite (1 entries)",
        ]

    def test_infinite_expression_is_non_finite(self):
        ds = small_canonical({"control": [[1.0, 2.0]], "A": [[2.0, 1.0]]})
        X = ds.X.copy()
        X[1, 0] = np.inf
        report = validate_canonical(replace(ds, X=X))
        assert [i.code for i in report.issues] == ["non_finite"]
