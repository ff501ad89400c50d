"""Dataset model: raw tables, the canonical schema, pseudo-bulk, and splits.

A canonical dataset carries a normalized+log1p expression matrix, the six
standardized cell-metadata columns, a sparse multi-hot perturbation mask
with a dose in nM per set bit, and Ensembl-indexed gene metadata. All
containers are frozen after construction; every operation here is pure.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError

PERT_TYPES = ("drug", "crispr", "mixed", "control")
SPLIT_LABELS = ("train", "val", "test")

CANONICAL_OBS_KEYS = (
    "cell_type",
    "batch_id",
    "donor_id",
    "pert_type",
    "is_control",
    "condition_name",
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


_KINDS = {"b": "bool", "f": "float", "i": "float", "u": "float"}


def column_kind(column: np.ndarray) -> str:
    """A column's value type as mapping expressions and raw bundles name it."""
    return _KINDS.get(column.dtype.kind, "str")


def cast_column(column: np.ndarray, target: str) -> np.ndarray:
    """Cast a column to "float" or "str" values.

    A str column whose value does not read as a float raises ``ValueError``
    naming the value and its row. A column of Python strings casts to "str"
    as a copy; any other becomes the object column of each value's ``str``.
    """
    if target == "float":
        if column_kind(column) != "str":
            return column.astype(np.float64)
        try:
            return np.array(list(map(float, column.tolist())), dtype=np.float64)
        except (TypeError, ValueError):
            # find and name the first row that does not cast
            for i, v in enumerate(column):
                try:
                    float(v)
                except (TypeError, ValueError):
                    raise ValueError(f"cannot cast value {v!r} at row {i} to float") from None
    if target == "str":
        cells = column.tolist()
        if column.dtype == object and set(map(type, cells)) <= {str}:
            return column.copy()
        return np.array(list(map(str, cells)), dtype=object)
    raise ValueError(f"unknown cast target {target!r}")


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values, and each value's index into them.

    Equals ``np.unique(values, return_inverse=True)`` for a 1-D object array
    of ``str``, but sorts only the distinct values and looks each value up
    in a dict, where ``np.unique`` sorts every value with Python comparisons.
    """
    cells = values.tolist()
    labels = sorted(dict.fromkeys(cells))
    code_of = {label: i for i, label in enumerate(labels)}
    codes = np.fromiter(map(code_of.__getitem__, cells), dtype=np.intp, count=len(cells))
    return np.array(labels, dtype=object), codes


@dataclass(frozen=True)
class RawTable:
    """An unharmonized dataset: per-cell metadata columns plus expression.

    ``obs`` maps column name to a 1-D array (string, float, or bool) of
    length n_cells. ``var_index`` holds the gene identifier column;
    ``var_columns`` holds any further gene metadata.
    """

    obs: dict[str, np.ndarray]
    var_index: np.ndarray
    var_columns: dict[str, np.ndarray] = field(default_factory=dict)
    X: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.X is None:
            raise ValidationError("RawTable requires an expression matrix X")
        X = np.asarray(self.X, dtype=np.float64)
        object.__setattr__(self, "X", _freeze(X))
        object.__setattr__(
            self, "obs", {k: _freeze(np.asarray(v)) for k, v in self.obs.items()}
        )
        object.__setattr__(self, "var_index", _freeze(np.asarray(self.var_index)))
        object.__setattr__(
            self,
            "var_columns",
            {k: _freeze(np.asarray(v)) for k, v in self.var_columns.items()},
        )
        n_cells, n_genes = self.X.shape
        for name, col in self.obs.items():
            if col.shape != (n_cells,):
                raise ValidationError(
                    f"obs column {name!r} has length {col.shape}, expected ({n_cells},)"
                )
        if self.var_index.shape != (n_genes,):
            raise ValidationError(
                f"var index has length {self.var_index.shape[0]}, expected {n_genes}"
            )
        for name, col in self.var_columns.items():
            if col.shape != (n_genes,):
                raise ValidationError(
                    f"var column {name!r} has length {col.shape[0]}, expected {n_genes}"
                )

    @property
    def n_cells(self) -> int:
        return self.X.shape[0]

    @property
    def n_genes(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class CanonicalDataset:
    """A dataset aligned to the canonical perturbation schema.

    Perturbations are CSR: cell ``i`` holds entries ``pert_indptr[i]:pert_indptr[i + 1]``
    of ``pert_indices`` (columns, increasing) and ``pert_values`` (doses, may be 0.0).
    """

    cell_type: np.ndarray
    batch_id: np.ndarray
    donor_id: np.ndarray
    pert_type: np.ndarray
    is_control: np.ndarray
    condition_name: np.ndarray
    X: np.ndarray
    pert_indptr: np.ndarray
    pert_indices: np.ndarray
    pert_values: np.ndarray
    ensembl_id: np.ndarray
    gene_symbol: np.ndarray
    pert_vocab: tuple[str, ...]
    extra_obs: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.condition_name)
        dtypes = dict.fromkeys(CANONICAL_OBS_KEYS + ("ensembl_id", "gene_symbol"), object)
        dtypes.update(is_control=bool, X=np.float64, pert_indptr=np.int64,
                      pert_indices=np.int64, pert_values=np.float64)
        for name, dtype in dtypes.items():
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype)))
        object.__setattr__(self, "pert_vocab", tuple(self.pert_vocab))
        object.__setattr__(
            self,
            "extra_obs",
            {k: _freeze(np.asarray(v, dtype=object)) for k, v in self.extra_obs.items()},
        )
        p = len(self.pert_vocab)
        if len(set(self.pert_vocab)) != p:
            twice = next(name for name in self.pert_vocab if self.pert_vocab.count(name) > 1)
            raise ValidationError(f"pert_vocab names {twice!r} twice")
        g = self.X.shape[1] if self.X.ndim == 2 else -1
        if self.X.ndim != 2 or self.X.shape[0] != n:
            raise ValidationError(f"X has shape {self.X.shape}, expected ({n}, genes)")
        for name in ("cell_type", "batch_id", "donor_id", "pert_type", "is_control"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"obs column {name!r} length mismatch")
        _check_csr(self.pert_indptr, self.pert_indices, self.pert_values, n, p)
        if len(self.ensembl_id) != g or len(self.gene_symbol) != g:
            raise ValidationError("var columns do not match gene count")
        for name, col in self.extra_obs.items():
            if name in CANONICAL_OBS_KEYS:
                raise ValidationError(f"extra obs column {name!r} is a canonical obs column")
            if len(col) != n:
                raise ValidationError(f"extra obs column {name!r} length mismatch")

    @property
    def n_cells(self) -> int:
        return self.X.shape[0]

    @property
    def n_genes(self) -> int:
        return self.X.shape[1]

    @property
    def n_perts(self) -> int:
        return len(self.pert_vocab)

    # dense (n, p) views, built on each access in O(n * p): for tests and
    # outside readers only
    @property
    def pert_mask(self) -> np.ndarray:
        return self._dense(np.uint8, 1)

    @property
    def pert_dose(self) -> np.ndarray:
        return self._dense(np.float64, self.pert_values)

    def _dense(self, dtype, fill) -> np.ndarray:
        out = np.zeros((self.n_cells, self.n_perts), dtype=dtype)
        out[entry_rows(self.pert_indptr), self.pert_indices] = fill
        return _freeze(out)

    def obs_columns(self) -> dict[str, np.ndarray]:
        """All obs columns (canonical first, then extras) in a fixed order."""
        cols: dict[str, np.ndarray] = {k: getattr(self, k) for k in CANONICAL_OBS_KEYS}
        cols.update(self.extra_obs)
        return cols


@dataclass(frozen=True)
class SplitAssignment:
    """Per-cell train/val/test labels."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=object)
        bad = set(labels.tolist()) - set(SPLIT_LABELS)
        if bad:
            raise ValidationError(f"unknown split labels: {sorted(bad)}")
        object.__setattr__(self, "labels", _freeze(labels))

    def indices(self, label: str) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        return "\n".join(f"[{i.code}] {i.message}" for i in self.issues)


def _check_csr(indptr, indices, values, n: int, p: int) -> None:
    """Raise ``ValidationError`` unless the arrays are n rows of CSR over p columns."""
    if indptr.shape != (n + 1,):
        raise ValidationError(f"pert_indptr has shape {indptr.shape}, expected ({n + 1},)")
    if indptr[0] != 0:
        raise ValidationError(f"pert_indptr starts at {indptr[0]}, expected 0")
    down = np.flatnonzero(np.diff(indptr) < 0)
    if down.size:
        i = down[0]
        raise ValidationError(
            f"pert_indptr decreases from {indptr[i]} to {indptr[i + 1]} at row {i}"
        )
    nnz = indptr[-1]
    if indices.shape != (nnz,) or values.shape != (nnz,):
        raise ValidationError(f"pert_indptr ends at {nnz}, but pert_indices has shape "
                              f"{indices.shape} and pert_values {values.shape}")
    outside = np.flatnonzero((indices < 0) | (indices >= p))
    if outside.size:
        k = outside[0]
        raise ValidationError(f"pert_indices[{k}] = {indices[k]} lies outside [0, {p})")
    rows = entry_rows(indptr)
    unsorted = np.flatnonzero((np.diff(indices) <= 0) & (np.diff(rows) == 0)) + 1
    if unsorted.size:
        k = unsorted[0]
        raise ValidationError(f"pert_indices are not strictly increasing in row {rows[k]} "
                              f"(entry {k} holds {indices[k]} after {indices[k - 1]})")


def entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of each CSR entry."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _row_halves(n: int, work) -> list:
    """``[work(0, n // 2), work(n // 2, n)]``, the first on a worker thread.

    The second half runs on the calling thread, so two cores share a
    memory-bound pass over rows. Leaving the executor joins the worker, and
    ``result()`` raises its error here. ``work`` sets any ``np.errstate`` it
    needs itself: the caller's does not reach the worker thread.
    """
    mid = n // 2
    with ThreadPoolExecutor(1, thread_name_prefix="row-half") as pool:
        first = pool.submit(work, 0, mid)
        second = work(mid, n)
    return [first.result(), second]


def _x_faults(X: np.ndarray):
    """The first negative cell of 2-D ``X``, its first non-finite cell, and its row sums.

    A cell is ``(row, column, count of such cells)``, or ``None`` if there
    is none. One scan over two halves of the rows takes the least non-NaN
    entry and the row sums: a negative entry makes the least one negative,
    and a NaN or infinite entry, or a row past the float64 range, makes its
    row's sum non-finite. The n x g mask that names a cell is built only then.
    """
    sums = np.empty(X.shape[0])

    def scan(lo: int, hi: int) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            X[lo:hi].sum(axis=1, out=sums[lo:hi])
            return float(np.fmin.reduce(X[lo:hi], axis=None, initial=0.0))

    def first(bad: np.ndarray) -> tuple[int, int, int] | None:
        if not bad.any():
            return None
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        return int(i), int(j), int(np.count_nonzero(bad))

    negative = first(X < 0) if min(_row_halves(X.shape[0], scan)) < 0 else None
    nonfinite = None if np.isfinite(sums).all() else first(~np.isfinite(X))
    return negative, nonfinite, sums


def first_pattern_rows(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each CSR row, the index of the first row with the same entries.

    A row is keyed by its (column, dose bits) pairs, so 0.0 and -0.0 doses,
    and NaNs of different payloads, are different patterns; this is the
    grouping of the rows' dense mask and dose bytes. Rows are grouped by
    length, and the rows of one length by an int64 key that packs the codes
    of their entries' pairs (dose code times column count plus column,
    which fits, as columns index a vocabulary). The key is re-densified
    before each further entry, so it stays below the row count times the
    number of pair codes; where that product could pass int64, the pairs
    are re-coded below the entry count first.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indptr) - 1
    # a copy of the dose bits, coded in place, then made the pair codes
    pair = _dense_codes(np.array(values, dtype=np.float64).view(np.int64))
    n_cols = int(indices.max(initial=-1)) + 1
    n_pairs = (int(pair.max(initial=-1)) + 1) * n_cols
    pair *= n_cols
    pair += indices
    if n * n_pairs >= 2**63:
        pair, n_pairs = _dense_codes(pair), len(pair)
    lengths = np.diff(indptr)
    first = np.empty(n, dtype=np.intp)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        at = indptr[rows]  # each row's next entry
        key = pair[at] if length else np.zeros(len(rows), dtype=np.int64)
        for _ in range(1, length):
            at += 1
            key = _dense_codes(key)
            key *= n_pairs
            key += pair[at]
        del at
        group = _dense_codes(key)
        group_first = np.full(len(rows), n, dtype=np.intp)
        np.minimum.at(group_first, group, rows)
        first[rows] = group_first[group]
    return first


def _dense_codes(x: np.ndarray) -> np.ndarray:
    """Int64 ``x`` with each value replaced in place by its index among
    the sorted distinct values of ``x``; returns ``x``."""
    order = np.argsort(x)
    ordered = x[order]
    # the code of each sorted value, written over the sorted values
    np.cumsum(ordered[1:] != ordered[:-1], out=ordered[1:])
    ordered[:1] = 0
    x[order] = ordered
    return x


def normalize_log1p(
    X: np.ndarray,
    target_sum: float,
    is_already_log1p: bool,
    normalization_required: bool,
) -> np.ndarray:
    """Total-count normalize each row to ``target_sum``, then apply log1p.

    Negative and non-finite (NaN, inf) values raise ``ValidationError``
    naming the first offending cell. When ``is_already_log1p`` is set the
    matrix is returned unchanged. When ``normalization_required`` is false
    the scaling step is skipped but log1p still applies. Rows summing to
    zero pass through unscaled (empty droplets must not abort a batch job);
    the same applies to rows so close to zero that the scale factor would
    overflow. A row whose sum, or whose sum scaled to ``target_sum``,
    overflows float64 raises ``ValidationError`` naming the row.

    The checks (one ``_x_faults`` scan) and the transform each split the
    rows in two halves, one on a worker thread and one on the calling
    thread. Every step is per row or per entry, so the result does not
    depend on the split; on one core the two halves take turns and the pass
    costs what one thread's would.
    """
    # in C order each row adds up the same way whichever half it falls in
    X = np.ascontiguousarray(X, dtype=np.float64)
    if not 0 < target_sum < math.inf:
        raise ParameterError(f"target_sum must be finite and positive, got {target_sum}")
    negative, nonfinite, sums = _x_faults(X)
    if negative:
        i, j, _ = negative
        raise ValidationError(
            f"negative expression value {X[i, j]} at cell X[{i}, {j}]"
        )
    if nonfinite:
        i, j, _ = nonfinite
        raise ValidationError(
            f"non-finite expression value {X[i, j]} at cell X[{i}, {j}]"
        )
    if is_already_log1p:
        return X
    factor = None
    if normalization_required:
        # an infinite sum of finite values is an overflow, which only scaling refuses
        overflow = np.flatnonzero(~np.isfinite(sums))
        if overflow.size:
            raise ValidationError(
                f"expression row X[{overflow[0]}] sums past the float64 range; "
                f"{overflow.size} row(s) cannot be normalized"
            )
        with np.errstate(over="ignore", divide="ignore"):
            scale = np.divide(target_sum, sums, out=np.zeros_like(sums), where=sums > 0)
        # unusable rows are scaled by exactly 1.0, which leaves their bits unchanged
        factor = np.where((sums > 0) & np.isfinite(scale), scale, 1.0)
        # no entry of a row scales past its scaled sum, so the sums are the whole check
        with np.errstate(over="ignore"):
            overflow = np.flatnonzero(np.isinf(sums * factor))
        if overflow.size:
            raise ValidationError(
                f"expression row X[{overflow[0]}] scaled to target_sum {target_sum} passes "
                f"the float64 range; {overflow.size} row(s) cannot be normalized"
            )
        factor = factor[:, None]
    out = np.empty_like(X)

    def transform(lo: int, hi: int) -> None:
        rows = out[lo:hi]
        if factor is None:
            np.log1p(X[lo:hi], out=rows)
        else:
            np.multiply(X[lo:hi], factor[lo:hi], out=rows)
            np.log1p(rows, out=rows)

    _row_halves(len(X), transform)
    return out


def column_means(X: np.ndarray) -> np.ndarray:
    """``X.mean(axis=0)`` of a matrix with rows; a column whose sum overflows
    is divided by its largest magnitude first and its mean scaled back, so
    the mean of finite values is finite. NaN and inf pass through."""
    with np.errstate(over="ignore"):
        means = X.mean(axis=0)
    bad = np.flatnonzero(~np.isfinite(means))
    if bad.size:
        peak = np.abs(X[:, bad]).max(axis=0)
        cols, peak = bad[np.isfinite(peak)], peak[np.isfinite(peak)]
        means[cols] = peak * (X[:, cols] / peak).mean(axis=0)
    return means


def pseudo_bulk(
    ds: CanonicalDataset, cells: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Per-condition mean expression profiles over a cell subset.

    ``cells`` is an array of cell indices, every cell by default. Returns
    the mean expression of each distinct condition_name present in the
    subset (control conditions included, under their own condition name),
    keyed by that name in sorted name order for determinism. A mean is
    taken by ``column_means``, so finite cells give a finite mean.
    """
    if cells is None:
        cells = np.arange(ds.n_cells)
    if cells.size == 0:
        raise ParameterError("cell subset is empty")
    names, codes = factorize(ds.condition_name[cells])
    # a stable sort keeps each condition's cells in their order in ``cells``
    grouped = cells[np.argsort(codes, kind="stable")]
    members = np.split(grouped, np.cumsum(np.bincount(codes))[:-1])
    return {cond: column_means(ds.X[member]) for cond, member in zip(names.tolist(), members)}


def _partition_by_cumulative_ratio(
    n_items: int, ratios: tuple[float, float, float]
) -> tuple[int, int, int]:
    """Split n_items into three groups matching ratios within one item."""
    total = sum(ratios)
    if total <= 0:
        return (n_items, 0, 0)
    r = [x / total for x in ratios]
    b1 = int(math.floor(r[0] * n_items + 0.5))
    b2 = int(math.floor((r[0] + r[1]) * n_items + 0.5))
    b1 = min(b1, n_items)
    b2 = min(max(b2, b1), n_items)
    return (b1, b2 - b1, n_items - b2)


def split_unseen_perturbation(
    ds: CanonicalDataset, train_frac: float, seed: int
) -> SplitAssignment:
    """Hold out whole perturbation conditions for validation and test.

    Non-control condition names are shuffled by a seeded permutation; the
    first floor(train_frac * n) go to train and the remainder alternate
    val/test starting with val. Control cells are shuffled separately and
    partitioned at the same effective cell-count ratios as the non-control
    cells.
    """
    if not (0 < train_frac < 1):
        raise ParameterError(f"train_frac must be in (0, 1), got {train_frac}")
    rng = np.random.default_rng(seed)
    control = ds.is_control
    noncontrol = np.flatnonzero(~control)
    conds, codes = factorize(ds.condition_name[noncontrol])
    if conds.size < 2:
        raise ParameterError(
            f"need at least 2 non-control conditions, found {conds.size}"
        )
    perm = rng.permutation(conds.size)
    n_train = int(math.floor(train_frac * conds.size))
    cond_labels = np.empty(conds.size, dtype=object)
    cond_labels[perm[:n_train]] = "train"
    cond_labels[perm[n_train::2]] = "val"
    cond_labels[perm[n_train + 1 :: 2]] = "test"

    labels = np.empty(ds.n_cells, dtype=object)
    labels[noncontrol] = cond_labels[codes]

    # controls follow the effective non-control cell-count ratios
    counts = tuple(np.count_nonzero(labels[noncontrol] == lab) for lab in SPLIT_LABELS)
    ctrl_idx = np.flatnonzero(control)
    shuffled_ctrl = ctrl_idx[rng.permutation(ctrl_idx.size)]
    n_tr, n_va, _ = _partition_by_cumulative_ratio(ctrl_idx.size, counts)
    labels[shuffled_ctrl[:n_tr]] = "train"
    labels[shuffled_ctrl[n_tr : n_tr + n_va]] = "val"
    labels[shuffled_ctrl[n_tr + n_va :]] = "test"
    return SplitAssignment(labels=labels)


def split_unseen_cell(ds: CanonicalDataset, holdout_cell_type: str, seed: int) -> SplitAssignment:
    """Reserve one cell type entirely for validation and test, half each (val rounds up)."""
    # by factorize, not ==: numpy's unicode dtype drops a trailing NUL
    types, codes = factorize(ds.cell_type)
    known = types.tolist()
    if holdout_cell_type not in known:
        raise ParameterError(
            f"cell type {holdout_cell_type!r} not present; known types: {known}"
        )
    holdout = codes == known.index(holdout_cell_type)
    n_hold = int(holdout.sum())
    rng = np.random.default_rng(seed)
    labels = np.empty(ds.n_cells, dtype=object)
    labels[~holdout] = "train"
    hold_idx = np.flatnonzero(holdout)
    shuffled = hold_idx[rng.permutation(n_hold)]
    n_val = (n_hold + 1) // 2
    labels[shuffled[:n_val]] = "val"
    labels[shuffled[n_val:]] = "test"
    return SplitAssignment(labels=labels)


def validate_canonical(ds: CanonicalDataset, *, x_checked: bool = False) -> ValidationReport:
    """Check every canonical-schema invariant; violations become report entries.

    The negative and non-finite checks of ``X`` are the one ``_x_faults``
    scan that ``normalize_log1p`` makes too. ``x_checked`` skips it, for an
    ``X`` returned by ``normalize_log1p``: it refuses what the scan would
    report, and its log1p of finite non-negative values is finite and
    non-negative.
    """
    first = first_pattern_rows(ds.pert_indptr, ds.pert_indices, ds.pert_values)
    return _canonical_report(ds, first, x_checked)


def _canonical_report(
    ds: CanonicalDataset, first: np.ndarray, x_checked: bool = False
) -> ValidationReport:
    """``validate_canonical`` given ``first_pattern_rows`` of ``ds``'s perturbations."""
    issues: list[ValidationIssue] = []

    ids = ds.ensembl_id.tolist()
    seen: dict[str, int] = {}
    for j, eid in enumerate(ids):
        if eid in seen:
            issues.append(
                ValidationIssue(
                    "duplicate_ensembl_id",
                    f"ensembl_id {eid!r} appears at gene rows {seen[eid]} and {j}",
                )
            )
        else:
            seen[eid] = j

    # the first entry in CSR order is the first in row-major order
    i_of, j_of, doses = entry_rows(ds.pert_indptr), ds.pert_indices, ds.pert_values
    neg_dose = np.flatnonzero(doses < 0)
    if neg_dose.size:
        k = neg_dose[0]
        issues.append(
            ValidationIssue(
                "negative_dose",
                f"pert_dose[{i_of[k]}, {j_of[k]}] = {doses[k]} is negative "
                f"({neg_dose.size} offending entries)",
            )
        )

    for i in np.flatnonzero(ds.is_control & (np.diff(ds.pert_indptr) > 0)):
        message = f"control cell {i} has a nonzero pert_mask row"
        issues.append(ValidationIssue("control_with_mask", message))

    if not x_checked:
        negative, nonfinite, _ = _x_faults(ds.X)
        if negative:
            i, j, count = negative
            issues.append(
                ValidationIssue(
                    "negative_expression",
                    f"X[{i}, {j}] = {ds.X[i, j]} is negative ({count} entries)",
                )
            )
        if nonfinite:
            i, j, count = nonfinite
            issues.append(
                ValidationIssue(
                    "non_finite", f"X[{i}, {j}] = {ds.X[i, j]} is not finite ({count} entries)"
                )
            )
    nonfinite = np.flatnonzero(~np.isfinite(doses))
    if nonfinite.size:
        k = nonfinite[0]
        issues.append(
            ValidationIssue(
                "non_finite",
                f"pert_dose[{i_of[k]}, {j_of[k]}] = {doses[k]} is not finite "
                f"({nonfinite.size} entries)",
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

    # identical perturbation patterns must share one condition name; each
    # pattern reports its first row whose name differs from its first row's
    names = ds.condition_name
    rows = np.flatnonzero(names[first] != names)
    _, pick = np.unique(first[rows], return_index=True)
    for i in np.sort(rows[pick]):
        f = first[i]
        issues.append(
            ValidationIssue(
                "condition_name_conflict",
                f"cells {f} and {i} share one mask/dose pattern but have "
                f"condition names {names[f]!r} and {names[i]!r}",
            )
        )

    return ValidationReport(issues=tuple(issues))
