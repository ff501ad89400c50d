"""Vectorized harmonize code against the per-cell loops it replaced.

Each test draws small inputs with hypothesis and requires the same bytes,
arrays, warnings and validation issues from the package as from the loop
references in ``helpers``. The draws favour the cases a value-keyed
shortcut would get wrong: ``-0.0`` against ``0.0`` (equal values,
different bytes), ``True``/``1``/``1.0`` (equal and equally hashed), blank
and empty combo parts, all-control tables and empty vocabularies.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    csr_from_dense,
    dataset_from_fields,
    obs_table,
    reference_merge_fields,
    reference_normalize_log1p,
    reference_perturbation_matrices,
    reference_read_tsv,
    reference_str_compare,
    reference_tsv_text,
    reference_validation_issues,
)
from pertpipe import data, dsl, unifier
from pertpipe.bundle import (
    _read_tsv,
    _tsv_bytes,
    bundle_digest,
    read_canonical_bundle,
    read_raw_bundle,
    write_canonical_bundle,
    write_raw_bundle,
)
from pertpipe.data import (
    CANONICAL_OBS_KEYS,
    CanonicalDataset,
    RawTable,
    ValidationReport,
    normalize_log1p,
    validate_canonical,
)
from pertpipe.errors import BundleFormatError, MappingError, ValidationError
from pertpipe.unifier import MappingSpec, apply_mapping, merge_datasets

_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.1, -2.5, 1e300, 5e-324, np.nan, np.inf, -np.inf])
_OBJECTS = st.one_of(
    st.text(alphabet="ab +\t\n\r", max_size=3),
    st.sampled_from(
        [True, False, 1, 0, 1.0, 0.0, -0.0, np.bool_(True), np.float64(-0.0),
         np.float32(0.1), np.int64(1), None, np.nan]
    ),
)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _obs_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and [type(v) for v in a.tolist()] == [
        type(v) for v in b.tolist()
    ] and a.tolist() == b.tolist()


# --------------------------------------------------------------------------
# bundle TSV text


@st.composite
def tsv_columns(draw):
    n = draw(st.integers(0, 5))
    columns = {}
    for k in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["f8", "f4", "bool", "i8", "u1", "U", "O"]))
        if kind in ("f8", "f4"):
            with np.errstate(over="ignore"):
                col = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n))).astype(kind)
        elif kind == "bool":
            col = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        elif kind in ("i8", "u1"):
            col = np.array(draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)), dtype=kind)
        elif kind == "U":
            text = st.text(alphabet="ab +\t\r", max_size=3)
            col = np.array(draw(st.lists(text, min_size=n, max_size=n)), dtype=str)
        else:
            col = np.empty(n, dtype=object)
            col[:] = draw(st.lists(_OBJECTS, min_size=n, max_size=n))
        columns[f"c{k}"] = col
    return columns


@given(tsv_columns())
@settings(max_examples=200, deadline=None)
@example({"m": np.array([-0.0, 0.0, True, 1, 1.0, "1"], dtype=object)})
@example({"f": np.array([-0.0, 0.0, 1.0]), "b": np.array([True, False, True])})
def test_tsv_text_matches_reference(columns):
    try:
        expected, error = reference_tsv_text(columns), None
    except BundleFormatError as exc:
        expected, error = None, str(exc)
    if error is not None:
        with pytest.raises(BundleFormatError) as info:
            _tsv_bytes(columns)
        assert str(info.value) == error
    else:
        assert _tsv_bytes(columns) == expected.encode()


_CELL = st.text(alphabet="ab \r", max_size=2)


@st.composite
def tsv_files(draw):
    """TSV text with unique column names: rows of the right width, blank
    lines, and rows one field short or long; "\r" is a newline to the reader."""
    names = draw(st.lists(st.text(alphabet="ab", max_size=2), min_size=1, max_size=4,
                          unique=True))
    k = len(names)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "short", "long"]))
        width = {"row": k, "blank": 0, "short": k - 1, "long": k + 1}[kind]
        lines.append("\t".join(draw(st.lists(_CELL, min_size=width, max_size=width))))
    text = "\n".join(["\t".join(names), *lines]) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return draw(st.sampled_from([text, "", "\n"]))


@given(tsv_files())
@settings(max_examples=300, deadline=None)
@example("a\n\nb\n\n")  # a one-column table keeps its empty rows
@example("a\tb\n\n1\t2\n\n3\n")  # the short row is line 5 of the file
@example("a\tb\n")
def test_tsv_reader_matches_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_text(text)
        try:
            expected, error = reference_read_tsv(path), None
        except BundleFormatError as exc:
            expected, error = None, str(exc)
        if error is None:
            n_rows = len(next(iter(expected.values())))
            assert _read_tsv(path, n_rows) == expected
            with pytest.raises(BundleFormatError, match=f"has {n_rows} rows, expected"):
                _read_tsv(path, n_rows + 1)
        else:
            with pytest.raises(BundleFormatError) as info:
                _read_tsv(path, 0)  # a refused file is refused before its rows are counted
            assert str(info.value) == error


# --------------------------------------------------------------------------
# normalize_log1p


@given(
    rows=st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 3.0, 1e6, 1e300, 1e308]),
                 min_size=3, max_size=3),
        min_size=0, max_size=7,
    ),
    offenders=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 2),
                  st.sampled_from([-1.0, -np.inf, np.nan, np.inf])),
        max_size=2,
    ),
    target=st.sampled_from([1.0, 1e4, 1e300]),
    already=st.booleans(),
    normalize=st.booleans(),
)
@settings(max_examples=200, deadline=None)
@example(rows=[[1e308, 1e308, 5.0]], offenders=[], target=1e4, already=False, normalize=True)
@example(rows=[[1.0] * 3] * 5, offenders=[(1, 0, np.nan), (3, 2, -1.0)], target=1e4,
         already=False, normalize=True)
@example(rows=[[1.0] * 3] * 4, offenders=[(3, 0, -np.inf), (1, 2, -1.0)], target=1e4,
         already=True, normalize=True)
def test_normalize_log1p_matches_reference(rows, offenders, target, already, normalize):
    # two 1e308 entries in a row sum past the float64 range, which is refused;
    # the rows split in two halves at len(rows) // 2, and offenders land in
    # either: the first negative cell in row-major order is named even after
    # a NaN in the first half
    X = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    for i, j, value in offenders:
        if i < len(X):
            X[i, j] = value
    try:
        expected = reference_normalize_log1p(X, target, already, normalize)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            normalize_log1p(X, target, already, normalize)
        assert str(info.value) == str(exc)
        return
    out = normalize_log1p(X, target, already, normalize)
    assert _same_bytes(out, expected)


# --------------------------------------------------------------------------
# apply_mapping: vocabulary, mask and dose


def _flat_spec(with_pert: bool, with_dose: bool) -> MappingSpec:
    doc = {
        "perturbation_type": "drug",
        "control_status": {"type": "direct", "source_key": "ctrl"},
        "numerical": {"is_already_log1p": True},
    }
    if with_pert:
        doc["perturbation_name"] = {"type": "direct", "source_key": "pert"}
    if with_dose:
        doc["dose_value"] = {"type": "direct", "source_key": "dose"}
    return MappingSpec.from_dict(doc)


def _table(labels, controls, doses):
    return RawTable(
        obs={
            "pert": np.array(labels, dtype=object),
            "ctrl": np.array(controls, dtype=bool),
            "dose": np.array(doses, dtype=np.float64),
        },
        var_index=np.array(["E0", "E1"], dtype=object),
        X=np.ones((len(labels), 2)),
    )


@st.composite
def mapping_tables(draw):
    n = draw(st.integers(1, 8))
    delimiter = draw(st.sampled_from(["+", "|"]))
    labels = draw(st.lists(st.text(alphabet="ab +|", max_size=5), min_size=n, max_size=n))
    controls = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    doses = draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, 7.0, 1e-300, np.nan]),
                          min_size=n, max_size=n))
    table = _table(labels, controls, doses)
    return table, delimiter, draw(st.booleans()), draw(st.booleans())


@given(mapping_tables())
@settings(max_examples=200, deadline=None)
@example((_table(["a", "b+a"], [True, True], [1.0, 2.0]), "+", True, True))  # all control
@example((_table(["", " + ", "+"], [False, False, False], [1.0, 1.0, 1.0]), "+", True, True))
@example((_table(["a", "a", "a+b"], [False, False, False], [-0.0, 0.0, -0.0]), "+", True, True))
def test_apply_mapping_matrices_match_reference(case):
    table, delimiter, with_pert, with_dose = case
    with pytest.MonkeyPatch.context() as mp:
        # compare the construction alone; validation has its own reference test
        mp.setattr(unifier, "validate_canonical", lambda ds, **_: ValidationReport(issues=()))
        ds = apply_mapping(table, _flat_spec(with_pert, with_dose), combo_delimiter=delimiter)
    vocab, mask, dose = reference_perturbation_matrices(
        table.obs["pert"] if with_pert else None,
        table.obs["ctrl"],
        table.obs["dose"] if with_dose else None,
        delimiter,
    )
    assert ds.pert_vocab == tuple(vocab)
    assert _same_bytes(ds.pert_mask, mask)
    assert _same_bytes(ds.pert_dose, dose)


def _reference_scalar_str(v) -> str:
    if isinstance(v, bool):
        return "True" if v else "False"
    return str(v)


@given(st.lists(_OBJECTS, min_size=1, max_size=6), st.sampled_from(["O", "f8", "bool"]))
@settings(max_examples=100, deadline=None)
def test_str_columns_match_reference(values, kind):
    if kind == "O":
        col = np.empty(len(values), dtype=object)
        col[:] = values
    else:
        col = np.array([float(v) if kind == "f8" else bool(v) for v in values
                        if not isinstance(v, str) and v is not None], dtype=kind)
    expected = [_reference_scalar_str(v) for v in col.tolist()]
    assert unifier._as_str_column(col, len(col)).tolist() == expected
    for v in [*values, "a\x00"]:  # numpy's unicode dtype drops trailing NULs
        assert unifier._as_str_column(v, 2).tolist() == [_reference_scalar_str(v)] * 2


# trailing NULs, which numpy's unicode dtype drops, but Python strings keep
_STR_TEXT = st.one_of(
    st.sampled_from(["", "a", "a\x00", "\x00", "a\x00\x00", "\x00a"]),
    st.text(alphabet="ab \t\x00", max_size=3),
)


@st.composite
def str_operands(draw, n):
    """An object column, a ``<U`` column or a string literal of the DSL."""
    kind = draw(st.sampled_from(["O", "U", "literal"]))
    if kind == "O":
        col = np.empty(n, dtype=object)
        col[:] = draw(st.lists(st.one_of(_OBJECTS, _STR_TEXT), min_size=n, max_size=n))
        return col
    if kind == "U":
        return np.array(draw(st.lists(_STR_TEXT, min_size=n, max_size=n)), dtype=str)
    return draw(_STR_TEXT)


@given(st.data(), st.integers(0, 5), st.sampled_from(["==", "!="]))
@settings(max_examples=200, deadline=None)
def test_str_comparison_matches_reference(data, n, op):
    lhs, rhs = data.draw(str_operands(n)), data.draw(str_operands(n))
    columns, nodes = {}, []
    for name, operand in (("l", lhs), ("r", rhs)):
        if isinstance(operand, np.ndarray):
            columns[name] = operand
            nodes.append(dsl.ColumnRef(name))
        else:
            nodes.append(dsl.StrLit(operand))
    got = dsl.evaluate(dsl.BinOp(op, *nodes), obs_table(columns, n))
    if not columns:  # two literals: a column of one repeated answer
        assert got.dtype == bool and got.tolist() == [(lhs == rhs) == (op == "==")] * n
        return
    expected = reference_str_compare(op, lhs, rhs)
    assert got.dtype == bool and got.tolist() == expected.tolist()


# --------------------------------------------------------------------------
# merge_datasets


@st.composite
def canonical_parts(draw, defects=False):
    """2-3 parts; ``defects`` adds values that break a canonical invariant.

    Doses are drawn for set mask bits only: CSR holds no other.
    """
    parts = []
    for i in range(draw(st.integers(2, 3))):
        n = draw(st.integers(0, 5))
        genes = ["E0"] + draw(st.lists(st.sampled_from(["E1", "E2", "E3"]), unique=True))
        genes = draw(st.permutations(genes))
        symbols = [draw(st.sampled_from(["s0", "s1"])) for _ in genes]
        # five names, so later parts get runs of merged columns that start past 0
        vocab = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), unique=True))
        p = len(vocab)
        mask = np.array(
            draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=p, max_size=p),
                          min_size=n, max_size=n)),
            dtype=np.uint8,
        ).reshape(n, p)
        on = st.sampled_from([0.0, -0.0, 1.0, 2.5] + ([-1.0, np.nan] if defects else []))
        dose = np.array(
            [[draw(on) if m else 0.0 for m in row] for row in mask.tolist()], dtype=np.float64
        ).reshape(n, p)
        control = [(defects or not row.any()) and draw(st.booleans()) for row in mask]
        pick = lambda pool: np.array(  # noqa: E731
            draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=object
        )
        extra = {}
        for key in draw(st.lists(st.sampled_from(["plate", "source_dataset"]), unique=True)):
            extra[key] = pick(["p0", "p1"])
        x_values = [0.0, -0.0, 1.0, 2.5] + ([-1.0, np.inf] if defects else [])
        parts.append(
            CanonicalDataset(
                cell_type=pick(["t0", "t1"]),
                batch_id=pick([f"b{i}"]),
                donor_id=pick(["d0"]),
                pert_type=np.array(
                    ["control" if c else draw(st.sampled_from(
                        ["drug", "bogus"] if defects else ["drug"])) for c in control],
                    dtype=object,
                ),
                is_control=np.array(control, dtype=bool),
                condition_name=pick(["x", "y", "z"]),
                X=np.array(
                    draw(st.lists(st.sampled_from(x_values),
                                  min_size=n * len(genes), max_size=n * len(genes)))
                ).reshape(n, len(genes)),
                **csr_from_dense(mask, dose),
                ensembl_id=np.array(genes, dtype=object),
                gene_symbol=np.array(symbols, dtype=object),
                pert_vocab=tuple(vocab),
                extra_obs=extra,
            )
        )
    return parts


def _merge_recording_report(parts):
    """``merge_datasets(parts)`` and the validation report the merge computed."""
    reports = []
    real = unifier._canonical_report

    def recording(ds, first):
        reports.append(real(ds, first))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unifier, "_canonical_report", recording)
        merged = merge_datasets(parts)
    return merged, reports


@given(canonical_parts())
@settings(max_examples=200, deadline=None)
def test_merge_matches_reference(parts):
    merged, reports = _merge_recording_report(parts)
    fields, warnings = reference_merge_fields(parts)
    assert list(merged.warnings) == warnings
    ds = merged.dataset
    for key in CANONICAL_OBS_KEYS:
        assert _obs_equal(getattr(ds, key), fields[key]), key
    for key in ("X", "pert_mask", "pert_dose"):
        assert _same_bytes(getattr(ds, key), fields[key]), key
    assert ds.ensembl_id.tolist() == fields["ensembl_id"].tolist()
    assert ds.gene_symbol.tolist() == fields["gene_symbol"].tolist()
    assert ds.pert_vocab == fields["pert_vocab"]
    assert ds.extra_obs.keys() == fields["extra_obs"].keys()
    for key, col in fields["extra_obs"].items():
        assert _obs_equal(ds.extra_obs[key], col), key
    # the merge validates with the grouping it renamed by; it must report what
    # validate_canonical reports
    assert reports == [validate_canonical(ds)]


@given(canonical_parts(defects=True))
@settings(max_examples=200, deadline=None)
def test_invalid_merge_raises_the_reference_report(parts):
    fields, _ = reference_merge_fields(parts)
    report = validate_canonical(dataset_from_fields(fields))
    if report.ok:
        merge_datasets(parts)
        return
    with pytest.raises(MappingError) as info:
        merge_datasets(parts)
    assert str(info.value) == "merged dataset violates canonical invariants:\n" + str(report)


@st.composite
def gene_layouts(draw):
    """Each part's gene ids: the shared genes cut into blocks, the blocks
    permuted, and private genes put between them, so the merged columns map
    to runs of consecutive source columns of every length."""
    shared = [f"S{j}" for j in range(draw(st.integers(1, 12)))]
    layouts = []
    for i in range(draw(st.integers(2, 3))):
        cuts = sorted(draw(st.sets(st.integers(1, len(shared) - 1), max_size=4))) \
            if len(shared) > 1 else []
        blocks = [shared[a:b] for a, b in zip([0, *cuts], [*cuts, len(shared)])]
        genes = []
        for j, block in enumerate(draw(st.permutations(blocks))):
            genes += [f"P{i}_{j}_{k}" for k in range(draw(st.integers(0, 2)))] + block
        layouts.append(genes + [f"P{i}_end"] * draw(st.integers(0, 1)))
    return layouts


@given(gene_layouts(), st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_merged_x_matches_per_cell_reference(layouts, counts, seed):
    # parts of 0 to 3 cells each, so the merged rows split in two halves
    # at a part boundary, inside a part or with one half empty
    rng = np.random.default_rng(seed)
    parts = []
    for genes, n in zip(layouts, counts):
        ctrl = np.full(n, "control", dtype=object)
        parts.append(CanonicalDataset(
            cell_type=ctrl, batch_id=ctrl, donor_id=ctrl, pert_type=ctrl,
            is_control=np.ones(n, dtype=bool), condition_name=ctrl,
            X=rng.random((n, len(genes))),
            **csr_from_dense(np.zeros((n, 0)), np.zeros((n, 0))),
            ensembl_id=np.array(genes, dtype=object),
            gene_symbol=np.array(genes, dtype=object),
            pert_vocab=(),
        ))
    merged = merge_datasets(parts).dataset
    gene_order = merged.ensembl_id.tolist()
    expected = np.empty((sum(part.n_cells for part in parts), len(gene_order)))
    row = 0
    for part in parts:
        col_of = {g: j for j, g in enumerate(part.ensembl_id.tolist())}
        for i in range(part.n_cells):
            for j, g in enumerate(gene_order):
                expected[row, j] = part.X[i, col_of[g]]
            row += 1
    assert sorted(gene_order) == sorted(g for g in layouts[0] if g.startswith("S"))
    assert merged.X.tobytes() == expected.tobytes()


# --------------------------------------------------------------------------
# validate_canonical


@st.composite
def canonical_datasets(draw, text=st.sampled_from(["x", "y"])):
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, 3))
    g = draw(st.integers(1, 3))

    def grid(values, rows, cols, dtype):
        flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=dtype).reshape(rows, cols)

    def column(values, dtype=object):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

    mask = grid(st.sampled_from([0, 1, 1]), n, p, np.uint8)
    dose = grid(st.sampled_from([0.0, 0.0, -0.0, 1.0, -1.0, np.nan, np.inf]), n, p, np.float64)

    return CanonicalDataset(
        cell_type=column(text),
        batch_id=column(text),
        donor_id=column(text),
        pert_type=column(st.sampled_from(["drug", "control", "bogus"])),
        is_control=column(st.booleans(), bool),
        condition_name=column(text),
        X=grid(_FLOATS, n, g, np.float64),
        **csr_from_dense(mask, np.where(mask == 1, dose, 0.0)),
        ensembl_id=np.array(draw(st.lists(st.sampled_from(["E0", "E1"]), min_size=g,
                                          max_size=g)), dtype=object),
        gene_symbol=np.array(["s"] * g, dtype=object),
        pert_vocab=tuple(f"v{j}" for j in range(p)),
        extra_obs={"plate": column(text)} if draw(st.booleans()) else {},
    )


def _two_conflicts_out_of_order() -> CanonicalDataset:
    # pattern groups {0, 3} and {1, 2}: the later group conflicts first
    n = 4
    text = np.array(["t"] * n, dtype=object)
    return CanonicalDataset(
        cell_type=text, batch_id=text, donor_id=text,
        pert_type=np.array(["drug"] * n, dtype=object),
        is_control=np.zeros(n, dtype=bool),
        condition_name=np.array(["x", "x", "y", "y"], dtype=object),
        X=np.ones((n, 1)),
        **csr_from_dense(np.array([[1], [0], [0], [1]]), np.zeros((n, 1))),
        ensembl_id=np.array(["E0"], dtype=object),
        gene_symbol=np.array(["s"], dtype=object),
        pert_vocab=("v0",),
    )


@given(canonical_datasets())
@settings(max_examples=200, deadline=None)
@example(_two_conflicts_out_of_order())
def test_validation_issues_match_reference(ds):
    report = validate_canonical(ds)
    issues = report.issues
    assert [i for i in issues if i.code != "non_finite"] == reference_validation_issues(ds)
    flagged = {i.message.split("[")[0] for i in issues if i.code == "non_finite"}
    expected = {name for name in ("X", "pert_dose")
                if not np.isfinite(getattr(ds, name)).all()}
    assert flagged == expected
    # each message names the first offender in row-major order of the dense
    # view, wherever the rows of X split in two halves
    for name in ("X", "pert_dose"):
        a = getattr(ds, name)
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            i, j = bad[0]
            message = f"{name}[{i}, {j}] = {a[i, j]} is not finite ({len(bad)} entries)"
            assert message in [x.message for x in issues if x.code == "non_finite"]
    # one pass over all rows on the calling thread reports the same
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_row_halves", lambda n, work: [work(0, n)])
        assert validate_canonical(ds) == report


# --------------------------------------------------------------------------
# bundle round trips


_SAFE_TEXT = st.text(alphabet="ab c+_-.", min_size=1, max_size=4)


@given(canonical_datasets(text=_SAFE_TEXT))
@settings(max_examples=100, deadline=None)
def test_canonical_bundle_round_trip_and_stable_digest(ds):
    with tempfile.TemporaryDirectory() as tmp:
        one, two, again = Path(tmp) / "one", Path(tmp) / "two", Path(tmp) / "again"
        write_canonical_bundle(ds, one)
        write_canonical_bundle(ds, two)
        back = read_canonical_bundle(one)
        for key in ("X", "pert_indptr", "pert_indices", "pert_values", "is_control"):
            assert _same_bytes(getattr(back, key), getattr(ds, key)), key
        for key in ("cell_type", "batch_id", "donor_id", "pert_type", "condition_name",
                    "ensembl_id", "gene_symbol"):
            assert getattr(back, key).tolist() == getattr(ds, key).tolist(), key
        assert back.pert_vocab == ds.pert_vocab
        assert {k: v.tolist() for k, v in back.extra_obs.items()} == {
            k: v.tolist() for k, v in ds.extra_obs.items()
        }
        write_canonical_bundle(back, again)
        assert bundle_digest(one) == bundle_digest(two) == bundle_digest(again)
        assert sorted(p.name for p in one.iterdir()) == [
            "X.f64", "bundle_digest.json", "manifest.json", "obs.tsv", "pert_dose.f64",
            "pert_indices.i64", "pert_indptr.i64", "var.tsv",
        ]


@st.composite
def raw_tables(draw):
    n = draw(st.integers(1, 5))
    obs = {}
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["float", "bool", "str"]))
        if kind == "float":
            obs[f"c{k}"] = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)))
        elif kind == "bool":
            obs[f"c{k}"] = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            obs[f"c{k}"] = np.array(
                draw(st.lists(_SAFE_TEXT, min_size=n, max_size=n)), dtype=object
            )
    g = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(_FLOATS, min_size=n * g, max_size=n * g))).reshape(n, g)
    return RawTable(
        obs=obs,
        var_index=np.array([f"E{j}" for j in range(g)], dtype=object),
        var_columns={"sym": np.array([f"S{j}" for j in range(g)], dtype=object)},
        X=X,
    )


@given(raw_tables())
@settings(max_examples=100, deadline=None)
def test_raw_bundle_round_trip_and_stable_digest(table):
    with tempfile.TemporaryDirectory() as tmp:
        one, again = Path(tmp) / "one", Path(tmp) / "again"
        write_raw_bundle(table, one)
        back = read_raw_bundle(one)
        assert back.obs.keys() == table.obs.keys()
        for key, col in table.obs.items():
            assert back.obs[key].dtype.kind == ("O" if col.dtype == object else col.dtype.kind)
            if col.dtype == object:
                assert back.obs[key].tolist() == col.tolist()
            else:
                assert _same_bytes(back.obs[key], col)
        assert _same_bytes(back.X, table.X)
        write_raw_bundle(back, again)
        assert bundle_digest(one) == bundle_digest(again)
