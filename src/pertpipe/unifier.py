"""Schema harmonization: previewing, mapping induction, application, merging.

A mapping specification describes how one raw table projects onto the
canonical schema: one table from each target to its entry, which is the
parsed tree of a mapping DSL expression, or ``None`` for an absent entry
that takes its documented default, itself a DSL literal. A bare column
name is the expression ``df['name']``, and a constant is a literal: the
text ``str(value)`` for a text target, and a string, boolean or number
literal for ``is_control`` and ``pert_dose_source``. So ``dsl.evaluate``
turns every target into a column. Specifications are induced by an LLM
from a schema preview, or loaded from JSON files; two surface forms are
accepted (a nested block layout and a flat per-key layout) and
normalized into one entry model. The specification keeps only what
``apply_mapping`` reads: a logic entry's description and the document's
data summary are accepted and dropped, and ``var.index_type`` is
checked, not kept.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import dsl
from .bundle import release_pages
from .data import (
    CANONICAL_OBS_KEYS,
    CanonicalDataset,
    PERT_TYPES,
    RawTable,
    _canonical_report,
    _row_halves,
    cast_column,
    column_kind,
    entry_rows,
    factorize,
    first_pattern_rows,
    normalize_log1p,
    validate_canonical,
)
from .errors import LlmReplyError, MappingError, ParameterError
from .llm import LlmClient

# wire-format key for the nested mapping surface form
UNIFIED_MAPPING_KEY = "uscp_mapping"

RAW_COUNTS_THRESHOLD = 50.0

_FLAT_ALIASES = {
    "perturbation_type": "pert_type",
    "perturbation_name": "pert_mask_source",
    "dose_value": "pert_dose_source",
    "control_status": "is_control",
    "cell_line": "cell_line",
    "cell_type": "cell_type",
    "batch_id": "batch_id",
    "donor_id": "donor_id",
    "condition_name": "condition_name",
    "is_control": "is_control",
    "pert_type": "pert_type",
}
# obs keys whose bare value is a mapping expression ("<key>_logic" when nested)
_BARE_LOGIC = ("is_control", "condition_name")
# the targets beside the obs keys: where perturbation names and doses come from
_SOURCES = ("pert_mask_source", "pert_dose_source")


# --------------------------------------------------------------------------
# mapping entries

# None is an absent entry, which takes its key's default
MappingEntry = dsl.Expr | None


@dataclass(frozen=True)
class MappingSpec:
    """Normalized mapping from one raw schema to the canonical schema."""

    # an entry per canonical obs key, then pert_mask_source and pert_dose_source
    entries: dict[str, MappingEntry]
    gene_symbol_col: str | None
    is_already_log1p: bool
    normalization_required: bool
    target_sum: float
    # sha256 of the text from_json parsed; None for a spec built another way
    digest: str | None = field(default=None, init=False, compare=False)

    @classmethod
    def from_json(cls, text: str, raw_response: str | None = None) -> "MappingSpec":
        """Parse and check a mapping; sets ``digest`` to the sha256 of ``text``."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError or an over-long integer
            error = MappingError if raw_response is None else LlmReplyError
            raise error(f"mapping is not valid JSON: {exc}", raw_response) from exc
        if not isinstance(doc, dict):
            raise MappingError("mapping JSON must be an object", raw_response)
        spec = cls.from_dict(doc, raw_response)
        # surrogatepass: an LLM reply may hold a lone surrogate that JSON escaped
        data = text.encode("utf-8", "surrogatepass")
        object.__setattr__(spec, "digest", hashlib.sha256(data).hexdigest())
        return spec

    @classmethod
    def from_dict(cls, doc: dict, raw_response: str | None = None) -> "MappingSpec":
        violations: list[str] = []
        if UNIFIED_MAPPING_KEY in doc or "obs" in doc:
            spec = _parse_nested(doc, violations)
        elif any(k in doc for k in _FLAT_ALIASES):
            spec = _parse_flat(doc, violations)
        else:
            violations.append(
                f"missing blocks: expected {UNIFIED_MAPPING_KEY!r} with an 'obs' "
                f"block, or flat per-key entries"
            )
            spec = None
        if violations:
            raise MappingError(
                "mapping specification invalid:\n- " + "\n- ".join(violations),
                raw_response,
            )
        assert spec is not None
        return spec


def _entry(target: str, value, label: str, violations: list[str]) -> MappingEntry:
    """The entry for ``target`` in either surface form.

    A bare value is a constant for ``pert_type``, a mapping expression for
    ``is_control`` and ``condition_name``, and a column reference otherwise.
    """
    if isinstance(value, dict):
        etype = value.get("type")
        if etype == "direct":
            source = value.get("source_key")
            if not isinstance(source, str) or not source:
                violations.append(f"{label}: direct entry missing source_key")
                return None
            return dsl.ColumnRef(source)
        if etype == "logic":
            expression = value.get("expression")
            if not isinstance(expression, str) or not expression:
                violations.append(f"{label}: logic entry missing expression")
                return None
            return _logic_entry(expression, label, violations)
        if etype == "constant":
            if "value" not in value:
                violations.append(f"{label}: constant entry missing value")
                return None
            return _literal(target, value["value"], label, violations)
        violations.append(f"{label}: unknown entry type {etype!r}")
        return None
    if value in (None, "None") or (value == "" and target != "pert_type"):
        return None
    if target == "pert_type":
        return _literal(target, value, label, violations)
    if target in _BARE_LOGIC:
        return _logic_entry(str(value), label, violations)
    if isinstance(value, str):
        return None if value == "unknown" else dsl.ColumnRef(value)
    violations.append(f"{label}: cannot interpret entry {value!r}")
    return None


def _logic_entry(expression: str, label: str, violations: list[str]) -> MappingEntry:
    try:
        return dsl.parse(expression)
    except dsl.DslError as exc:
        violations.append(f"{label}: {exc}")
        return None


def _literal(target: str, value, label: str, violations: list[str]) -> MappingEntry:
    """The DSL literal that a constant ``value`` of ``target`` loads as.

    A text target's constant is the text ``str(value)``. An ``is_control``
    or ``pert_dose_source`` constant keeps its JSON type: a string, a
    boolean or a number in the float range.
    """
    if target not in ("is_control", "pert_dose_source"):
        if target == "pert_type" and value not in PERT_TYPES:
            violations.append(f"pert_type constant {value!r} not in {list(PERT_TYPES)}")
        return dsl.StrLit(str(value))
    if isinstance(value, str):
        return dsl.StrLit(value)
    if isinstance(value, bool):
        return dsl.BoolLit(value)
    if isinstance(value, (int, float)):
        try:
            return dsl.NumLit(float(value))
        except OverflowError:
            violations.append(f"{label}: constant {value} is past the float range")
            return None
    violations.append(f"{label}: constant {value!r} is not a string, a boolean or a number")
    return None


def _bind(entries: dict, keys: dict, target: str, key: str, value, violations: list[str]) -> None:
    """Bind ``target`` to the entry that ``key`` holds as ``value``.

    An absent entry yields to a present one, and two keys may bind one
    target to equal entries; two different entries are a violation.
    """
    entry = _entry(target, value, key, violations)
    if entry is None:
        return
    if entries.get(target) not in (None, entry):
        violations.append(f"{target}: {keys[target]} and {key} give different entries")
        return
    entries[target], keys[target] = entry, key


def _block(doc: dict, name: str, violations: list[str]) -> dict:
    value = doc.get(name) or {}
    if not isinstance(value, dict):
        violations.append(f"{name!r} block must be an object")
        return {}
    return value


def _parse_nested(doc: dict, violations: list[str]) -> MappingSpec:
    body = doc.get(UNIFIED_MAPPING_KEY, doc)
    if not isinstance(body, dict):
        violations.append(f"{UNIFIED_MAPPING_KEY} must be an object")
        body = {}
    obs = body.get("obs")
    if not isinstance(obs, dict):
        violations.append("missing or invalid 'obs' block")
        obs = {}
    entries: dict[str, MappingEntry] = dict.fromkeys((*CANONICAL_OBS_KEYS, *_SOURCES))
    keys: dict[str, str] = {}
    for target in CANONICAL_OBS_KEYS:
        names = (f"{target}_logic", target) if target in _BARE_LOGIC else (target,)
        for name in names:
            _bind(entries, keys, target, f"obs.{name}", obs.get(name), violations)
    obsm = _block(body, "obsm", violations)
    for target in _SOURCES:
        _bind(entries, keys, target, f"obsm.{target}", obsm.get(target), violations)
    return _finish_spec(
        entries,
        _block(body, "var", violations),
        _block(body, "numerical", violations),
        violations,
    )


def _parse_flat(doc: dict, violations: list[str]) -> MappingSpec:
    entries: dict[str, MappingEntry] = dict.fromkeys((*CANONICAL_OBS_KEYS, *_SOURCES))
    keys: dict[str, str] = {}
    for key, value in doc.items():
        target = _FLAT_ALIASES.get(key)
        if target is not None:
            _bind(entries, keys, target, key, value, violations)
    cell_line = entries.pop("cell_line", None)
    if cell_line is not None:
        # a cell-line column identifies the donor; reuse it for cell_type
        # only when nothing better was mapped
        entries["donor_id"] = cell_line
        if entries["cell_type"] is None:
            entries["cell_type"] = cell_line
    return _finish_spec(
        entries,
        _block(doc, "var", violations),
        _block(doc, "numerical", violations),
        violations,
    )


def _finish_spec(entries, var, numerical, violations) -> MappingSpec:
    index_type = str(var.get("index_type", "ensembl")).strip().lower()
    if "ensembl" not in index_type and "symbol" not in index_type:
        violations.append(f"var.index_type {var.get('index_type')!r} not recognized")
    symbol_col = var.get("gene_symbol_col")
    if symbol_col in (None, "None", ""):
        symbol_col = None
    elif not isinstance(symbol_col, str):
        violations.append(f"var.gene_symbol_col {symbol_col!r} is not a column name")
    flags = {
        key: numerical.get(key, default)
        for key, default in (("is_already_log1p", False), ("normalization_required", True))
    }
    for key, value in flags.items():
        if type(value) is not bool:
            violations.append(f"numerical.{key} must be true or false, got {value!r}")
    target_sum = numerical.get("target_sum", 1e4)
    if type(target_sum) not in (int, float) or not 0 < target_sum <= sys.float_info.max:
        violations.append(
            f"numerical.target_sum must be a finite positive number, got {target_sum!r}"
        )
        target_sum = 1e4
    return MappingSpec(
        entries=entries,
        gene_symbol_col=symbol_col,
        is_already_log1p=flags["is_already_log1p"],
        normalization_required=flags["normalization_required"],
        target_sum=float(target_sum),
    )


# --------------------------------------------------------------------------
# schema previewing


def _first_distinct(values, limit: int) -> str:
    """The first ``limit`` distinct values of ``values`` as text, each repr'd."""
    out: list[str] = []
    seen: set[str] = set()
    for v in values:
        s = str(v)
        if s not in seen:
            seen.add(s)
            out.append(s)
            if len(out) >= limit:
                break
    return ", ".join(map(repr, out))


def _min_max(X: np.ndarray) -> tuple | None:
    """``(X.min(), X.max())``, or None for an empty ``X``."""
    return (X.min(), X.max()) if X.size else None


def preview_schema(table: RawTable, sample_size: int) -> str:
    """The schema preview that prompts for a mapping, as deterministic text.

    It gives the table's shape, the min, max and mean of ``X`` (0 for an
    empty matrix) with a note when the maximum looks like raw counts, each
    obs column's kind and first ``sample_size`` distinct values, and as many
    var index values.
    """
    if sample_size < 1:
        raise ParameterError(f"sample_size must be >= 1, got {sample_size}")
    X = table.X
    stats = [0.0] * 3
    if X.size:
        # min and max over two halves of the rows at once; numpy's min and
        # max of the halves' results carry a NaN through as X.min() does
        halves = _row_halves(len(X), lambda lo, hi: _min_max(X[lo:hi]))
        lows, highs = zip(*filter(None, halves))
        stats = [float(np.min(lows)), float(np.max(highs)), float(X.mean())]
    lines = [
        f"cells: {table.n_cells}",
        f"genes: {table.n_genes}",
        "expression stats: min={:.6g} max={:.6g} mean={:.6g}".format(*stats),
    ]
    if stats[1] > RAW_COUNTS_THRESHOLD:
        lines.append("note: likely raw counts")
    lines.append("obs columns:")
    for name, col in table.obs.items():
        lines.append(f"  - {name} ({column_kind(col)}): [{_first_distinct(col, sample_size)}]")
    lines.append("var index samples: " + _first_distinct(table.var_index, sample_size))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# mapping induction

_FENCE_RE = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)


def extract_json_block(text: str) -> str:
    """Return the first fenced JSON block from a response."""
    match = _FENCE_RE.search(text)
    if match:
        return match.group(1).strip()
    raise LlmReplyError("no fenced JSON block found in response", raw_response=text)


def load_prompt_template(name: str) -> str:
    return (resources.files("pertpipe") / "prompts" / name).read_text()


def build_mapping_messages(preview: str) -> list[dict[str, str]]:
    system = load_prompt_template("unify_system.txt")
    user = load_prompt_template("unify_user.txt").replace("{schema_preview}", preview)
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": user},
    ]


def induce_mapping(preview: str, client: LlmClient) -> MappingSpec:
    """Prompt the client with a schema preview's text and validate its mapping reply."""
    response = client.complete(build_mapping_messages(preview))
    block = extract_json_block(response)
    return MappingSpec.from_json(block, raw_response=response)


# --------------------------------------------------------------------------
# mapping application

# the entry an absent one stands for; an absent condition_name takes the
# perturbation labels when there are any
_DEFAULTS = {
    "is_control": dsl.BoolLit(False),
    "cell_type": dsl.StrLit("unknown"),
    "batch_id": dsl.StrLit("unknown"),
    "donor_id": dsl.StrLit("unknown"),
    "pert_type": dsl.StrLit("mixed"),
    "condition_name": dsl.StrLit("unknown"),
}


def _column(spec: MappingSpec, table: RawTable, key: str, cast: str | None = None):
    """The column of ``key``'s entry, or of its default, cast to ``cast`` if given."""
    entry = spec.entries[key]
    try:
        column = dsl.evaluate(_DEFAULTS[key] if entry is None else entry, table)
        return column if cast is None else cast_column(column, cast)
    except (dsl.DslError, ValueError) as exc:
        raise MappingError(f"{key}: {exc}") from exc


def apply_mapping(
    table: RawTable, spec: MappingSpec, combo_delimiter: str = "+"
) -> CanonicalDataset:
    """Project a raw table through a mapping into a canonical dataset.

    Perturbation vocabulary is built from the distinct non-control mask
    source values, with combination names split on ``combo_delimiter``.
    A per-cell scalar dose broadcasts across that cell's set mask bits.
    The result is validated before being returned; a spec that produces an
    invalid dataset is rejected.

    Once normalized, a raw ``X`` mapped from a bundle lets go of its
    resident pages (``bundle.release_pages``). Reading it again, as the
    canonical ``X`` that ``is_already_log1p`` keeps is read when written,
    maps them back from the page cache with the same values.
    """
    n = table.n_cells

    is_control = _column(spec, table, "is_control")
    if is_control.dtype != bool:
        got = repr(is_control.tolist()[0]) if n else f"an empty {column_kind(is_control)} column"
        raise MappingError(f"is_control: expected a boolean value, got {got}")

    pert_values = None
    if spec.entries["pert_mask_source"] is not None:
        pert_values = _column(spec, table, "pert_mask_source", "str")

    obs = {"is_control": is_control}
    for key in ("cell_type", "batch_id", "donor_id", "pert_type"):
        obs[key] = _column(spec, table, key, "str")
    if spec.entries["condition_name"] is None and pert_values is not None:
        obs["condition_name"] = pert_values
    else:
        obs["condition_name"] = _column(spec, table, "condition_name", "str")

    # vocabulary over the distinct non-control perturbation labels, combos
    # split apart; each label's sorted columns are repeated for its cells
    vocab: list[str] = []
    counts = np.zeros(n, dtype=np.int64)
    indices = np.zeros(0, dtype=np.int64)
    if pert_values is not None:
        perturbed = np.flatnonzero(~is_control)
        labels, label_of_cell = factorize(pert_values[perturbed])
        label_parts = [
            [part for part in (p.strip() for p in label.split(combo_delimiter)) if part]
            for label in labels.tolist()
        ]
        vocab = sorted({part for parts in label_parts for part in parts})
        index_of = {name: j for j, name in enumerate(vocab)}
        label_cols = [sorted({index_of[part] for part in parts}) for parts in label_parts]
        label_len = np.array([len(cols) for cols in label_cols], dtype=np.int64)
        label_start = np.cumsum(label_len) - label_len
        flat = np.array([j for cols in label_cols for j in cols], dtype=np.int64)
        per_cell = label_len[label_of_cell]
        counts[perturbed] = per_cell
        # entry e of the k-th perturbed cell is entry e of its label
        shift = label_start[label_of_cell] - (np.cumsum(per_cell) - per_cell)
        indices = flat[np.repeat(shift, per_cell) + np.arange(per_cell.sum())]
    indptr = np.concatenate(([0], np.cumsum(counts)))

    values = np.zeros(len(indices), dtype=np.float64)
    if spec.entries["pert_dose_source"] is not None and vocab:
        values = np.repeat(_column(spec, table, "pert_dose_source", "float"), counts)

    X = normalize_log1p(
        table.X,
        target_sum=spec.target_sum,
        is_already_log1p=spec.is_already_log1p,
        normalization_required=spec.normalization_required,
    )
    release_pages(table.X)

    ensembl = cast_column(table.var_index, "str")
    if spec.gene_symbol_col is not None:
        if spec.gene_symbol_col not in table.var_columns:
            raise MappingError(
                f"gene_symbol_col {spec.gene_symbol_col!r} not in var columns; "
                f"available: {sorted(table.var_columns)}"
            )
        symbols = cast_column(table.var_columns[spec.gene_symbol_col], "str")
    else:
        symbols = ensembl.copy()

    ds = CanonicalDataset(
        **obs,
        X=X,
        pert_indptr=indptr,
        pert_indices=indices,
        pert_values=values,
        ensembl_id=ensembl,
        gene_symbol=symbols,
        pert_vocab=tuple(vocab),
    )
    # normalize_log1p has scanned X, so the report's X checks would find nothing
    report = validate_canonical(ds, x_checked=True)
    if not report.ok:
        raise MappingError(
            "mapping produced an invalid canonical dataset:\n" + str(report)
        )
    return ds


# --------------------------------------------------------------------------
# merging


@dataclass(frozen=True)
class MergeResult:
    dataset: CanonicalDataset
    warnings: tuple[str, ...]


def merge_datasets(parts: list[CanonicalDataset]) -> MergeResult:
    """Concatenate canonical datasets over their shared genes.

    Genes are restricted to the intersection of ensembl ids (ordered by the
    first part), the perturbation vocabulary becomes the first-seen union,
    and each part's perturbation entries are re-numbered onto it. Expression
    values are never renormalized. A ``source_dataset`` obs column records
    provenance. Identical mask/dose patterns that carry different condition
    names across parts are renamed to the first-seen name so the merged
    dataset stays canonical.

    The merged ``X`` is copied in two halves of its rows, one on a worker
    thread and one on the calling thread, as slice copies per run of
    consecutive source columns.
    """
    if len(parts) < 2:
        raise ParameterError(f"need at least 2 datasets to merge, got {len(parts)}")

    common = set.intersection(*(set(part.ensembl_id.tolist()) for part in parts))
    if not common:
        raise ParameterError("gene intersection across datasets is empty")
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

    vocab = list(dict.fromkeys(name for part in parts for name in part.pert_vocab))
    vocab_index = {name: j for j, name in enumerate(vocab)}

    n_total = sum(part.n_cells for part in parts)
    starts = np.cumsum([0] + [part.n_cells for part in parts]).tolist()
    # per part, (first column, end column, first source column) of each run
    # of consecutive source columns: one slice copy per run beats a gather
    runs = []
    renumbered = []
    for part in parts:
        col_of = {eid: j for j, eid in enumerate(part.ensembl_id.tolist())}
        src = [col_of[g] for g in gene_order]
        bounds = [0, *(np.flatnonzero(np.diff(src) != 1) + 1).tolist(), len(src)]
        runs.append([(lo, hi, src[lo]) for lo, hi in zip(bounds, bounds[1:])])
        cols = np.array([vocab_index[name] for name in part.pert_vocab], dtype=np.int64)
        renumbered.append(cols[part.pert_indices])
    X = np.empty((n_total, len(gene_order)), dtype=np.float64)

    def copy_rows(lo: int, hi: int) -> None:
        for part, start, part_runs in zip(parts, starts, runs):
            a, b = max(lo, start), min(hi, start + part.n_cells)
            if a < b:
                for c, d, s in part_runs:
                    X[a:b, c:d] = part.X[a - start : b - start, s : s + d - c]

    _row_halves(n_total, copy_rows)
    counts = np.concatenate([np.diff(part.pert_indptr) for part in parts])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.concatenate(renumbered)
    # the first-seen union can reverse a part's column order: re-sort each row
    order = np.lexsort((indices, entry_rows(indptr)))
    indices = indices[order]
    values = np.concatenate([part.pert_values for part in parts])[order]

    obs = {
        k: np.concatenate([getattr(part, k) for part in parts]) for k in CANONICAL_OBS_KEYS
    }
    extra_keys = sorted(
        {k for part in parts for k in part.extra_obs} - {"source_dataset"}
    )
    extra_obs = {
        k: _by_part(starts, [part.extra_obs.get(k, "unknown") for part in parts])
        for k in extra_keys
    }
    extra_obs["source_dataset"] = _by_part(
        starts, [f"dataset_{i}" for i in range(len(parts))]
    )

    # same pattern, one name: first-seen wins
    condition = obs["condition_name"]
    first = first_pattern_rows(indptr, indices, values)
    obs["condition_name"] = condition[first]
    renamed = int(np.count_nonzero(obs["condition_name"] != condition))
    if renamed:
        warnings.append(
            f"renamed condition_name on {renamed} cells to match the first-seen "
            f"name of their mask/dose pattern"
        )

    merged = CanonicalDataset(
        **obs,
        X=X,
        pert_indptr=indptr,
        pert_indices=indices,
        pert_values=values,
        ensembl_id=np.array(gene_order, dtype=object),
        gene_symbol=np.array([symbol_for[g] for g in gene_order], dtype=object),
        pert_vocab=tuple(vocab),
        extra_obs=extra_obs,
    )
    # the grouping above is the one validate_canonical would compute again
    report = _canonical_report(merged, first)
    if not report.ok:
        raise MappingError("merged dataset violates canonical invariants:\n" + str(report))
    return MergeResult(dataset=merged, warnings=tuple(warnings))


def _by_part(starts: list[int], fills: list) -> np.ndarray:
    """An object column whose rows ``starts[i]:starts[i + 1]`` take ``fills[i]``.

    A fill is a part's column or one value, which every row of the part
    then shares as one object.
    """
    column = np.empty(starts[-1], dtype=object)
    for lo, hi, fill in zip(starts, starts[1:], fills):
        column[lo:hi] = fill
    return column
