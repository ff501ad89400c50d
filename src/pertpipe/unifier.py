"""Schema harmonization: previewing, mapping induction, application, merging.

A mapping specification describes how one raw table projects onto the
canonical schema: direct column aliases, logic expressions in the mapping
DSL, constants, or absent entries that fall back to documented defaults.
Specifications are induced by an LLM from a schema preview, or loaded from
JSON files; two surface forms are accepted (a nested block layout and a
flat per-key layout) and normalized into one entry model.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import dsl
from .data import (
    CANONICAL_OBS_KEYS,
    CanonicalDataset,
    PERT_TYPES,
    RawTable,
    _canonical_report,
    entry_rows,
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


# --------------------------------------------------------------------------
# mapping entries


@dataclass(frozen=True)
class Direct:
    source_key: str


@dataclass(frozen=True)
class Logic:
    expression: str
    parsed: dsl.Expr = field(compare=False, repr=False)
    description: str | None = None


@dataclass(frozen=True)
class Constant:
    value: object


@dataclass(frozen=True)
class Absent:
    pass


MappingEntry = Direct | Logic | Constant | Absent


@dataclass(frozen=True)
class MappingSpec:
    """Normalized mapping from one raw schema to the canonical schema."""

    obs_entries: dict[str, MappingEntry]
    pert_mask_source: MappingEntry
    pert_dose_source: MappingEntry
    var_index_type: str  # "ensembl" | "symbol"
    gene_symbol_col: str | None
    is_already_log1p: bool
    normalization_required: bool
    target_sum: float
    data_summary: str = ""

    @classmethod
    def from_json(cls, text: str, raw_response: str | None = None) -> "MappingSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            error = MappingError if raw_response is None else LlmReplyError
            raise error(f"mapping is not valid JSON: {exc}", raw_response) from exc
        if not isinstance(doc, dict):
            raise MappingError("mapping JSON must be an object", raw_response)
        return cls.from_dict(doc, raw_response)

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


def _entry_from_value(value, key: str, violations: list[str]) -> MappingEntry:
    """Interpret one mapping value: dict forms, column names, or absence markers."""
    if value is None:
        return Absent()
    if isinstance(value, dict):
        etype = value.get("type")
        if etype == "direct":
            source = value.get("source_key")
            if not isinstance(source, str) or not source:
                violations.append(f"{key}: direct entry missing source_key")
                return Absent()
            return Direct(source)
        if etype == "logic":
            expression = value.get("expression")
            if not isinstance(expression, str) or not expression:
                violations.append(f"{key}: logic entry missing expression")
                return Absent()
            return _logic_entry(expression, value.get("description"), key, violations)
        if etype == "constant":
            if "value" not in value:
                violations.append(f"{key}: constant entry missing value")
                return Absent()
            return Constant(value["value"])
        violations.append(f"{key}: unknown entry type {etype!r}")
        return Absent()
    if isinstance(value, str):
        if value in ("None", "", "unknown"):
            return Absent()
        return Direct(value)
    violations.append(f"{key}: cannot interpret entry {value!r}")
    return Absent()


def _logic_entry(
    expression: str, description, key: str, violations: list[str]
) -> MappingEntry:
    try:
        parsed = dsl.parse(expression)
    except dsl.DslError as exc:
        violations.append(f"{key}: {exc}")
        return Absent()
    return Logic(expression=expression, parsed=parsed, description=description)


def _obs_entry(target: str, value, label: str, violations: list[str]) -> MappingEntry:
    """One obs entry of either surface form.

    A bare value is a constant for ``pert_type``, a mapping expression for
    ``is_control`` and ``condition_name``, and a column name otherwise.
    """
    if isinstance(value, dict) or target not in ("pert_type", *_BARE_LOGIC):
        return _entry_from_value(value, label, violations)
    if value in (None, "None") or (value == "" and target != "pert_type"):
        return Absent()
    if target == "pert_type":
        return Constant(value)
    return _logic_entry(str(value), None, label, violations)


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
    obs_entries: dict[str, MappingEntry] = {}
    for key in CANONICAL_OBS_KEYS:
        name = f"{key}_logic" if key in _BARE_LOGIC else key
        value = obs.get(name, obs.get(key))
        obs_entries[key] = _obs_entry(key, value, f"obs.{name}", violations)
    obsm = _block(body, "obsm", violations)
    mask_entry, dose_entry = (
        _entry_from_value(obsm.get(key), f"obsm.{key}", violations)
        for key in ("pert_mask_source", "pert_dose_source")
    )
    return _finish_spec(
        obs_entries,
        mask_entry,
        dose_entry,
        _block(body, "var", violations),
        _block(body, "numerical", violations),
        doc.get("data_summary", body.get("data_summary", "")),
        violations,
    )


def _parse_flat(doc: dict, violations: list[str]) -> MappingSpec:
    obs_entries: dict[str, MappingEntry] = {k: Absent() for k in CANONICAL_OBS_KEYS}
    sources: dict[str, MappingEntry] = {}  # mask and dose sources, cell line
    for key, value in doc.items():
        target = _FLAT_ALIASES.get(key)
        if target in CANONICAL_OBS_KEYS:
            obs_entries[target] = _obs_entry(target, value, key, violations)
        elif target is not None:
            sources[target] = _entry_from_value(value, key, violations)
    if "cell_line" in sources:
        # a cell-line column identifies the donor; reuse it for cell_type
        # only when nothing better was mapped
        obs_entries["donor_id"] = sources["cell_line"]
        if isinstance(obs_entries["cell_type"], Absent):
            obs_entries["cell_type"] = sources["cell_line"]
    return _finish_spec(
        obs_entries,
        sources.get("pert_mask_source", Absent()),
        sources.get("pert_dose_source", Absent()),
        _block(doc, "var", violations),
        _block(doc, "numerical", violations),
        doc.get("data_summary", ""),
        violations,
    )


def _finish_spec(
    obs_entries, mask_entry, dose_entry, var, numerical, summary, violations
) -> MappingSpec:
    pert_type_entry = obs_entries["pert_type"]
    if isinstance(pert_type_entry, Constant) and pert_type_entry.value not in PERT_TYPES:
        violations.append(
            f"pert_type constant {pert_type_entry.value!r} not in {list(PERT_TYPES)}"
        )
    index_type_raw = str(var.get("index_type", "ensembl")).strip().lower()
    if "ensembl" in index_type_raw:
        index_type = "ensembl"
    elif "symbol" in index_type_raw:
        index_type = "symbol"
    else:
        violations.append(f"var.index_type {var.get('index_type')!r} not recognized")
        index_type = "ensembl"
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
        obs_entries=obs_entries,
        pert_mask_source=mask_entry,
        pert_dose_source=dose_entry,
        var_index_type=index_type,
        gene_symbol_col=symbol_col,
        is_already_log1p=flags["is_already_log1p"],
        normalization_required=flags["normalization_required"],
        target_sum=float(target_sum),
        data_summary=str(summary or ""),
    )


# --------------------------------------------------------------------------
# schema previewing


@dataclass(frozen=True)
class ColumnPreview:
    name: str
    dtype: str
    samples: tuple[str, ...]


@dataclass(frozen=True)
class SchemaPreview:
    obs_columns: tuple[ColumnPreview, ...]
    var_index_samples: tuple[str, ...]
    x_stats: tuple[float, float, float]  # min, max, mean
    n_cells: int
    n_genes: int
    notes: tuple[str, ...]


def _first_distinct(values, limit: int) -> tuple[str, ...]:
    out: list[str] = []
    seen: set[str] = set()
    for v in values:
        s = str(v)
        if s not in seen:
            seen.add(s)
            out.append(s)
            if len(out) >= limit:
                break
    return tuple(out)


def preview_schema(table: RawTable, sample_size: int) -> SchemaPreview:
    """Deterministic schema fingerprint used to prompt for a mapping."""
    if sample_size < 1:
        raise ParameterError(f"sample_size must be >= 1, got {sample_size}")
    columns = []
    for name, col in table.obs.items():
        columns.append(
            ColumnPreview(
                name=name, dtype=dsl._kind(col), samples=_first_distinct(col, sample_size)
            )
        )
    x_min = float(table.X.min()) if table.X.size else 0.0
    x_max = float(table.X.max()) if table.X.size else 0.0
    x_mean = float(table.X.mean()) if table.X.size else 0.0
    notes = []
    if x_max > RAW_COUNTS_THRESHOLD:
        notes.append("likely raw counts")
    return SchemaPreview(
        obs_columns=tuple(columns),
        var_index_samples=_first_distinct(table.var_index, sample_size),
        x_stats=(x_min, x_max, x_mean),
        n_cells=table.n_cells,
        n_genes=table.n_genes,
        notes=tuple(notes),
    )


def render_preview_text(preview: SchemaPreview) -> str:
    lines = [
        f"cells: {preview.n_cells}",
        f"genes: {preview.n_genes}",
        "expression stats: min={:.6g} max={:.6g} mean={:.6g}".format(*preview.x_stats),
    ]
    for note in preview.notes:
        lines.append(f"note: {note}")
    lines.append("obs columns:")
    for col in preview.obs_columns:
        sample_text = ", ".join(repr(s) for s in col.samples)
        lines.append(f"  - {col.name} ({col.dtype}): [{sample_text}]")
    lines.append(
        "var index samples: " + ", ".join(repr(s) for s in preview.var_index_samples)
    )
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


def build_mapping_messages(preview: SchemaPreview) -> list[dict[str, str]]:
    system = load_prompt_template("unify_system.txt")
    user = load_prompt_template("unify_user.txt").replace(
        "{schema_preview}", render_preview_text(preview)
    )
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": user},
    ]


def induce_mapping(preview: SchemaPreview, client: LlmClient) -> MappingSpec:
    """Prompt the client with a schema preview and validate its mapping reply."""
    response = client.complete(build_mapping_messages(preview))
    block = extract_json_block(response)
    return MappingSpec.from_json(block, raw_response=response)


# --------------------------------------------------------------------------
# mapping application

_OBS_DEFAULTS = {
    "cell_type": "unknown",
    "batch_id": "unknown",
    "donor_id": "unknown",
    "pert_type": "mixed",
}


def _resolve_entry(entry: MappingEntry, table: RawTable, key: str):
    if isinstance(entry, Direct):
        if entry.source_key not in table.obs:
            raise MappingError(
                f"{key}: source column {entry.source_key!r} not in table; "
                f"available columns: {sorted(table.obs)}"
            )
        return table.obs[entry.source_key]
    if isinstance(entry, Logic):
        try:
            return dsl.evaluate(entry.parsed, table)
        except dsl.DslError as exc:
            raise MappingError(f"{key}: {exc}") from exc
    if isinstance(entry, Constant):
        return entry.value
    raise MappingError(f"{key}: entry is absent and has no evaluation")


def _as_str_column(value, n: int) -> np.ndarray:
    return np.full(n, dsl._cast(value, "str"), dtype=object)


def _as_float_column(value, n: int, key: str) -> np.ndarray:
    try:
        return np.full(n, dsl._cast(value, "float"), dtype=np.float64)
    except dsl.DslError as exc:
        raise MappingError(f"{key}: {exc}") from None


def _as_bool_column(value, n: int, key: str) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != bool:
            raise MappingError(
                f"{key}: expected a boolean column, got dtype {value.dtype}"
            )
        return value.astype(bool)
    if isinstance(value, bool):
        return np.full(n, value, dtype=bool)
    raise MappingError(f"{key}: expected a boolean value, got {value!r}")


def apply_mapping(
    table: RawTable, spec: MappingSpec, combo_delimiter: str = "+"
) -> CanonicalDataset:
    """Project a raw table through a mapping into a canonical dataset.

    Perturbation vocabulary is built from the distinct non-control mask
    source values, with combination names split on ``combo_delimiter``.
    A per-cell scalar dose broadcasts across that cell's set mask bits.
    The result is validated before being returned; a spec that produces an
    invalid dataset is rejected.
    """
    n = table.n_cells

    if isinstance(spec.obs_entries["is_control"], Absent):
        is_control = np.zeros(n, dtype=bool)
    else:
        is_control = _as_bool_column(
            _resolve_entry(spec.obs_entries["is_control"], table, "is_control"),
            n,
            "is_control",
        )

    pert_values = None
    if not isinstance(spec.pert_mask_source, Absent):
        pert_values = _as_str_column(
            _resolve_entry(spec.pert_mask_source, table, "pert_mask_source"), n
        )

    obs: dict[str, np.ndarray] = {"is_control": is_control}
    # an absent condition_name takes the perturbation labels verbatim
    labels = "unknown" if pert_values is None else pert_values
    defaults = {**_OBS_DEFAULTS, "condition_name": labels}
    for key, default in defaults.items():
        entry = spec.obs_entries[key]
        value = default if isinstance(entry, Absent) else _resolve_entry(entry, table, key)
        obs[key] = _as_str_column(value, n)

    # vocabulary over the distinct non-control perturbation labels, combos
    # split apart; each label's sorted columns are repeated for its cells
    vocab: list[str] = []
    counts = np.zeros(n, dtype=np.int64)
    indices = np.zeros(0, dtype=np.int64)
    if pert_values is not None:
        perturbed = np.flatnonzero(~is_control)
        labels, label_of_cell = np.unique(pert_values[perturbed], return_inverse=True)
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
    if not isinstance(spec.pert_dose_source, Absent) and vocab:
        dose_col = _as_float_column(
            _resolve_entry(spec.pert_dose_source, table, "pert_dose_source"),
            n,
            "pert_dose_source",
        )
        values = np.repeat(dose_col, counts)

    X = normalize_log1p(
        table.X,
        target_sum=spec.target_sum,
        is_already_log1p=spec.is_already_log1p,
        normalization_required=spec.normalization_required,
    )

    ensembl = dsl._cast(table.var_index, "str")
    if spec.gene_symbol_col is not None:
        if spec.gene_symbol_col not in table.var_columns:
            raise MappingError(
                f"gene_symbol_col {spec.gene_symbol_col!r} not in var columns; "
                f"available: {sorted(table.var_columns)}"
            )
        symbols = dsl._cast(table.var_columns[spec.gene_symbol_col], "str")
    else:
        symbols = ensembl.copy()

    ds = CanonicalDataset(
        cell_type=obs["cell_type"],
        batch_id=obs["batch_id"],
        donor_id=obs["donor_id"],
        pert_type=obs["pert_type"],
        is_control=is_control,
        condition_name=obs["condition_name"],
        X=X,
        pert_indptr=indptr,
        pert_indices=indices,
        pert_values=values,
        ensembl_id=ensembl,
        gene_symbol=symbols,
        pert_vocab=tuple(vocab),
    )
    report = validate_canonical(ds)
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
    X = np.empty((n_total, len(gene_order)), dtype=np.float64)
    starts = np.cumsum([0] + [part.n_cells for part in parts])
    renumbered = []
    for part, start, stop in zip(parts, starts, starts[1:]):
        col_of = {eid: j for j, eid in enumerate(part.ensembl_id.tolist())}
        src = np.array([col_of[g] for g in gene_order], dtype=np.int64)
        # one slice copy per run of consecutive source columns
        bounds = [0, *(np.flatnonzero(np.diff(src) != 1) + 1).tolist(), len(src)]
        for lo, hi in zip(bounds, bounds[1:]):
            X[start:stop, lo:hi] = part.X[:, src[lo] : src[lo] + hi - lo]
        cols = np.array([vocab_index[name] for name in part.pert_vocab], dtype=np.int64)
        renumbered.append(cols[part.pert_indices])
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
        k: np.concatenate(
            [
                part.extra_obs.get(k, np.full(part.n_cells, "unknown", dtype=object))
                for part in parts
            ]
        )
        for k in extra_keys
    }
    extra_obs["source_dataset"] = np.concatenate(
        [np.full(part.n_cells, f"dataset_{i}", dtype=object) for i, part in enumerate(parts)]
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
