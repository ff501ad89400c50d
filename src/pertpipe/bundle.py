"""Portable on-disk dataset bundles.

A bundle is a directory holding `manifest.json`, `obs.tsv`, `var.tsv` and
a row-major little-endian float64 matrix `X.f64`. A canonical bundle (its
manifest says `"format": 2` and `"nnz"`) adds its perturbations as
little-endian CSR arrays: `pert_indptr.i64`, `pert_indices.i64` and
`pert_dose.f64`. Readers reject other canonical formats (format 1 held
dense mask and dose matrices) and any binary file of the wrong size.

Writers first remove any old manifest, write each file under a temporary
name and rename it into place, and write the manifest last, so a write cut
short leaves a directory that readers reject rather than a mix of old and
new files. Bundle files are replaced by rename and never edited in place.

Readers map each binary file read-only and return read-only arrays over the
mapping, so nothing is copied at read time. A live dataset holds one file
descriptor per matrix until its arrays are dropped; because a rewrite
renames new files into place, that dataset keeps the old contents while a
new read sees the new ones. Do not overwrite a bundle file in place (as
`cp` onto it or `rsync --inplace` do) while any process has the bundle
open: its dataset would change under it, or the process would die of
SIGBUS if the file shrank. Replace files by rename or write a new
directory.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from itertools import repeat
from pathlib import Path

import numpy as np

from .data import CANONICAL_OBS_KEYS, CanonicalDataset, RawTable
from .dsl import DslEvalError, _cast, _kind
from .errors import BundleFormatError

MANIFEST = "manifest.json"
_OBS_TYPES = ("bool", "float", "str", "categorical")
CANONICAL_FORMAT = 2
_DIGEST_CHUNK = 1 << 20


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(col: np.ndarray) -> list[str]:
    """The TSV text of each cell, formatted per dtype rather than per cell."""
    if col.dtype == bool:
        return np.where(col, "true", "false").tolist()
    if col.dtype.kind == "f":
        return list(map(repr, col.astype(np.float64).tolist()))
    if col.dtype.kind in "OUiu":
        return [v if type(v) is str else _format_cell(v) for v in col.tolist()]
    return [_format_cell(v) for v in col]


def _replace_file(path: Path, write) -> None:
    """Call ``write`` on a temporary path beside ``path``, then rename it into place."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; a failed write leaves the old file, never a torn one."""
    _replace_file(Path(path), lambda tmp: tmp.write_text(text))


def _has_tab_or_newline(text: str) -> bool:
    return "\t" in text or "\n" in text


def _write_tsv(path: Path, columns: dict[str, np.ndarray]) -> None:
    cells = [_format_column(col) for col in columns.values()]
    if any(_has_tab_or_newline("".join(text)) for text in cells):
        bad = next(t for row in zip(*cells) for t in row if _has_tab_or_newline(t))
        raise BundleFormatError(f"tsv cell value contains tab/newline: {bad!r}")
    lines = ["\t".join(columns), *map("\t".join, zip(*cells))]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _read_tsv(path: Path) -> dict[str, list[str]]:
    try:
        lines = path.read_text().removesuffix("\n").split("\n")
    except FileNotFoundError:
        raise BundleFormatError(f"bundle file {path} is missing") from None
    names = lines[0].split("\t")
    k = len(names)
    if k > 1:
        # in a one-column table an empty line is a row holding "", wider
        # tables skip blank lines
        lines = list(filter(None, lines))
    if not lines or lines[0] == "":
        raise BundleFormatError(f"{path} is empty")
    body = lines[1:]
    tabs = list(map(str.count, body, repeat("\t")))
    if tabs.count(k - 1) != len(body):
        i = next(i for i, n in enumerate(tabs) if n != k - 1)
        raise BundleFormatError(f"{path}:{i + 2} has {tabs[i] + 1} fields, expected {k}")
    if len(set(names)) < k:
        dup = next(name for name in names if names.count(name) > 1)
        raise BundleFormatError(f"{path} names column {dup!r} more than once")
    # every line holds k fields, so one split of the joined body lays the
    # cells out row-major and column j is every k-th cell from j
    fields = "\t".join(body).split("\t") if body else []
    return {name: fields[j::k] for j, name in enumerate(names)}


def _write_matrix(path: Path, a: np.ndarray, dtype: str) -> None:
    _replace_file(path, np.ascontiguousarray(a, dtype=dtype).tofile)


def _read_matrix(path: Path, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """A read-only array over a read-only mapping of ``path``; nothing is copied."""
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise BundleFormatError(f"bundle file {path} is missing") from None
    with fh:
        # size and mapping come from one descriptor, so they see one file
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise BundleFormatError(
                f"{path} holds {size} bytes, expected {expected} "
                f"({'x'.join(map(str, shape))} {dtype})"
            )
        if size == 0:  # an empty file cannot be mapped
            a = np.empty(shape, dtype=dtype)
            a.setflags(write=False)
            return a
        # the mapping holds its own duplicate of the descriptor until the
        # array that views it is dropped
        mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
    return np.frombuffer(mapped, dtype=dtype).reshape(shape)


def _parse_obs_column(name: str, values: list[str], tag: str) -> np.ndarray:
    if tag == "bool":
        bad = [v for v in values if v not in ("true", "false")]
        if bad:
            raise BundleFormatError(f"bool obs column {name!r} contains {bad[0]!r}")
        return np.array([v == "true" for v in values], dtype=bool)
    if tag == "float":
        try:
            return _cast(np.array(values, dtype=object), "float")
        except DslEvalError as exc:
            raise BundleFormatError(f"float obs column {name!r}: {exc}") from None
    return np.array(values, dtype=object)


def _start_write(out_dir: str | Path) -> Path:
    """Create the bundle directory and remove any old manifest before files change."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / MANIFEST).unlink(missing_ok=True)
    return out


def _write_manifest(out: Path, manifest: dict) -> None:
    write_text_atomic(out / MANIFEST, _dump_json(manifest))


def write_raw_bundle(table: RawTable, out_dir: str | Path) -> None:
    out = _start_write(out_dir)
    manifest = {
        "kind": "raw",
        "n_cells": table.n_cells,
        "n_genes": table.n_genes,
        "p": 0,
        "flags": {},
        "pert_vocab": [],
        "obs_types": {k: _kind(v) for k, v in table.obs.items()},
        "var_index_name": "index",
        "obsm": {k: int(v.shape[1]) for k, v in table.obsm.items()},
    }
    _write_tsv(out / "obs.tsv", table.obs)
    var_cols = {"index": table.var_index}
    var_cols.update(table.var_columns)
    _write_tsv(out / "var.tsv", var_cols)
    _write_matrix(out / "X.f64", table.X, "<f8")
    for name, m in table.obsm.items():
        _write_matrix(out / f"obsm_{name}.f64", m, "<f8")
    _write_manifest(out, manifest)


def read_raw_bundle(path: str | Path) -> RawTable:
    root = Path(path)
    manifest = _load_manifest(root, expected_kind="raw")
    n_cells, n_genes = _count(root, manifest, "n_cells"), _count(root, manifest, "n_genes")
    obs_types = _field(
        root, manifest, "obs_types",
        lambda v: type(v) is dict and all(tag in _OBS_TYPES for tag in v.values()),
        f"an object from column name to one of {list(_OBS_TYPES)}", default={},
    )
    obsm_widths = _field(
        root, manifest, "obsm",
        lambda v: type(v) is dict and all(type(k) is int and k >= 0 for k in v.values()),
        "an object from name to a column count", default={},
    )
    raw_obs = _read_tsv(root / "obs.tsv")
    obs = {
        name: _parse_obs_column(name, values, obs_types.get(name, "str"))
        for name, values in raw_obs.items()
    }
    var = _read_tsv(root / "var.tsv")
    var_names = list(var)
    var_index = np.array(var[var_names[0]], dtype=object)
    var_columns = {name: np.array(var[name], dtype=object) for name in var_names[1:]}
    X = _read_matrix(root / "X.f64", (n_cells, n_genes), "<f8")
    obsm = {
        name: _read_matrix(root / f"obsm_{name}.f64", (n_cells, k), "<f8")
        for name, k in obsm_widths.items()
    }
    return RawTable(obs=obs, var_index=var_index, var_columns=var_columns, X=X, obsm=obsm)


def write_canonical_bundle(ds: CanonicalDataset, out_dir: str | Path) -> None:
    out = _start_write(out_dir)
    manifest = {
        "kind": "canonical",
        "format": CANONICAL_FORMAT,
        "nnz": len(ds.pert_indices),
        "n_cells": ds.n_cells,
        "n_genes": ds.n_genes,
        "p": ds.n_perts,
        "flags": {"log1p": True},
        "pert_vocab": list(ds.pert_vocab),
        "extra_obs": sorted(ds.extra_obs),
    }
    _write_tsv(out / "obs.tsv", ds.obs_columns())
    _write_tsv(
        out / "var.tsv",
        {"ensembl_id": ds.ensembl_id, "gene_symbol": ds.gene_symbol},
    )
    _write_matrix(out / "X.f64", ds.X, "<f8")
    _write_matrix(out / "pert_indptr.i64", ds.pert_indptr, "<i8")
    _write_matrix(out / "pert_indices.i64", ds.pert_indices, "<i8")
    _write_matrix(out / "pert_dose.f64", ds.pert_values, "<f8")
    _write_manifest(out, manifest)


def read_canonical_bundle(path: str | Path) -> CanonicalDataset:
    root = Path(path)
    manifest = _load_manifest(root, expected_kind="canonical")
    n_cells, n_genes = _count(root, manifest, "n_cells"), _count(root, manifest, "n_genes")
    nnz = _count(root, manifest, "nnz")
    pert_vocab = _field(
        root, manifest, "pert_vocab",
        lambda v: type(v) is list and all(type(name) is str for name in v), "a list of names",
    )
    obs = _read_tsv(root / "obs.tsv")
    missing = [k for k in CANONICAL_OBS_KEYS if k not in obs]
    if missing:
        raise BundleFormatError(f"obs.tsv missing canonical columns: {missing}")
    var = _read_tsv(root / "var.tsv")
    for col in ("ensembl_id", "gene_symbol"):
        if col not in var:
            raise BundleFormatError(f"var.tsv missing column {col!r}")
    extra = {
        name: np.array(values, dtype=object)
        for name, values in obs.items()
        if name not in CANONICAL_OBS_KEYS
    }
    return CanonicalDataset(
        cell_type=np.array(obs["cell_type"], dtype=object),
        batch_id=np.array(obs["batch_id"], dtype=object),
        donor_id=np.array(obs["donor_id"], dtype=object),
        pert_type=np.array(obs["pert_type"], dtype=object),
        is_control=_parse_obs_column("is_control", obs["is_control"], "bool"),
        condition_name=np.array(obs["condition_name"], dtype=object),
        X=_read_matrix(root / "X.f64", (n_cells, n_genes), "<f8"),
        pert_indptr=_read_matrix(root / "pert_indptr.i64", (n_cells + 1,), "<i8"),
        pert_indices=_read_matrix(root / "pert_indices.i64", (nnz,), "<i8"),
        pert_values=_read_matrix(root / "pert_dose.f64", (nnz,), "<f8"),
        ensembl_id=np.array(var["ensembl_id"], dtype=object),
        gene_symbol=np.array(var["gene_symbol"], dtype=object),
        pert_vocab=tuple(pert_vocab),
        extra_obs=extra,
    )


def _load_manifest(root: Path, expected_kind: str) -> dict:
    mpath = root / MANIFEST
    if not mpath.is_file():
        raise BundleFormatError(f"no {MANIFEST} in {root}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise BundleFormatError(f"{mpath} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleFormatError(f"{mpath} is not a JSON object")
    kind = manifest.get("kind")
    if kind != expected_kind:
        raise BundleFormatError(
            f"{mpath} has kind {kind!r}, expected {expected_kind!r}"
        )
    found = manifest.get("format", 1)  # format 1 had no format key
    if kind == "canonical" and found != CANONICAL_FORMAT:
        raise BundleFormatError(
            f"{mpath} is canonical bundle format {found!r}, expected format {CANONICAL_FORMAT}"
        )
    return manifest


def _field(root: Path, manifest: dict, key: str, valid, expected: str, default=None):
    """The manifest's ``key``; an invalid value, or a missing one without a default, names it."""
    if key not in manifest:
        if default is None:
            raise BundleFormatError(f"{root / MANIFEST} has no {key!r}")
        return default
    value = manifest[key]
    if not valid(value):
        raise BundleFormatError(f"{root / MANIFEST} has {key} {value!r}, expected {expected}")
    return value


def _count(root: Path, manifest: dict, key: str) -> int:
    return _field(root, manifest, key, lambda v: type(v) is int and v >= 0, "a count")


def _is_bundle_file(name: str) -> bool:
    return name in (
        MANIFEST,
        "obs.tsv",
        "var.tsv",
        "X.f64",
        "pert_indptr.i64",
        "pert_indices.i64",
        "pert_dose.f64",
    ) or (name.startswith("obsm_") and name.endswith(".f64"))


def bundle_digest(path: str | Path) -> str:
    """Stable content hash over the bundle's defined files.

    Sidecars such as run manifests or ground-truth records living in the
    same directory do not affect the digest.
    """
    root = Path(path)
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    for f in sorted(p for p in root.iterdir() if p.is_file() and _is_bundle_file(p.name)):
        h.update(f.name.encode())
        h.update(b"\0")
        with open(f, "rb") as fh:
            while n := fh.readinto(buf):
                h.update(view[:n])
        h.update(b"\0")
    return h.hexdigest()
