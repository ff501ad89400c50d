"""Portable on-disk dataset bundles.

A bundle is a directory holding `manifest.json`, `obs.tsv`, `var.tsv` and
a row-major little-endian float64 matrix `X.f64`. A canonical bundle (its
manifest says `"format": 2` and `"nnz"`) adds its perturbations as
little-endian CSR arrays: `pert_indptr.i64`, `pert_indices.i64` and
`pert_dose.f64`. Readers reject other canonical formats (format 1 held
dense mask and dose matrices) and any binary file of the wrong size.

Writers first format the TSV tables, refusing a cell or column name the
reader would split or read as no table or that UTF-8 cannot encode, and a
raw table without obs columns, so a refused write leaves an old bundle
untouched. A table is formatted and encoded in runs of ``_CHUNK_ROWS``
rows, and only the bytes of the runs are kept, so it takes about the
memory of its file. Readers
return one string object per distinct value of a table column. Then they
remove any old run manifest (`run_manifest.json`, which describes the old
bundle), the old digest record and then the old manifest, write each file
under a temporary name and rename it into place, and write the manifest
last, so a write cut short leaves a directory that readers reject rather
than a mix of old and new files. Bundle files are replaced by rename and
never edited in place.

Each kind of bundle has a fixed set of files, and its digest covers only
those, so other files beside them (a run manifest, a ground-truth record,
the digest record) leave it unchanged. Writers hash what they write: the
one worker thread of an executor feeds the bytes of each file to the
digest while the writing thread formats the tables and writes the files,
so the digest is known when the write ends. The worker is joined before
the write returns, whether it finished, failed or was refused. After the
manifest, the writer records that digest in `bundle_digest.json` with each
bundle file's stat keys (device, inode, size, mtime and ctime in
nanoseconds). ``bundle_digest`` returns the recorded digest while the
directory holds the same bundle files with the same keys and the record's
own ctime is later than each of theirs, and reads and hashes the files
otherwise; it never writes into the directory it reads. A rename, a copy of
the directory or an edit after the record moves a key. A file changed in
the clock tick of its recorded ctime could keep every key, so, as git does
with racy index entries, a record whose ctime is not strictly later than
every file's is not trusted. Where one tick of a filesystem's ctime clock
holds both the manifest's rename and the record's write, the record is
therefore never trusted and every reader hashes, as it does for a bundle
copied or written before the record existed. A record that cannot be
written is left out.

Readers map each binary file read-only and return read-only arrays over the
mapping, so nothing is copied at read time. A live dataset holds one file
descriptor per matrix until its arrays are dropped; because a rewrite
renames new files into place, that dataset keeps the old contents while a
new read sees the new ones. Do not overwrite a bundle file in place (as
`cp` onto it or `rsync --inplace` do) while any process has the bundle
open: an open dataset would change under its process, or the process would
die of SIGBUS if the file shrank. Nor edit a bundle file while it is being
written: a same-size edit between the writer's stat and its record, within
one tick of a filesystem's coarse clock, leaves every stat key and so the
old digest. Replace files by rename or write a new directory.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from .data import (
    CANONICAL_OBS_KEYS,
    CanonicalDataset,
    RawTable,
    cast_column,
    column_kind,
)
from .errors import BundleFormatError

MANIFEST = "manifest.json"
RUN_MANIFEST = "run_manifest.json"  # a command's record of the run that wrote a directory
DIGEST_RECORD = "bundle_digest.json"  # the writer's digest and the stat keys it covers
_OBS_TYPES = ("bool", "float", "str", "categorical")
CANONICAL_FORMAT = 2
_DIGEST_CHUNK = 1 << 20
_CHUNK_ROWS = 8192  # table rows formatted and encoded at a time
_DTYPES = {".f64": "<f8", ".i64": "<i8"}


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_BOOL_CELLS = np.array(["false", "true"], dtype=object)


def _format_column(col: np.ndarray) -> list[str]:
    """The TSV text of each cell, formatted per dtype rather than per cell."""
    if col.dtype == bool:
        # every cell shares one of two strings
        return _BOOL_CELLS[col.astype(np.intp)].tolist()
    if col.dtype.kind == "f":
        return list(map(repr, col.astype(np.float64).tolist()))
    if col.dtype.kind in "OUiu":
        cells = col.tolist()
        if set(map(type, cells)) <= {str}:
            return cells
        return [v if type(v) is str else _format_cell(v) for v in cells]
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
    _replace_file(Path(path), lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _has_tab_or_newline(text: str) -> bool:
    # the reader's universal newlines take "\r" for a line break too
    return "\t" in text or "\n" in text or "\r" in text


def _tsv_bytes(columns: dict[str, np.ndarray], header: bool = True) -> bytes:
    """The UTF-8 bytes of the TSV lines of ``columns``: the names line unless
    ``header`` is false, then one line per row. A name or cell that the
    reader would not read back as it was written, or that UTF-8 cannot
    encode (a lone surrogate), is refused: for each of the two faults, the
    first such name, else the first such cell in row order, is named."""
    if "" in columns:
        # a lone empty name makes an empty header line, which reads as no table
        raise BundleFormatError(f"tsv column name is empty: {list(columns)!r}")
    cells = [_format_column(col) for col in columns.values()]
    lines = ["\t".join(columns)] if header else []
    lines.extend(map("\t".join, zip(*cells)))
    text = "\n".join(lines) + "\n"
    # only a tab or newline inside a name or cell adds to the separators
    if (
        text.count("\t") != max(len(columns) - 1, 0) * len(lines)
        or text.count("\n") != len(lines)
        or "\r" in text
    ):
        bad = next((name for name in columns if _has_tab_or_newline(name)), None)
        if bad is not None:
            raise BundleFormatError(f"tsv column name contains tab/newline: {bad!r}")
        bad = next(t for row in zip(*cells) for t in row if _has_tab_or_newline(t))
        raise BundleFormatError(f"tsv cell value contains tab/newline: {bad!r}")
    try:
        return text.encode()
    except UnicodeEncodeError as exc:
        # the separators are exact, so they locate the first unencodable character
        line = text.rfind("\n", 0, exc.start) + 1
        field = text.count("\t", line, exc.start)
        bad = text[line : text.index("\n", exc.start)].split("\t")[field]
    what = "column name" if header and line == 0 else "cell value"
    raise BundleFormatError(f"tsv {what} is not encodable as UTF-8: {bad!r}")


def _tsv_chunks(columns: dict[str, np.ndarray]) -> list[bytes]:
    """``_tsv_bytes(columns)``, formatted and encoded one run of
    ``_CHUNK_ROWS`` rows at a time; the first run holds the names line.

    Only one run is held as text at once, so the table takes about the
    memory of its bytes. Runs are formatted in order, so a refusal names
    what ``_tsv_bytes`` of the whole table would.
    """
    n = len(next(iter(columns.values()))) if columns else 0
    return [
        _tsv_bytes(
            {name: col[lo : lo + _CHUNK_ROWS] for name, col in columns.items()}, header=lo == 0
        )
        for lo in range(0, max(n, 1), _CHUNK_ROWS)
    ]


def _write_chunks(path: Path, chunks: list[bytes]) -> None:
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _unreadable(path: Path, exc: OSError) -> BundleFormatError:
    """The error for a bundle file that cannot be opened and read as a file."""
    if isinstance(exc, FileNotFoundError):
        return BundleFormatError(f"bundle file {path} is missing")
    return BundleFormatError(f"cannot read bundle file {path}: {exc.strerror or exc}")


def _read_tsv(path: Path, n_rows: int) -> dict[str, list[str]]:
    """The columns of a table of ``n_rows`` rows; any other count names the file."""
    try:
        lines = path.read_text(encoding="utf-8").removesuffix("\n").split("\n")
    except OSError as exc:
        raise _unreadable(path, exc) from None
    except UnicodeDecodeError as exc:
        raise BundleFormatError(f"{path} is not UTF-8 text: {exc}") from None
    if lines[0] == "":
        raise BundleFormatError(f"{path} is empty")
    names = lines[0].split("\t")
    k = len(names)
    body = lines[1:]
    tabs = list(map(str.count, body, repeat("\t")))
    if tabs.count(k - 1) != len(body):
        # in a one-column table an empty line is a row holding "", wider
        # tables skip blank lines; an error names the line of the file
        bad = (i for i, n in enumerate(tabs) if n != k - 1 and (k == 1 or body[i]))
        i = next(bad, None)
        if i is not None:
            raise BundleFormatError(f"{path}:{i + 2} has {tabs[i] + 1} fields, expected {k}")
        body = list(filter(None, body))
    if len(body) != n_rows:
        raise BundleFormatError(f"{path} has {len(body)} rows, expected {n_rows}")
    if len(set(names)) < k:
        dup = next(name for name in names if names.count(name) > 1)
        raise BundleFormatError(f"{path} names column {dup!r} more than once")
    # every line holds k fields, so one split of the joined body lays the
    # cells out row-major and column j is every k-th cell from j; each
    # column keeps one string object per distinct value
    fields = "\t".join(body).split("\t") if body else []
    return {name: _shared(fields[j::k]) for j, name in enumerate(names)}


def _shared(values: list[str]) -> list[str]:
    """``values`` with each repeated value replaced by its first occurrence."""
    seen: dict[str, str] = {}
    return list(map(seen.setdefault, values, values))


def _read_matrix(path: Path, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """A read-only array over a read-only mapping of ``path``; nothing is copied."""
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise _unreadable(path, exc) from None
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
            return cast_column(np.array(values, dtype=object), "float")
        except ValueError as exc:
            raise BundleFormatError(f"float obs column {name!r}: {exc}") from None
    return np.array(values, dtype=object)


def _write_bundle(
    out_dir: str | Path,
    manifest: dict,
    tables: dict[str, dict],
    matrices: dict[str, object],
) -> None:
    """Write one bundle and record the digest of the bytes it wrote.

    ``tables`` maps a file name to the columns of its TSV table, ``matrices``
    a file name to an array stored as little-endian float64 (``.f64``) or
    int64 (``.i64``). Once the tables are formatted, the run manifest, the
    digest record and then the manifest of an old bundle go, before the
    first file is replaced, so a crash never leaves a run manifest beside a
    bundle that lacks its manifest. A worker thread hashes the files in
    ``bundle_digest``'s order while this thread formats the tables and
    writes the files; the tables reach the worker once formatted. The worker
    is joined before this returns, and an error on either thread is raised
    here, before the manifest is renamed into place. The digest record is
    written last.
    """
    out = Path(out_dir)
    arrays = {
        name: np.ascontiguousarray(a, dtype=_DTYPES[name[-4:]]) for name, a in matrices.items()
    }
    manifest_bytes = (json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n").encode()
    texts: dict[str, list[bytes]] = {}
    formatted = threading.Event()

    def hash_files() -> str | None:
        h = hashlib.sha256()
        for name in sorted([MANIFEST, *tables, *arrays]):
            if name in arrays:
                chunks = [arrays[name].reshape(-1).view(np.uint8)]
            elif name == MANIFEST:
                chunks = [manifest_bytes]
            else:
                formatted.wait()
                if name not in texts:  # a table was refused
                    return None
                chunks = texts[name]
            h.update(name.encode() + b"\0")
            for chunk in chunks:
                h.update(chunk)
            h.update(b"\0")
        return h.hexdigest()

    with ThreadPoolExecutor(1, thread_name_prefix="bundle-digest") as pool:
        hashed = pool.submit(hash_files)
        try:
            # a refused cell raises before any file of an old bundle changes
            texts.update({name: _tsv_chunks(columns) for name, columns in tables.items()})
        finally:
            formatted.set()
        out.mkdir(parents=True, exist_ok=True)
        for name in (RUN_MANIFEST, DIGEST_RECORD, MANIFEST):
            (out / name).unlink(missing_ok=True)
        for name, chunks in texts.items():
            _replace_file(out / name, lambda tmp: _write_chunks(tmp, chunks))
        for name, a in arrays.items():
            _replace_file(out / name, a.tofile)
    digest = hashed.result()
    _replace_file(out / MANIFEST, lambda tmp: tmp.write_bytes(manifest_bytes))
    _write_digest_record(out, digest)


def _write_digest_record(out: Path, digest: str) -> None:
    """Record ``digest`` with the stat keys of the bundle files in ``out``.

    The record is only a cache and the old one is gone by now, so a failed
    write leaves no record and readers hash the files.
    """
    try:
        text = json.dumps({"digest": digest, "files": _bundle_stats(out)}, sort_keys=True)
        write_text_atomic(out / DIGEST_RECORD, text + "\n")
    except OSError:
        pass


def _recorded_digest(root: Path, stats: dict) -> str | None:
    """The digest of ``root``'s record if it covers exactly ``stats`` and is
    newer than each of those files, else None."""
    try:
        with open(root / DIGEST_RECORD, "rb") as fh:
            ctime_ns = os.fstat(fh.fileno()).st_ctime_ns
            record = json.loads(fh.read())
    except (OSError, ValueError, RecursionError):  # missing, unreadable or torn
        return None
    if not (
        isinstance(record, dict)
        and type(record.get("digest")) is str
        and record.get("files") == {name: list(key) for name, key in stats.items()}
        and all(key[4] < ctime_ns for key in stats.values())
    ):
        return None
    return record["digest"]


def write_raw_bundle(table: RawTable, out_dir: str | Path) -> None:
    if not table.obs:
        # its obs.tsv would hold only a newline, which reads as no table
        raise BundleFormatError("a raw bundle needs at least one obs column")
    manifest = {
        "kind": "raw",
        "n_cells": table.n_cells,
        "n_genes": table.n_genes,
        "p": 0,
        "flags": {},
        "pert_vocab": [],
        "obs_types": {k: column_kind(v) for k, v in table.obs.items()},
        "var_index_name": "index",
    }
    _write_bundle(
        out_dir,
        manifest,
        {"obs.tsv": table.obs, "var.tsv": {"index": table.var_index, **table.var_columns}},
        {"X.f64": table.X},
    )


def read_raw_bundle(path: str | Path) -> RawTable:
    root = Path(path)
    manifest = _load_manifest(root, expected_kind="raw")
    n_cells, n_genes = _count(root, manifest, "n_cells"), _count(root, manifest, "n_genes")
    obs_types = _field(
        root, manifest, "obs_types",
        lambda v: type(v) is dict and all(tag in _OBS_TYPES for tag in v.values()),
        f"an object from column name to one of {list(_OBS_TYPES)}", default={},
    )
    raw_obs = _read_tsv(root / "obs.tsv", n_cells)
    obs = {
        name: _parse_obs_column(name, values, obs_types.get(name, "str"))
        for name, values in raw_obs.items()
    }
    var = _read_tsv(root / "var.tsv", n_genes)
    var_names = list(var)
    var_index = np.array(var[var_names[0]], dtype=object)
    var_columns = {name: np.array(var[name], dtype=object) for name in var_names[1:]}
    X = _read_matrix(root / "X.f64", (n_cells, n_genes), "<f8")
    return RawTable(obs=obs, var_index=var_index, var_columns=var_columns, X=X)


def write_canonical_bundle(ds: CanonicalDataset, out_dir: str | Path) -> None:
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
    _write_bundle(
        out_dir,
        manifest,
        {
            "obs.tsv": ds.obs_columns(),
            "var.tsv": {"ensembl_id": ds.ensembl_id, "gene_symbol": ds.gene_symbol},
        },
        {
            "X.f64": ds.X,
            "pert_indptr.i64": ds.pert_indptr,
            "pert_indices.i64": ds.pert_indices,
            "pert_dose.f64": ds.pert_values,
        },
    )


def read_canonical_bundle(path: str | Path) -> CanonicalDataset:
    root = Path(path)
    manifest = _load_manifest(root, expected_kind="canonical")
    n_cells, n_genes = _count(root, manifest, "n_cells"), _count(root, manifest, "n_genes")
    nnz = _count(root, manifest, "nnz")
    pert_vocab = _field(
        root, manifest, "pert_vocab",
        lambda v: type(v) is list and all(type(name) is str for name in v), "a list of names",
    )
    _field(root, manifest, "p", lambda v: type(v) is int and v == len(pert_vocab),
           f"the length of pert_vocab, {len(pert_vocab)}")
    obs = _read_tsv(root / "obs.tsv", n_cells)
    missing = [k for k in CANONICAL_OBS_KEYS if k not in obs]
    if missing:
        raise BundleFormatError(f"obs.tsv missing canonical columns: {missing}")
    var = _read_tsv(root / "var.tsv", n_genes)
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
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except OSError as exc:
        raise _unreadable(mpath, exc) from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise BundleFormatError(f"{mpath} is not valid UTF-8 JSON: {exc}") from exc
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


_RAW_FILES = (MANIFEST, "obs.tsv", "var.tsv", "X.f64")
_CANONICAL_FILES = (*_RAW_FILES, "pert_indptr.i64", "pert_indices.i64", "pert_dose.f64")


def _bundle_files(root: Path) -> tuple[str, ...]:
    """The files of a bundle of ``root``'s kind.

    Without a raw manifest that parses, every file a bundle of either kind
    could hold.
    """
    try:
        manifest = json.loads((root / MANIFEST).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return _CANONICAL_FILES
    raw = isinstance(manifest, dict) and manifest.get("kind") == "raw"
    return _RAW_FILES if raw else _CANONICAL_FILES


def _bundle_stats(root: Path) -> dict[str, tuple[int, int, int, int, int]]:
    """Each bundle file in ``root`` with the stat keys that a change to it moves."""
    names = _bundle_files(root)
    stats = {}
    with os.scandir(root) as entries:
        for entry in entries:
            if entry.name in names and entry.is_file():
                st = entry.stat()
                stats[entry.name] = (
                    st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns
                )
    return stats


def bundle_digest(path: str | Path) -> str:
    """Stable content hash over the files of a bundle of its kind.

    Sidecars such as run manifests or ground-truth records living in the
    same directory do not affect the digest. A bundle is not read again
    while its writer's digest record holds (see the module docstring).
    """
    root = Path(path)
    stats = _bundle_stats(root)
    recorded = _recorded_digest(root, stats)
    if recorded is not None:
        return recorded
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    for name in sorted(stats):
        h.update(name.encode())
        h.update(b"\0")
        with open(root / name, "rb") as fh:
            while n := fh.readinto(buf):
                h.update(view[:n])
        h.update(b"\0")
    return h.hexdigest()
