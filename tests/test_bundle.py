from __future__ import annotations

import errno
import hashlib
import json
import mmap
import os
import re
import shutil
import tempfile
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mapping_rss_kb, reference_tsv_text, small_canonical
from pertpipe import bundle
from pertpipe.bundle import (
    bundle_digest,
    read_canonical_bundle,
    read_raw_bundle,
    write_canonical_bundle,
    write_raw_bundle,
)
from pertpipe.data import CanonicalDataset, RawTable, release_pages
from pertpipe.errors import BundleFormatError


@pytest.fixture
def raw_table():
    return RawTable(
        obs={
            "name": np.array(["a", "b", "c"], dtype=object),
            "dose": np.array([0.5, 1.25, 2.0]),
            "flagged": np.array([True, False, True]),
        },
        var_index=np.array(["g1", "g2"], dtype=object),
        var_columns={"sym": np.array(["S1", "S2"], dtype=object)},
        X=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    )


class TestRawBundle:
    def test_round_trip(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        back = read_raw_bundle(tmp_path / "raw")
        assert np.array_equal(back.X, raw_table.X)
        assert back.obs["name"].tolist() == ["a", "b", "c"]
        assert back.obs["dose"].dtype == np.float64
        assert back.obs["flagged"].dtype == bool
        assert back.var_index.tolist() == ["g1", "g2"]
        assert back.var_columns["sym"].tolist() == ["S1", "S2"]
        assert sorted(p.name for p in (tmp_path / "raw").iterdir()) == [
            "X.f64", "bundle_digest.json", "manifest.json", "obs.tsv", "var.tsv",
        ]

    @pytest.mark.parametrize(
        "names", [["a", "", "c"], [""], ["", ""], ["a", "b", ""]], ids=repr
    )
    def test_empty_cells_of_a_one_column_table_round_trip(self, names, tmp_path):
        n = len(names)
        table = RawTable(
            obs={"name": np.array(names, dtype=object)},
            var_index=np.array(["g1", ""], dtype=object),
            var_columns={},
            X=np.arange(2.0 * n).reshape(n, 2),
        )
        write_raw_bundle(table, tmp_path / "raw")
        back = read_raw_bundle(tmp_path / "raw")
        assert back.obs["name"].tolist() == names
        assert back.var_index.tolist() == ["g1", ""]

    def test_wider_tables_skip_blank_lines(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        obs = tmp_path / "raw" / "obs.tsv"
        lines = obs.read_text().split("\n")
        obs.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        assert read_raw_bundle(tmp_path / "raw").obs["name"].tolist() == ["a", "b", "c"]

    def test_short_row_error_names_the_line_of_the_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\n\n1\t2\n\n3\n")
        with pytest.raises(BundleFormatError, match=r"t\.tsv:5 has 1 fields, expected 2$"):
            bundle._read_tsv(path, 2)

    def test_size_mismatch_reports_expected_bytes(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        with open(tmp_path / "raw" / "X.f64", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(BundleFormatError, match="48"):
            read_raw_bundle(tmp_path / "raw")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(BundleFormatError, match="manifest"):
            read_raw_bundle(tmp_path / "empty")

    def test_kind_mismatch(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        with pytest.raises(BundleFormatError, match="kind"):
            read_canonical_bundle(tmp_path / "raw")


@given(
    cells=st.lists(st.text(alphabet="x \t\n\r", max_size=3), min_size=1, max_size=4),
    wide=st.booleans(),
    name=st.text(alphabet="a \t\n\r", max_size=2),
)
@settings(max_examples=200, deadline=None)
@example(cells=["x\ry", "z"], wide=False, name="a")
@example(cells=["x\ry", "z"], wide=True, name="a")
@example(cells=["x"], wide=False, name="")
@example(cells=["x"], wide=True, name="a\rb")
def test_tsv_cells_read_back_or_are_refused(cells, wide, name):
    # a cell or column name the reader would split into two lines or fields,
    # or an empty name, which alone makes an empty header, is never written
    columns = {name: np.array(cells, dtype=object)}
    if wide:
        columns["b"] = np.array(["1"] * len(cells), dtype=object)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.tsv"
        try:
            path.write_bytes(bundle._tsv_bytes(columns))
        except BundleFormatError:
            assert name == "" or any(c in text for text in [name, *cells] for c in "\t\n\r")
            return
        assert bundle._read_tsv(path, len(cells)) == {k: v.tolist() for k, v in columns.items()}


def _distinct_objects(values) -> int:
    return len({id(v) for v in values})


class TestSharedCells:
    """Readers return one string object per distinct value of a table column."""

    def test_a_read_column_holds_one_object_per_distinct_value(self, tmp_path):
        values = ["a", "a\x00", "b", "a", "a\x00", "a"]
        path = tmp_path / "t.tsv"
        path.write_text("c\td\n" + "".join(f"{v}\t{v}\n" for v in values))
        columns = bundle._read_tsv(path, len(values))
        # "a" and "a\x00" stay apart
        assert columns == {"c": values, "d": values}
        assert [_distinct_objects(col) for col in columns.values()] == [3, 3]

    def test_raw_and_canonical_reads_share_their_obs_strings(self, tmp_path):
        names = np.array(["x", "y", "x", "x\x00", "y", "x"], dtype=object)
        table = RawTable(obs={"name": names, "flag": np.array([True, False] * 3)},
                         var_index=np.array(["g1"], dtype=object), X=np.ones((6, 1)))
        write_raw_bundle(table, tmp_path / "raw")
        back = read_raw_bundle(tmp_path / "raw").obs["name"]
        assert back.tolist() == names.tolist() and _distinct_objects(back) == 3
        ds = small_canonical({"control": [[1.0]] * 3, "A": [[2.0]] * 4})
        write_canonical_bundle(ds, tmp_path / "canon")
        canon = read_canonical_bundle(tmp_path / "canon")
        assert canon.condition_name.tolist() == ds.condition_name.tolist()
        assert _distinct_objects(canon.condition_name) == 2
        assert _distinct_objects(canon.cell_type) == 1


_CHUNK = bundle._CHUNK_ROWS


class TestTableChunks:
    """Writers format and encode tables one run of rows at a time."""

    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_chunks_join_to_the_one_table_text(self, n):
        rng = np.random.default_rng(n)
        columns = {
            "s": np.array([f"v{i % 7}" for i in range(n)], dtype=object),
            "b": rng.random(n) < 0.5,
            "f": rng.uniform(-1.0, 1.0, n),
            "i": rng.integers(0, 9, n),
            "u": np.array(["\u00e9", "\u6f22", "x"] * n, dtype=object)[:n],
        }
        chunks = bundle._tsv_chunks(columns)
        assert len(chunks) == max(1, -(-n // _CHUNK))
        assert b"".join(chunks) == reference_tsv_text(columns).encode()

    def test_a_bad_cell_of_a_later_run_is_named(self):
        n = 2 * _CHUNK + 1
        cells = np.array(["ok"] * n, dtype=object)
        cells[_CHUNK + 3] = "x\ty"
        cells[2 * _CHUNK] = "z\nw"  # a later bad cell, not the one named
        columns = {"a": np.zeros(n), "b": cells}
        with pytest.raises(BundleFormatError) as ref:
            reference_tsv_text(columns)
        with pytest.raises(BundleFormatError) as info:
            bundle._tsv_chunks(columns)
        assert str(info.value) == str(ref.value) == "tsv cell value contains tab/newline: 'x\\ty'"

    def test_formatting_holds_about_the_bytes_of_the_table(self):
        # 60 000 rows of five str columns of repeated values and two bool columns
        n = 60_000
        rng = np.random.default_rng(0)
        values = np.array([f"value_{j}" for j in range(300)], dtype=object)
        columns = {f"s{k}": values[rng.integers(0, 300, n)] for k in range(5)}
        columns.update(b0=rng.random(n) < 0.5, b1=rng.random(n) < 0.1)
        tracemalloc.start()
        try:
            chunks = bundle._tsv_chunks(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(map(len, chunks))


class TestColumnNames:
    """A column name the reader would not read back, or a raw table without
    obs columns, is refused before any file of an old bundle changes."""

    @staticmethod
    def _files(path: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in path.iterdir()}

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", "\t"], ids=repr)
    def test_a_raw_obs_name(self, raw_table, name, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        before = self._files(tmp_path / "raw")
        bad = RawTable(obs={"ok": raw_table.obs["name"], name: raw_table.obs["dose"]},
                       var_index=raw_table.var_index, X=raw_table.X)
        with pytest.raises(BundleFormatError,
                           match=re.escape(f"column name contains tab/newline: {name!r}")):
            write_raw_bundle(bad, tmp_path / "raw")
        assert self._files(tmp_path / "raw") == before

    def test_a_var_column_name(self, raw_table, tmp_path):
        bad = RawTable(obs=raw_table.obs, var_index=raw_table.var_index,
                       var_columns={"s\ny": raw_table.var_columns["sym"]}, X=raw_table.X)
        message = "column name contains tab/newline: 's\\ny'"
        with pytest.raises(BundleFormatError, match=re.escape(message)):
            write_raw_bundle(bad, tmp_path / "raw")
        assert not (tmp_path / "raw").exists()

    def test_a_lone_empty_name(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        before = self._files(tmp_path / "raw")
        bad = RawTable(obs={"": raw_table.obs["name"]}, var_index=raw_table.var_index,
                       X=raw_table.X)
        with pytest.raises(BundleFormatError, match=re.escape("tsv column name is empty: ['']")):
            write_raw_bundle(bad, tmp_path / "raw")
        assert self._files(tmp_path / "raw") == before

    def test_no_obs_columns(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        before = self._files(tmp_path / "raw")
        bad = RawTable(obs={}, var_index=raw_table.var_index, X=raw_table.X)
        with pytest.raises(BundleFormatError, match="needs at least one obs column"):
            write_raw_bundle(bad, tmp_path / "raw")
        assert self._files(tmp_path / "raw") == before

    def test_an_extra_obs_name(self, tmp_path):
        from dataclasses import replace

        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]})
        write_canonical_bundle(ds, tmp_path / "c")
        before = self._files(tmp_path / "c")
        bad = replace(ds, extra_obs={"a\tb": np.array(["x", "y"], dtype=object)})
        message = "column name contains tab/newline: 'a\\tb'"
        with pytest.raises(BundleFormatError, match=re.escape(message)):
            write_canonical_bundle(bad, tmp_path / "c")
        assert self._files(tmp_path / "c") == before


class TestLoneSurrogates:
    """A name or cell holding a lone surrogate, which UTF-8 cannot encode, is
    refused by name before any file of an old bundle changes."""

    @staticmethod
    def _refused(table: RawTable, path: Path, message: str) -> None:
        before = TestColumnNames._files(path)
        with pytest.raises(BundleFormatError, match=f"^{re.escape(message)}$"):
            write_raw_bundle(table, path)
        assert TestColumnNames._files(path) == before

    def test_the_first_cell_in_row_order(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        # the first column's bad cell is in a later row than the last column's
        obs = {**raw_table.obs, "name": np.array(["a", "b", "\udc00"], dtype=object),
               "tag": np.array(["x", "y\ud800z", "w"], dtype=object)}
        bad = RawTable(obs=obs, var_index=raw_table.var_index, X=raw_table.X)
        self._refused(bad, tmp_path / "raw", "tsv cell value is not encodable as UTF-8: 'y\\ud800z'")

    def test_a_name_before_any_cell(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        obs = {"name": np.array(["\ud800", "b", "c"], dtype=object),
               "n\udfff": raw_table.obs["dose"]}
        bad = RawTable(obs=obs, var_index=raw_table.var_index, X=raw_table.X)
        self._refused(bad, tmp_path / "raw",
                      "tsv column name is not encodable as UTF-8: 'n\\udfff'")

    def test_a_cell_of_a_later_run(self):
        n = 2 * _CHUNK + 1
        cells = np.array(["ok"] * n, dtype=object)
        cells[_CHUNK + 3] = "\udfff"
        cells[2 * _CHUNK] = "x\ud800"  # a later bad cell, not the one named
        with pytest.raises(BundleFormatError, match=re.escape("UTF-8: '\\udfff'")):
            bundle._tsv_chunks({"a": np.zeros(n), "b": cells})


class TestCanonicalBundle:
    def test_round_trip(self, tmp_path):
        ds = small_canonical(
            {"control": [[1.0, 0.5]], "A": [[2.0, 0.25]], "B": [[0.0, 3.0]]},
            doses={"A": 10.0},
        )
        write_canonical_bundle(ds, tmp_path / "canon")
        back = read_canonical_bundle(tmp_path / "canon")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.pert_mask, ds.pert_mask)
        assert np.array_equal(back.pert_dose, ds.pert_dose)
        assert back.pert_vocab == ds.pert_vocab
        assert np.array_equal(back.is_control, ds.is_control)
        assert back.condition_name.tolist() == ds.condition_name.tolist()
        assert back.ensembl_id.tolist() == ds.ensembl_id.tolist()

    def test_format_2_round_trip_keeps_the_digest(self, tmp_path):
        from dataclasses import replace

        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]], "B": [[0.0, 3.0]]})
        # a two-entry row and a -0.0 dose, which must survive byte for byte
        ds = replace(ds, pert_indptr=[0, 0, 2, 3], pert_indices=[0, 1, 1],
                     pert_values=[10.0, -0.0, 0.0])
        write_canonical_bundle(ds, tmp_path / "one")
        manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
        assert (manifest["format"], manifest["nnz"]) == (2, 3)
        assert sorted(f.name for f in (tmp_path / "one").iterdir()) == [
            "X.f64", "bundle_digest.json", "manifest.json", "obs.tsv", "pert_dose.f64",
            "pert_indices.i64", "pert_indptr.i64", "var.tsv",
        ]
        back = read_canonical_bundle(tmp_path / "one")
        for name in ("pert_indptr", "pert_indices", "pert_values"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
        write_canonical_bundle(back, tmp_path / "again")
        assert bundle_digest(tmp_path / "one") == bundle_digest(tmp_path / "again")

    def test_extra_obs_round_trip(self, tmp_path):
        from dataclasses import replace

        ds = small_canonical({"control": [[1.0, 1.0]], "A": [[2.0, 2.0]]})
        ds = replace(
            ds, extra_obs={"source_dataset": np.array(["d0", "d1"], dtype=object)}
        )
        write_canonical_bundle(ds, tmp_path / "c")
        back = read_canonical_bundle(tmp_path / "c")
        assert back.extra_obs["source_dataset"].tolist() == ["d0", "d1"]

    def test_write_is_deterministic(self, tmp_path):
        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]})
        write_canonical_bundle(ds, tmp_path / "one")
        write_canonical_bundle(ds, tmp_path / "two")
        assert bundle_digest(tmp_path / "one") == bundle_digest(tmp_path / "two")

    def test_digest_ignores_sidecars(self, tmp_path):
        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]})
        write_canonical_bundle(ds, tmp_path / "c")
        before = bundle_digest(tmp_path / "c")
        (tmp_path / "c" / "run_manifest.json").write_text("{}")
        assert bundle_digest(tmp_path / "c") == before

    @pytest.mark.parametrize(
        "name",
        ["manifest.json", "obs.tsv", "var.tsv", "X.f64", "pert_indptr.i64",
         "pert_indices.i64", "pert_dose.f64"],
    )
    def test_digest_covers_every_bundle_file(self, tmp_path, name):
        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]}, doses={"A": 10.0})
        write_canonical_bundle(ds, tmp_path / "c")
        before = bundle_digest(tmp_path / "c")
        path = tmp_path / "c" / name
        data = bytearray(path.read_bytes())
        data[-1] ^= 1
        path.write_bytes(bytes(data))
        assert bundle_digest(tmp_path / "c") != before

    def test_a_manifest_integer_past_the_digit_limit(self, tmp_path):
        # json.loads refuses an integer of more than 4300 digits with a ValueError:
        # the digest covers every file either kind could hold, and a read refuses it
        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]})
        write_canonical_bundle(ds, tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.json"
        manifest.write_text('{"x":' + "1" * 5000 + "," + manifest.read_text()[1:])
        assert len(bundle_digest(tmp_path / "c")) == 64
        with pytest.raises(BundleFormatError, match="is not valid UTF-8 JSON"):
            read_canonical_bundle(tmp_path / "c")

    @pytest.mark.parametrize(
        "name, expected",
        [("pert_indptr.i64", 24), ("pert_indices.i64", 8), ("pert_dose.f64", 8)],
    )
    def test_perturbation_file_size_mismatch(self, tmp_path, name, expected):
        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]})
        write_canonical_bundle(ds, tmp_path / "c")
        (tmp_path / "c" / name).write_bytes(b"\x01")
        with pytest.raises(BundleFormatError, match=f"{name} holds 1 bytes, expected {expected}"):
            read_canonical_bundle(tmp_path / "c")


class TestCrashSafeWrites:
    def _datasets(self):
        old = small_canonical(
            {"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]}, doses={"A": 10.0}
        )
        new = small_canonical(
            {"control": [[3.0, 1.5]], "A": [[4.0, 0.75]]}, doses={"A": 20.0}
        )
        return old, new

    def test_failed_overwrite_is_rejected_not_mixed(self, tmp_path, monkeypatch):
        old, new = self._datasets()
        write_canonical_bundle(old, tmp_path / "c")
        real = bundle._replace_file

        def failing(path, write):
            if path.name == "pert_dose.f64":
                raise OSError("disk full")
            real(path, write)

        monkeypatch.setattr(bundle, "_replace_file", failing)
        with pytest.raises(OSError, match="disk full"):
            write_canonical_bundle(new, tmp_path / "c")
        # X is already new and pert_dose still old: the reader must refuse
        with pytest.raises(BundleFormatError, match="manifest"):
            read_canonical_bundle(tmp_path / "c")

    def test_manifest_is_written_last(self, tmp_path, monkeypatch):
        old, _ = self._datasets()
        order = []
        real = bundle.os.replace

        def recording(src, dst):
            order.append(Path(dst).name)
            real(src, dst)

        monkeypatch.setattr(bundle.os, "replace", recording)
        write_canonical_bundle(old, tmp_path / "c")
        # the digest record follows the bundle's last file
        assert order[-2:] == ["manifest.json", "bundle_digest.json"]
        assert sorted(order) == sorted(p.name for p in (tmp_path / "c").iterdir())

    def test_failed_file_write_keeps_old_file_and_no_temporary(self, tmp_path):
        target = tmp_path / "X.f64"
        target.write_bytes(b"old")

        def partial(tmp):
            tmp.write_bytes(b"new but cut")
            raise OSError("cut")

        with pytest.raises(OSError, match="cut"):
            bundle._replace_file(target, partial)
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["X.f64"]


def _mapped_inode(a: np.ndarray) -> int:
    """The inode of the file whose mapping holds ``a``'s first byte."""
    address = a.ctypes.data
    for line in Path("/proc/self/maps").read_text().splitlines():
        fields = line.split()
        start, end = (int(x, 16) for x in fields[0].split("-"))
        if start <= address < end:
            return int(fields[4])
    raise AssertionError("no mapping holds the array")


class _Crash(BaseException):
    """A write cut short at one step, as a crash would cut it."""


class TestWrittenDatasetIsBacked:
    """write_canonical_bundle backs the dataset's X by the X.f64 it wrote."""

    @pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="needs /proc/self/maps")
    def test_x_maps_the_written_file(self, tmp_path):
        ds, _ = TestCrashSafeWrites()._datasets()
        before = ds.X.copy()
        write_canonical_bundle(ds, tmp_path / "c")
        assert _mapped_inode(ds.X) == (tmp_path / "c" / "X.f64").stat().st_ino
        assert not ds.X.flags.writeable
        assert ds.X.dtype == before.dtype and ds.X.tobytes() == before.tobytes()

    def test_a_write_into_its_own_bundle_keeps_the_digest(self, tmp_path):
        ds, _ = TestCrashSafeWrites()._datasets()
        write_canonical_bundle(ds, tmp_path / "c")
        digest, backing = bundle_digest(tmp_path / "c"), ds.X
        write_canonical_bundle(ds, tmp_path / "c")
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c") == digest
        # the renamed-over file stays mapped and readable
        back = read_canonical_bundle(tmp_path / "c")
        assert backing.tobytes() == ds.X.tobytes() == back.X.tobytes()

    @pytest.mark.parametrize("failure", ["refused cell", "manifest rename"])
    def test_a_write_that_raises_leaves_x(self, tmp_path, monkeypatch, failure):
        if failure == "refused cell":
            ds = small_canonical({"control": [[1.0, 0.5]], "A\tB": [[2.0, 0.25]]})
            error = BundleFormatError
        else:
            ds, _ = TestCrashSafeWrites()._datasets()
            error = OSError
            real = bundle.os.replace

            def replace(src, dst):
                if Path(dst).name == "manifest.json":
                    raise OSError("disk full")
                real(src, dst)

            monkeypatch.setattr(bundle.os, "replace", replace)
        X = ds.X
        with pytest.raises(error):
            write_canonical_bundle(ds, tmp_path / "c")
        assert ds.X is X

    def test_each_step_of_an_overwrite_leaves_the_old_or_a_refused_bundle(
        self, tmp_path, monkeypatch
    ):
        old, new = TestCrashSafeWrites()._datasets()
        old_files = {"X": old.X.copy(), "pert_values": old.pert_values.copy()}

        def write_new(root: Path, crash_at: int | None) -> list[str]:
            """Overwrite ``root`` with ``new``; raise at step ``crash_at`` of its
            unlinks, renames and file writes; return the steps taken."""
            steps: list[str] = []

            def step(label: str) -> None:
                steps.append(label)
                if len(steps) - 1 == crash_at:
                    raise _Crash(label)

            real_unlink, real_replace, real_file = Path.unlink, os.replace, bundle._replace_file

            def unlink(path, missing_ok=False):
                step(f"unlink {path.name}")
                real_unlink(path, missing_ok=missing_ok)

            def replace(src, dst):
                step(f"rename {Path(dst).name}")
                real_replace(src, dst)

            def replace_file(path, write):
                def counted(tmp):
                    step(f"write {path.name}")
                    write(tmp)

                real_file(path, counted)

            with monkeypatch.context() as m:
                m.setattr(Path, "unlink", unlink)
                m.setattr(os, "replace", replace)
                m.setattr(bundle, "_replace_file", replace_file)
                write_canonical_bundle(new, root)
            return steps

        def old_bundle(root: Path) -> str:
            write_canonical_bundle(old, root)
            (root / "run_manifest.json").write_text("{}\n")
            return bundle_digest(root)

        steps = write_new(tmp_path / "count", None)
        assert len(steps) == 3 + 2 * 6 + 2 * 2  # unlinks, then each bundle file and the record
        X = new.X
        for k, label in enumerate(steps):
            root = tmp_path / str(k)
            old_digest = old_bundle(root)
            with pytest.raises(_Crash):
                write_new(root, k)
            assert new.X is X, label
            try:
                back = read_canonical_bundle(root)
            except BundleFormatError:
                continue  # a directory that readers refuse
            if k > steps.index("rename manifest.json"):
                # the new bundle is whole; only its digest record is missing
                assert np.array_equal(back.X, new.X), label
                assert bundle_digest(root) == _fresh_digest(root) != old_digest, label
            else:
                assert np.array_equal(back.X, old_files["X"]), label
                assert np.array_equal(back.pert_values, old_files["pert_values"]), label
                assert bundle_digest(root) == _fresh_digest(root) == old_digest, label


def test_digest_hashes_large_files_in_chunks(tmp_path):
    rng = np.random.default_rng(0)
    table = RawTable(
        obs={"name": np.array([f"c{i}" for i in range(300)], dtype=object)},
        var_index=np.array([f"g{j}" for j in range(500)], dtype=object),
        X=rng.random((300, 500)),  # 1.2 MB, more than one read chunk
    )
    write_raw_bundle(table, tmp_path / "raw")
    h = hashlib.sha256()
    for f in sorted((tmp_path / "raw").iterdir()):
        if f.name == "bundle_digest.json":
            continue
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    assert bundle_digest(tmp_path / "raw") == h.hexdigest()


class TestMappedReads:
    """Readers map matrix files read-only instead of copying them."""

    def _bundles(self, raw_table, tmp_path):
        ds = small_canonical(
            {"control": [[1.0, 0.5]], "A": [[2.0, 0.25]], "B": [[0.0, 3.0]]},
            doses={"A": 10.0},
        )
        write_raw_bundle(raw_table, tmp_path / "raw")
        write_canonical_bundle(ds, tmp_path / "canon")
        raw = read_raw_bundle(tmp_path / "raw")
        canon = read_canonical_bundle(tmp_path / "canon")
        return {
            "raw/X.f64": (raw.X, "<f8"),
            "canon/X.f64": (canon.X, "<f8"),
            "canon/pert_indptr.i64": (canon.pert_indptr, "<i8"),
            "canon/pert_indices.i64": (canon.pert_indices, "<i8"),
            "canon/pert_dose.f64": (canon.pert_values, "<f8"),
        }

    def test_arrays_are_read_only_and_equal_the_files(self, raw_table, tmp_path):
        for name, (a, dtype) in self._bundles(raw_table, tmp_path).items():
            on_disk = np.fromfile(tmp_path / name, dtype=dtype)
            assert not a.flags.writeable, name
            assert a.dtype == on_disk.dtype and a.tobytes() == on_disk.tobytes(), name
            base = a
            while isinstance(base, np.ndarray):
                base = base.base
            # a view of the mapped file, not a copy
            assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap), name
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[0] = 1

    def test_rewrite_leaves_a_live_dataset_unchanged(self, tmp_path):
        old, new = TestCrashSafeWrites()._datasets()
        write_canonical_bundle(old, tmp_path / "c")
        live = read_canonical_bundle(tmp_path / "c")
        write_canonical_bundle(new, tmp_path / "c")
        for name in ("X", "pert_indptr", "pert_indices", "pert_values"):
            assert np.array_equal(getattr(live, name), getattr(old, name)), name
        again = read_canonical_bundle(tmp_path / "c")
        assert np.array_equal(again.X, new.X)
        assert np.array_equal(again.pert_values, new.pert_values)

    def test_bundle_without_perturbation_entries_reads_back(self, tmp_path):
        ds = small_canonical({"control": [[1.0, 0.5], [2.0, 0.25]]})
        write_canonical_bundle(ds, tmp_path / "c")
        assert (tmp_path / "c" / "pert_indices.i64").stat().st_size == 0
        back = read_canonical_bundle(tmp_path / "c")
        assert back.pert_indices.shape == back.pert_values.shape == (0,)
        assert not back.pert_indices.flags.writeable
        assert back.pert_indptr.tolist() == [0, 0, 0]
        assert np.array_equal(back.X, ds.X)

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_discarded_reads_release_their_descriptors(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]})
        write_canonical_bundle(ds, tmp_path / "canon")
        before = len(list(Path("/proc/self/fd").iterdir()))
        for _ in range(150):
            read_raw_bundle(tmp_path / "raw")
            read_canonical_bundle(tmp_path / "canon")
        assert len(list(Path("/proc/self/fd").iterdir())) == before

    @pytest.mark.parametrize(
        "damage, message",
        [("remove", "bundle file .*X.f64 is missing"),
         ("truncate", "X.f64 holds 0 bytes, expected 16"),
         ("extend", "X.f64 holds 24 bytes, expected 16")],
    )
    def test_a_damaged_matrix_file_is_rejected(self, tmp_path, damage, message):
        ds = small_canonical({"control": [[1.0, 0.5]]})
        write_canonical_bundle(ds, tmp_path / "c")
        path = tmp_path / "c" / "X.f64"
        if damage == "remove":
            path.unlink()
        else:
            path.write_bytes(b"" if damage == "truncate" else b"\x00" * 24)
        with pytest.raises(BundleFormatError, match=message):
            read_canonical_bundle(tmp_path / "c")

    def test_repeated_column_names_are_rejected(self, raw_table, tmp_path):
        write_raw_bundle(raw_table, tmp_path / "raw")
        obs = tmp_path / "raw" / "obs.tsv"
        obs.write_text(obs.read_text().replace("name\tdose", "name\tname", 1))
        with pytest.raises(BundleFormatError, match="names column 'name' more than once"):
            read_raw_bundle(tmp_path / "raw")


_SMAPS = pytest.mark.skipif(
    not Path("/proc/self/smaps").is_file() or not hasattr(mmap, "MADV_DONTNEED"),
    reason="needs /proc/self/smaps and MADV_DONTNEED",
)


class TestReleasePages:
    """release_pages drops the resident pages inside a mapped matrix or a range of its rows."""

    def _mapped(self, tmp_path) -> np.ndarray:
        # 256 x 512 float64: 1 MiB, every page touched
        X = np.random.default_rng(0).uniform(0.0, 9.0, (256, 512))
        X.tofile(tmp_path / "X.f64")
        mapped = bundle._read_matrix(tmp_path / "X.f64", X.shape, "<f8")
        assert np.array_equal(mapped, X)
        return mapped

    def test_an_array_in_memory_is_left_alone(self):
        a = np.arange(12.0).reshape(3, 4)
        for view in (a, a[1:], a.T):
            release_pages(view)
        assert np.array_equal(a, np.arange(12.0).reshape(3, 4))

    def test_the_unmapped_zero_size_matrix_is_left_alone(self, tmp_path):
        (tmp_path / "X.f64").write_bytes(b"")
        a = bundle._read_matrix(tmp_path / "X.f64", (0, 3), "<f8")
        release_pages(a)
        assert a.shape == (0, 3) and not a.flags.writeable

    def test_values_after_release_equal_a_copy(self, tmp_path):
        mapped = self._mapped(tmp_path)
        before = mapped.copy()
        release_pages(mapped)
        assert mapped.tobytes() == before.tobytes()

    @_SMAPS
    def test_whole_pages_inside_rows_are_released(self, tmp_path):
        # 101 x 384 float64: rows of 3 KiB, so most row ranges, and the
        # file, end inside a page
        X = np.random.default_rng(0).uniform(0.0, 9.0, (101, 384))
        X.tofile(tmp_path / "X.f64")
        mapped = bundle._read_matrix(tmp_path / "X.f64", X.shape, "<f8")
        page = mmap.PAGESIZE
        pages = -(-mapped.nbytes // page)
        assert mapped.sum() == X.sum()
        assert mapping_rss_kb(mapped) == pages * page // 1024
        release_pages(mapped[:, :256])  # a column slice is left alone
        release_pages(mapped[::2])
        assert mapping_rss_kb(mapped) == pages * page // 1024
        # the whole pages inside rows 5:41 go, the two they share with rows 4 and 41 stay
        lo, hi = 5 * mapped[0].nbytes, 41 * mapped[0].nbytes
        assert lo % page and hi % page and mapped.nbytes % page
        release_pages(mapped[5:41])
        inside = hi // page - -(-lo // page)
        assert mapping_rss_kb(mapped) == (pages - inside) * page // 1024
        release_pages(mapped)
        assert mapping_rss_kb(mapped) == 0
        assert mapped.tobytes() == X.tobytes()  # a read maps the pages again
        assert mapping_rss_kb(mapped) == pages * page // 1024

    @_SMAPS
    def test_without_madv_dontneed_nothing_is_released(self, tmp_path, monkeypatch):
        mapped = self._mapped(tmp_path)
        monkeypatch.delattr(mmap, "MADV_DONTNEED")
        release_pages(mapped)
        assert mapping_rss_kb(mapped) == mapped.nbytes // 1024


_SHA256 = hashlib.sha256  # not the counting stand-in of TestKeptDigest


def _fresh_digest(root: Path) -> str:
    """The digest of the files of a bundle of its kind, as they are on disk now.

    Without a manifest, every file a bundle could hold is hashed.
    """
    names = {"manifest.json", "obs.tsv", "var.tsv", "X.f64"}
    try:
        manifest = json.loads((root / "manifest.json").read_text())
    except FileNotFoundError:
        manifest = {"kind": "canonical"}
    if manifest["kind"] == "canonical":
        names |= {"pert_indptr.i64", "pert_indices.i64", "pert_dose.f64"}
    h = _SHA256()
    for name in sorted(names):
        if (root / name).is_file():
            h.update(name.encode() + b"\0" + (root / name).read_bytes() + b"\0")
    return h.hexdigest()


_VALUES = st.sampled_from([0.0, -0.0, 1.5, 1e300, 5e-324, np.nan])


@st.composite
def _written_bundles(draw):
    """A raw table or canonical dataset in the layouts a writer may be handed."""
    n, g = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    base = np.array(draw(st.lists(_VALUES, min_size=2 * n * g, max_size=2 * n * g)))
    base = base.reshape(n, 2 * g)
    X = draw(st.sampled_from([
        np.ascontiguousarray(base[:, :g]), np.asfortranarray(base[:, :g]), base[:, ::2],
    ]))
    cells = np.array([f"c{i}" for i in range(n)], dtype=object)
    genes = np.array([f"g{j}" for j in range(g)], dtype=object)
    if draw(st.booleans()):
        return write_raw_bundle, RawTable(obs={"name": cells}, var_index=genes, X=X)
    rows = [sorted(draw(st.sets(st.integers(0, 2), max_size=2))) for _ in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows]).tolist()
    indices = [j for r in rows for j in r]
    as_given = draw(st.sampled_from([list, lambda a: np.array(a, dtype=np.int32),
                                     lambda a: np.array(a, dtype=np.int64)]))
    ds = CanonicalDataset(
        cell_type=["T"] * n, batch_id=["b"] * n, donor_id=["d"] * n, pert_type=["drug"] * n,
        is_control=[not r for r in rows], condition_name=cells, X=X,
        pert_indptr=as_given(indptr), pert_indices=as_given(indices),
        pert_values=[float(j) for j in indices], ensembl_id=genes, gene_symbol=genes,
        pert_vocab=("p0", "p1", "p2"),
    )
    return write_canonical_bundle, ds


@given(case=_written_bundles())
@settings(max_examples=80, deadline=None)
@example(case=(write_canonical_bundle, small_canonical({"control": [[1.0, 0.5]]})))
def test_writers_keep_the_digest_of_the_bytes_they_wrote(case):
    write, data = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "b"
        write(data, out)
        kept = json.loads((out / "bundle_digest.json").read_text())["digest"]
        assert kept == _fresh_digest(out)
        assert bundle_digest(out) == kept
        (out / "bundle_digest.json").unlink()
        assert bundle_digest(out) == kept


class TestKeptDigest:
    """``bundle_digest`` returns a writer's recorded digest only while the files are as written."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        """Count the files ``bundle_digest`` reads and hashes."""
        calls = []
        real = hashlib.sha256
        monkeypatch.setattr(bundle.hashlib, "sha256", lambda *a: calls.append(1) or real(*a))
        return calls

    def _dataset(self, x=1.0):
        return small_canonical({"control": [[x, 0.5]], "A": [[2.0, 0.25]]}, doses={"A": 10.0})

    def test_a_bundle_as_written_is_not_read_again(self, tmp_path, hashes):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        hashes.clear()  # the writer hashed once
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c")
        assert hashes == []

    def test_a_same_size_edit_with_the_mtime_restored_is_hashed(self, tmp_path, hashes):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        kept = bundle_digest(tmp_path / "c")
        path = tmp_path / "c" / "X.f64"
        st_before = path.stat()
        with open(path, "r+b") as fh:
            fh.write(b"\x01")
        os.utime(path, ns=(st_before.st_atime_ns, st_before.st_mtime_ns))
        assert path.stat().st_mtime_ns == st_before.st_mtime_ns
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c") != kept
        assert hashes == [1]

    def test_a_file_replaced_by_rename_is_hashed(self, tmp_path, hashes):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        kept = bundle_digest(tmp_path / "c")
        obs = tmp_path / "c" / "obs.tsv"
        (tmp_path / "new").write_text(obs.read_text().replace("T0", "T1"))
        os.replace(tmp_path / "new", obs)
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c") != kept
        assert hashes == [1]

    @pytest.mark.parametrize("kind", ["raw", "canonical"])
    def test_an_unnamed_obsm_file_leaves_the_digest(self, raw_table, tmp_path, hashes, kind):
        out = tmp_path / kind
        if kind == "raw":
            write_raw_bundle(raw_table, out)
        else:
            write_canonical_bundle(self._dataset(), out)
        kept = bundle_digest(out)
        (out / "obsm_old.f64").write_bytes(bytes(8))
        hashes.clear()
        assert bundle_digest(out) == _fresh_digest(out) == kept
        assert hashes == []
        # without the record the same files are hashed
        (out / "bundle_digest.json").unlink()
        assert bundle_digest(out) == kept

    def test_a_stray_obsm_file_at_write_time_is_left_out_of_the_digest(self, tmp_path, hashes):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "obsm_old.f64").write_bytes(bytes(8))
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        write_canonical_bundle(self._dataset(), tmp_path / "clean")
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c")
        assert bundle_digest(tmp_path / "c") == bundle_digest(tmp_path / "clean")
        assert hashes == []

    def test_a_refused_rewrite_keeps_the_record(self, tmp_path, hashes):
        from dataclasses import replace

        write_canonical_bundle(self._dataset(), tmp_path / "c")
        kept = bundle_digest(tmp_path / "c")
        refused = replace(self._dataset(), batch_id=np.array(["b\t", "b"], dtype=object))
        with pytest.raises(BundleFormatError, match="tab/newline"):
            write_canonical_bundle(refused, tmp_path / "c")
        hashes.clear()
        # the refusal came before any file changed, so the record still holds
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c") == kept
        assert hashes == []

    def test_a_rewrite_cut_by_a_matrix_write_error_is_hashed(self, tmp_path, hashes,
                                                             monkeypatch):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        kept = bundle_digest(tmp_path / "c")
        real = bundle._replace_file

        def failing(path, write):
            if path.name == "pert_dose.f64":
                raise OSError("disk full")
            real(path, write)

        monkeypatch.setattr(bundle, "_replace_file", failing)
        with pytest.raises(OSError, match="disk full"):
            write_canonical_bundle(self._dataset(x=3.0), tmp_path / "c")
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c") != kept
        assert hashes == [1]


    def test_a_copied_directory_is_hashed(self, tmp_path, hashes):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        kept = bundle_digest(tmp_path / "c")
        shutil.copytree(tmp_path / "c", tmp_path / "copy")
        assert (tmp_path / "copy" / "bundle_digest.json").is_file()
        hashes.clear()
        assert bundle_digest(tmp_path / "copy") == kept
        assert hashes == [1]

    @pytest.mark.parametrize("name", ["manifest.json", "obs.tsv", "X.f64"])
    def test_a_removed_bundle_file_is_hashed(self, tmp_path, hashes, name):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        kept = bundle_digest(tmp_path / "c")
        (tmp_path / "c" / name).unlink()
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c") != kept
        assert hashes == [1]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: None,
            lambda text: text[: len(text) // 2].encode(),
            lambda text: b"\xff" + text.encode(),
            lambda text: b"[]",
            lambda text: json.dumps({**json.loads(text), "digest": 1}).encode(),
            lambda text: json.dumps({**json.loads(text), "files": {}}).encode(),
        ],
        ids=["deleted", "torn", "not_utf8", "not_an_object", "digest_not_a_string",
             "no_files"],
    )
    def test_a_missing_or_malformed_record_is_hashed(self, tmp_path, hashes, damage):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        kept = bundle_digest(tmp_path / "c")
        record = tmp_path / "c" / "bundle_digest.json"
        damaged = damage(record.read_text())
        record.unlink()
        if damaged is not None:
            record.write_bytes(damaged)
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == kept
        assert hashes == [1]

    def test_a_record_copied_from_another_bundle_is_hashed(self, tmp_path, hashes):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        write_canonical_bundle(self._dataset(x=3.0), tmp_path / "other")
        kept = bundle_digest(tmp_path / "c")
        shutil.copyfile(tmp_path / "other" / "bundle_digest.json",
                        tmp_path / "c" / "bundle_digest.json")
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c") == kept
        assert hashes == [1]

    @pytest.mark.parametrize("offset, trusted", [(-1, False), (0, False), (1, True)])
    def test_a_record_not_newer_than_every_file_is_hashed(self, tmp_path, hashes, monkeypatch,
                                                           offset, trusted):
        # git's racy-entry rule: a file changed in the tick of the record
        # could keep every stat key, so the record must be strictly newer
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        newest = max(key[4] for key in bundle._bundle_stats(tmp_path / "c").values())
        monkeypatch.setattr(bundle.os, "fstat",
                            lambda fd: SimpleNamespace(st_ctime_ns=newest + offset))
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c")
        assert hashes == ([] if trusted else [1])

    def test_a_record_that_cannot_be_written_is_left_out(self, tmp_path, hashes,
                                                         monkeypatch):
        write_canonical_bundle(self._dataset(), tmp_path / "c")
        real = bundle._replace_file

        def failing(path, write):
            if path.name == "bundle_digest.json":
                raise OSError(errno.ENOSPC, "No space left on device")
            real(path, write)

        monkeypatch.setattr(bundle, "_replace_file", failing)
        write_canonical_bundle(self._dataset(x=3.0), tmp_path / "c")
        assert "bundle_digest.json" not in {p.name for p in (tmp_path / "c").iterdir()}
        hashes.clear()
        assert bundle_digest(tmp_path / "c") == _fresh_digest(tmp_path / "c")
        assert hashes == [1]
        assert read_canonical_bundle(tmp_path / "c").X[0, 0] == 3.0
        assert not list((tmp_path / "c").glob(".*.tmp"))

    @pytest.mark.parametrize("with_record", [True, False])
    def test_a_digest_changes_nothing_in_the_directory(self, tmp_path, with_record):
        def snapshot(root):
            return {
                p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns,
                         p.stat().st_ctime_ns)
                for p in root.iterdir()
            }

        write_canonical_bundle(self._dataset(), tmp_path / "c")
        if not with_record:
            (tmp_path / "c" / "bundle_digest.json").unlink()
        before = snapshot(tmp_path / "c")
        bundle_digest(tmp_path / "c")
        assert snapshot(tmp_path / "c") == before


@pytest.mark.parametrize("name", ["obs.tsv", "var.tsv", "X.f64", "pert_dose.f64"])
def test_a_bundle_file_that_cannot_be_opened_is_a_format_error(tmp_path, name):
    write_canonical_bundle(small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]}),
                           tmp_path / "c")
    (tmp_path / "c" / name).unlink()
    (tmp_path / "c" / name).mkdir()
    with pytest.raises(BundleFormatError, match=f"^cannot read bundle file .*{name}: "):
        read_canonical_bundle(tmp_path / "c")


class TestWriterThread:
    """An error on either thread of a write reaches the caller; no thread outlives it."""

    def _dataset(self):
        return small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]})

    def test_a_refused_table(self, tmp_path):
        from dataclasses import replace

        ds = replace(self._dataset(), donor_id=np.array(["d\n", "d"], dtype=object))
        before = threading.active_count()
        with pytest.raises(BundleFormatError, match="tab/newline"):
            write_canonical_bundle(ds, tmp_path / "c")
        assert threading.active_count() == before

    def test_a_hashing_error(self, tmp_path, monkeypatch):
        def broken(*args):
            raise RuntimeError("no digest")

        monkeypatch.setattr(bundle.hashlib, "sha256", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="no digest"):
            write_canonical_bundle(self._dataset(), tmp_path / "c")
        assert threading.active_count() == before
        # the write did not finish, so readers refuse the directory
        assert not (tmp_path / "c" / "manifest.json").exists()

    def test_a_file_write_error(self, tmp_path, monkeypatch):
        def failing(path, write):
            raise OSError("disk full")

        monkeypatch.setattr(bundle, "_replace_file", failing)
        before = threading.active_count()
        with pytest.raises(OSError, match="disk full"):
            write_canonical_bundle(self._dataset(), tmp_path / "c")
        assert threading.active_count() == before
