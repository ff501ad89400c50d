from __future__ import annotations

import hashlib
import json
import mmap
from pathlib import Path

import numpy as np
import pytest

from helpers import small_canonical
from pertpipe import bundle
from pertpipe.bundle import (
    bundle_digest,
    read_canonical_bundle,
    read_raw_bundle,
    write_canonical_bundle,
    write_raw_bundle,
)
from pertpipe.data import RawTable
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
        obsm={"emb": np.array([[0.1, 0.2, 0.3]] * 3)},
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
        assert np.array_equal(back.obsm["emb"], raw_table.obsm["emb"])

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
            "X.f64", "manifest.json", "obs.tsv", "pert_dose.f64", "pert_indices.i64",
            "pert_indptr.i64", "var.tsv",
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
        real = bundle._write_matrix

        def failing(path, a, dtype):
            if path.name == "pert_dose.f64":
                raise OSError("disk full")
            real(path, a, dtype)

        monkeypatch.setattr(bundle, "_write_matrix", failing)
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
        assert order[-1] == "manifest.json"
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
            "raw/obsm_emb.f64": (raw.obsm["emb"], "<f8"),
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
