from __future__ import annotations

import hashlib
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

    def test_mask_size_mismatch(self, tmp_path):
        ds = small_canonical({"control": [[1.0, 0.5]], "A": [[2.0, 0.25]]})
        write_canonical_bundle(ds, tmp_path / "c")
        (tmp_path / "c" / "pert_mask.u8").write_bytes(b"\x01")
        with pytest.raises(BundleFormatError, match="expected 2"):
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
