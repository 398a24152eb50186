"""Tests for the declustered per-disk file layout."""

import json

import numpy as np
import pytest

from repro.gridfile import export_declustered


class TestExportDeclustered:
    def test_layout(self, small_gridfile, tmp_path):
        n_disks = 4
        assignment = np.arange(small_gridfile.n_buckets) % n_disks
        paths = export_declustered(small_gridfile, assignment, tmp_path / "out")
        files = [p for p in paths if p.suffix == ".npz"]
        assert len(files) == n_disks
        catalog = json.loads((tmp_path / "out" / "catalog.json").read_text())
        assert catalog["n_disks"] == n_disks
        assert catalog["n_records"] == small_gridfile.n_records

    def test_records_partitioned(self, small_gridfile, tmp_path):
        assignment = np.arange(small_gridfile.n_buckets) % 3
        paths = export_declustered(small_gridfile, assignment, tmp_path / "out")
        total = 0
        for p in paths:
            if p.suffix != ".npz":
                continue
            with np.load(p) as z:
                total += z["records"].shape[0]
                assert (assignment[z["bucket_ids"]] == int(p.stem.split("_")[1])).all()
        assert total == small_gridfile.n_records

    def test_rejects_bad_assignment(self, small_gridfile, tmp_path):
        with pytest.raises(ValueError):
            export_declustered(small_gridfile, np.zeros(3), tmp_path)
