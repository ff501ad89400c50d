from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pertpipe.data import RawTable

# pertpipe starts threads only through executors that each call joins before
# it returns, and names them with these prefixes
_WORKER_PREFIXES = ("row-half_", "bundle-digest_")


@pytest.fixture(autouse=True)
def no_worker_thread_left():
    """Fail a test that leaves one of pertpipe's worker threads alive."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith(_WORKER_PREFIXES)]
    if left:
        pytest.fail(f"worker threads left alive: {left}")


@pytest.fixture
def drug_raw_table() -> RawTable:
    """Raw drug-response table: DMSO vehicle controls plus two compounds at 10/5 uM."""
    drugs = ["DMSO", "drugA", "drugB", "drugA", "DMSO", "drugB",
             "drugA", "DMSO", "drugB", "drugA", "drugB", "DMSO"]
    conc = ["0", "10", "5", "10", "0", "5", "10", "0", "5", "10", "5", "0"]
    n = len(drugs)
    rng = np.random.default_rng(42)
    return RawTable(
        obs={
            "drug_id": np.array(drugs, dtype=object),
            "conc_um": np.array(conc, dtype=object),
            "cell_type_annotation": np.array(["A549"] * n, dtype=object),
        },
        var_index=np.array([f"ENSG{i:011d}" for i in range(6)], dtype=object),
        var_columns={"symbol": np.array([f"G{i}" for i in range(6)], dtype=object)},
        X=rng.uniform(0.0, 80.0, size=(n, 6)),
    )


@pytest.fixture
def flat_form_mapping() -> dict:
    """Flat per-key mapping: drug vocabulary from drug_id, dose uM -> nM."""
    return {
        "perturbation_type": "drug",
        "perturbation_name": {"type": "direct", "source_key": "drug_id"},
        "dose_value": {
            "type": "logic",
            "expression": "df['conc_um'].astype(float) * 1000",
            "description": "Convert micromolar to nanomolar",
        },
        "cell_line": {"type": "direct", "source_key": "cell_type_annotation"},
        "control_status": {"type": "logic", "expression": "df['drug_id'] == 'DMSO'"},
    }
