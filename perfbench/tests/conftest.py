import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import inputs  # noqa: E402

TINY_BUNDLE = inputs.SyntheticSize(n_genes=30, n_perts=6, cells_per_condition=8)
TINY_DRUG = inputs.DrugScreenSize(n_cells=400, n_genes=20, n_compounds=12, n_combos=3, n_plates=4)
TINY_CRISPR = inputs.CrisprScreenSize(n_cells=200, n_genes=30, n_shared_genes=10, n_guides=8)
KB_ENTRIES = 40
SEED = 5


@pytest.fixture(scope="session")
def tiny(tmp_path_factory):
    """Tiny inputs in the layout ``workloads.build_inputs`` writes."""
    d = tmp_path_factory.mktemp("inputs")
    inputs.build_synthetic_bundle(d / "bundle", TINY_BUNDLE, SEED)
    inputs.build_knowledge_base(d / "kb.jsonl", SEED, KB_ENTRIES)
    inputs.build_drug_screen(d / "raw_drug", SEED, TINY_DRUG)
    inputs.build_crispr_screen(d / "raw_crispr", SEED, TINY_CRISPR, drug_genes=TINY_DRUG.n_genes)
    (d / "crispr_mapping.json").write_text(json.dumps(inputs.CRISPR_MAPPING))
    (d / "mock_reply.txt").write_text(inputs.mock_llm_reply())
    return d
