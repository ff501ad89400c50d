"""Seeded input builders for the benchmark workloads.

Every input is drawn from the workload seed, so one seed always gives the
same bytes, and nothing generated is committed. ``run.py`` builds all
inputs before the first timed run; the parity tests call the same builders
with tiny sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pertpipe import bundle as bundle_io
from pertpipe.actions import legal_actions
from pertpipe.data import RawTable
from pertpipe.evaluators import SyntheticConfig, generate_synthetic
from pertpipe.knowledge import KnowledgeBase, make_entry

NOISE_SIGMA = 0.4
EFFECT_SPARSITY = 0.3


@dataclass(frozen=True)
class SyntheticSize:
    n_genes: int
    n_perts: int
    cells_per_condition: int


# (n_perts + 1) * cells_per_condition = 4020 cells x 5000 genes
SIZE_L = SyntheticSize(n_genes=5000, n_perts=200, cells_per_condition=20)


@dataclass(frozen=True)
class DrugScreenSize:
    n_cells: int = 40_000
    n_genes: int = 200
    n_compounds: int = 280
    n_combos: int = 20
    control_frac: float = 0.1
    n_lines: int = 3
    n_plates: int = 24


@dataclass(frozen=True)
class CrisprScreenSize:
    n_cells: int = 20_000
    n_genes: int = 300
    n_shared_genes: int = 100  # the last n_shared_genes of the drug screen's genes
    n_guides: int = 150
    control_frac: float = 0.1


DOSES_UM = ("0.01", "0.1", "1", "10")

# Nested-form mapping the mock LLM "induces" for the drug screen: logic
# entries for the control flag, a concatenated condition name, and a
# micromolar-to-nanomolar dose conversion.
DRUG_MAPPING = {
    "uscp_mapping": {
        "obs": {
            "cell_type": "cell_line",
            "batch_id": "plate",
            "donor_id": "cell_line",
            "pert_type": "drug",
            "is_control_logic": "adata.obs['compound'] == 'DMSO'",
            "condition_name_logic": "adata.obs['compound'] + '_' + adata.obs['dose_um']",
        },
        "obsm": {
            "pert_mask_source": "compound",
            "pert_dose_source": {
                "type": "logic",
                "expression": "adata.obs['dose_um'].astype(float) * 1000",
                "description": "Convert micromolar to nanomolar",
            },
        },
        "var": {"index_type": "Ensembl ID", "gene_symbol_col": "symbol"},
        "numerical": {
            "is_already_log1p": False,
            "normalization_required": True,
            "target_sum": 10000.0,
        },
    },
    "data_summary": "Compound screen over three cell lines with micromolar doses.",
}

# Flat-form mapping file for the CRISPR screen; condition names default to
# the guide names and doses to zero.
CRISPR_MAPPING = {
    "perturbation_type": "crispr",
    "perturbation_name": {"type": "direct", "source_key": "guide"},
    "cell_line": {"type": "direct", "source_key": "cell_line"},
    "batch_id": {"type": "direct", "source_key": "lane"},
    "control_status": {"type": "logic", "expression": "df['guide'] == 'non-targeting'"},
    "var": {"index_type": "ensembl", "gene_symbol_col": "symbol"},
}


def mock_llm_reply() -> str:
    """The fixed reply the mock transport returns for the drug screen."""
    body = json.dumps(DRUG_MAPPING, indent=2, sort_keys=True)
    return f"Here is the mapping for this dataset.\n\n```json\n{body}\n```\n"


def build_synthetic_bundle(out_dir: Path, size: SyntheticSize, seed: int) -> None:
    ds, _ = generate_synthetic(
        SyntheticConfig(
            n_genes=size.n_genes,
            n_perts=size.n_perts,
            cells_per_condition=size.cells_per_condition,
            noise_sigma=NOISE_SIGMA,
            effect_sparsity=EFFECT_SPARSITY,
            seed=seed,
        )
    )
    bundle_io.write_canonical_bundle(ds, out_dir)


def _gene_ids(start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array([f"ENSG{j:011d}" for j in range(start, start + n)], dtype=object)
    symbols = np.array([f"GENE{j}" for j in range(start, start + n)], dtype=object)
    return ids, symbols


def _poisson_counts(rng: np.random.Generator, n_cells: int, n_genes: int) -> np.ndarray:
    rates = rng.gamma(2.0, 2.0, size=n_genes)
    depth = rng.uniform(0.5, 1.5, size=n_cells)
    return rng.poisson(depth[:, None] * rates[None, :]).astype(np.float64)


def build_drug_screen(out_dir: Path, seed: int, size: DrugScreenSize = DrugScreenSize()) -> None:
    """Raw compound screen: Poisson counts, DMSO controls, single and combo labels."""
    rng = np.random.default_rng([seed, 1])
    compounds = [f"CPD_{i:04d}" for i in range(size.n_compounds)]
    combos = set()
    while len(combos) < size.n_combos:
        a, b = sorted(rng.choice(size.n_compounds, size=2, replace=False).tolist())
        combos.add(f"{compounds[a]}+{compounds[b]}")
    labels = np.array(compounds + sorted(combos), dtype=object)

    n = size.n_cells
    is_control = rng.random(n) < size.control_frac
    compound = labels[rng.integers(0, labels.size, size=n)]
    compound[is_control] = "DMSO"
    dose = np.array(DOSES_UM, dtype=object)[rng.integers(0, len(DOSES_UM), size=n)]
    dose[is_control] = "0"
    lines = np.array([f"LINE_{chr(65 + i)}" for i in range(size.n_lines)], dtype=object)
    plates = np.array([f"P{i + 1:02d}" for i in range(size.n_plates)], dtype=object)
    ids, symbols = _gene_ids(0, size.n_genes)
    table = RawTable(
        obs={
            "compound": compound,
            "dose_um": dose,
            "cell_line": lines[rng.integers(0, lines.size, size=n)],
            "plate": plates[rng.integers(0, plates.size, size=n)],
        },
        var_index=ids,
        var_columns={"symbol": symbols},
        X=_poisson_counts(rng, n, size.n_genes),
    )
    bundle_io.write_raw_bundle(table, out_dir)


def build_crispr_screen(
    out_dir: Path,
    seed: int,
    size: CrisprScreenSize = CrisprScreenSize(),
    drug_genes: int = DrugScreenSize.n_genes,
) -> None:
    """Raw CRISPR screen whose first genes overlap the drug screen's last ones."""
    rng = np.random.default_rng([seed, 2])
    guides = np.array([f"sg_G{i:04d}" for i in range(size.n_guides)], dtype=object)
    n = size.n_cells
    guide = guides[rng.integers(0, guides.size, size=n)]
    guide[rng.random(n) < size.control_frac] = "non-targeting"
    lanes = np.array(["L1", "L2", "L3", "L4"], dtype=object)
    ids, symbols = _gene_ids(drug_genes - size.n_shared_genes, size.n_genes)
    table = RawTable(
        obs={
            "guide": guide,
            "cell_line": np.array(["LINE_K"] * n, dtype=object),
            "lane": lanes[rng.integers(0, lanes.size, size=n)],
        },
        var_index=ids,
        var_columns={"symbol": symbols},
        X=_poisson_counts(rng, n, size.n_genes),
    )
    bundle_io.write_raw_bundle(table, out_dir)


_KB_EVALUATORS = ("surrogate", "landscape:funnel", "landscape:ablation")
_KB_SPLITS = ("unseen_perturbation", "unseen_cell")


def _random_path(rng: np.random.Generator) -> tuple[str, ...]:
    path: tuple[str, ...] = ()
    for _ in range(int(rng.integers(1, 5))):
        legal = legal_actions(path)
        if not legal:
            break
        path += (legal[int(rng.integers(0, len(legal)))],)
    return path


def build_knowledge_base(path: Path, seed: int, n_entries: int = 2000) -> None:
    """Entries from tasks of other sizes than any workload's, under several evaluators.

    Profiles follow the text layout ``pertpipe search`` records, so
    retrieval scores them against real queries. ``created_at`` values are
    fixed, so retrieval order does not depend on the clock.
    """
    rng = np.random.default_rng([seed, 3])
    kb = KnowledgeBase(path)
    for i in range(n_entries):
        n_perts = int(rng.integers(10, 400))
        cells = (n_perts + 1) * int(rng.integers(15, 60))
        genes = int(rng.integers(100, 8000))
        vocab = " ".join(f"PERT_{j:03d}" for j in range(min(n_perts, 8)))
        evaluator = _KB_EVALUATORS[int(rng.integers(0, len(_KB_EVALUATORS)))]
        split = _KB_SPLITS[int(rng.integers(0, len(_KB_SPLITS)))]
        action_path = _random_path(rng)
        profile = (
            f"cells {cells} genes {genes} perturbations {n_perts} vocab {vocab} "
            f"split {split} evaluator {evaluator} | solution: {'/'.join(action_path)}"
        )
        kb.record(
            make_entry(
                profile_text=profile,
                action_path=action_path,
                reward=float(rng.uniform(0.0, 1.0)),
                created_at=1.6e9 + 60.0 * i,
            )
        )
