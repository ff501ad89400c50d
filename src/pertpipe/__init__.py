"""Harmonize heterogeneous single-cell perturbation datasets and search
modeling pipelines over a hierarchical action space."""

__version__ = "0.1.0"

from .data import (
    CanonicalDataset,
    PseudoBulkProfile,
    RawTable,
    SplitAssignment,
    normalize_log1p,
    pseudo_bulk,
    split_unseen_cell,
    split_unseen_perturbation,
    validate_canonical,
)
from .metrics import MetricReport, cos_logfc, delta_pcc, evaluate_predictions, rmse
from .search import SearchConfig, SearchResult, run_search, time_decay
from .unifier import MappingSpec, apply_mapping, induce_mapping, merge_datasets, preview_schema

__all__ = [
    "CanonicalDataset",
    "MappingSpec",
    "MetricReport",
    "PseudoBulkProfile",
    "RawTable",
    "SearchConfig",
    "SearchResult",
    "SplitAssignment",
    "apply_mapping",
    "cos_logfc",
    "delta_pcc",
    "evaluate_predictions",
    "induce_mapping",
    "merge_datasets",
    "normalize_log1p",
    "preview_schema",
    "pseudo_bulk",
    "rmse",
    "run_search",
    "split_unseen_cell",
    "split_unseen_perturbation",
    "time_decay",
    "validate_canonical",
]
