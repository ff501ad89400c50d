"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` lists the same names, units and directions
(``tests/test_catalog.py`` keeps the two equal). Each per-layer metric
names the end-to-end metric and workload it is expected to move, written
down before any optimisation is measured against it.
"""

from __future__ import annotations

from dataclasses import dataclass

L, MERGE = "search-surrogate-L", "harmonize-merge"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric(s) and workload it should move


END_TO_END = (
    EndToEnd("run_s", "s", "lower", 0.25,
             "wall time of one run, process start to last artifact written"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "part of run_s before the first unit of work: import, input reads, "
             "building the objects the work runs on"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.2, "ru_maxrss of the run process"),
    EndToEnd("work_per_s", "1/s", "higher", 0.25,
             "search: simulations per second inside run_search; "
             "harmonize: input cells per second of run_s - setup_s"),
)

PER_LAYER = (
    Layer("bundle.read_canonical_s", "s", "lower", f"setup_s, peak_rss_mb on {L}"),
    Layer("bundle.digest_s", "s", "lower", f"setup_s on {L}; run_s on {MERGE}"),
    Layer("bundle.read_mb", "MiB", "lower", f"setup_s, peak_rss_mb on {L}"),
    Layer("bundle.read_raw_s", "s", "lower", f"setup_s on {MERGE}"),
    Layer("bundle.write_canonical_s", "s", "lower", f"run_s on {MERGE}"),
    Layer("bundle.write_mb", "MiB", "lower", f"run_s on {MERGE}"),
    Layer("data.split_s", "s", "lower", f"setup_s on {L}"),
    Layer("data.pseudo_bulk_s", "s", "lower", f"work_per_s on {L}"),
    Layer("data.pseudo_bulk_calls", "count", "lower", f"work_per_s on {L}"),
    Layer("data.normalize_log1p_s", "s", "lower", f"work_per_s on {MERGE}"),
    Layer("data.validate_canonical_s", "s", "lower", f"work_per_s on {MERGE}"),
    Layer("data.validate_canonical_calls", "count", "lower", f"work_per_s on {MERGE}"),
    Layer("dsl.evaluate_s", "s", "lower", f"work_per_s on {MERGE}"),
    Layer("dsl.evaluate_calls", "count", "lower", f"work_per_s on {MERGE}"),
    Layer("unifier.induce_s", "s", "lower", f"setup_s on {MERGE}"),
    Layer("unifier.apply_mapping_s", "s", "lower", f"work_per_s on {MERGE}"),
    Layer("unifier.apply_mapping_self_s", "s", "lower", f"work_per_s on {MERGE}"),
    Layer("unifier.merge_s", "s", "lower", f"work_per_s on {MERGE}"),
    Layer("unifier.merge_self_s", "s", "lower", f"work_per_s on {MERGE}"),
    Layer("unifier.vocab_size", "count", "higher", f"none; pins the merged vocabulary on {MERGE}"),
    Layer("unifier.merge_warnings", "count", "lower", f"none; pins the merge outcome on {MERGE}"),
    Layer("metrics.delta_pcc_s", "s", "lower", f"work_per_s on {L}"),
    Layer("metrics.delta_pcc_calls", "count", "lower", f"work_per_s on {L}"),
    Layer("evaluators.init_s", "s", "lower",
          f"setup_s on {L}; rises when candidate-invariant work leaves evaluate"),
    Layer("evaluators.evaluate_s", "s", "lower", f"work_per_s, run_s on {L}"),
    Layer("evaluators.evaluate_ms_p50", "ms", "lower", f"work_per_s, run_s on {L}"),
    Layer("evaluators.evaluate_ms_p80", "ms", "lower", f"work_per_s, run_s on {L}"),
    Layer("evaluators.fit_self_s", "s", "lower", f"work_per_s, run_s on {L}"),
    Layer("evaluators.calls", "count", "lower", f"work_per_s on {L}"),
    Layer("evaluators.distinct_candidates", "count", "higher", f"none; pins search coverage on {L}"),
    Layer("evaluators.useful_ratio", "ratio", "higher", f"work_per_s on {L}"),
    Layer("actions.materialize_s", "s", "lower", f"work_per_s on {L} (under 1%)"),
    Layer("actions.materialize_calls", "count", "lower", f"work_per_s on {L} (under 1%)"),
    Layer("actions.legal_actions_s", "s", "lower", f"work_per_s on {L} (under 1%)"),
    Layer("actions.legal_actions_calls", "count", "lower", f"work_per_s on {L} (under 1%)"),
    Layer("search.run_search_s", "s", "lower", f"work_per_s, run_s on {L}"),
    Layer("search.engine_self_s", "s", "lower", f"work_per_s on {L} (under 1%)"),
    Layer("search.sims", "count", "higher", "none; pins the simulation count"),
    Layer("search.expansions", "count", "higher", "none; pins the search"),
    Layer("search.tree_nodes", "count", "higher", "none; pins the search"),
    Layer("search.warm_starts", "count", "higher", f"none; pins the retrieval decision on {L}"),
    Layer("search.best_m_val", "score", "higher", "none; pins search quality"),
    Layer("knowledge.load_s", "s", "lower", f"setup_s on {L}"),
    Layer("knowledge.retrieve_s", "s", "lower", f"setup_s on {L}"),
    Layer("knowledge.entries_loaded", "count", "higher", f"none; pins the knowledge base on {L}"),
    Layer("knowledge.record_s", "s", "lower", f"run_s on {L}"),
    Layer("cli.artifacts_s", "s", "lower", f"run_s on {L}"),
    Layer("cli.artifacts_mb", "MiB", "lower", f"run_s on {L}"),
    Layer("trace.uncovered_s", "s", "lower", "none; run_s no span covers (import, glue)"),
    Layer("trace.overhead_s", "s", "lower", "none; traced run_s minus untraced run_s"),
)
