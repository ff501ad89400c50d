"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces the module attributes through which one layer
calls another (and the public calls the flows make) with timing wrappers,
and ``Tracer.restore`` puts the originals back. Each call becomes a span
``(name, start, end, parent)`` kept in memory; ``layer_metrics`` turns the
spans into per-layer busy time, self time, call counts and ratios.
Untraced runs never construct a tracer, so they call the plain functions.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute path, span name). The inner attributes are the ones a
# layer reaches through another module's namespace, so patching them there
# catches every call the flow makes.
PATCHES = (
    ("pertpipe.bundle", "read_canonical_bundle", "bundle.read_canonical"),
    ("pertpipe.bundle", "read_raw_bundle", "bundle.read_raw"),
    ("pertpipe.bundle", "write_canonical_bundle", "bundle.write_canonical"),
    ("pertpipe.bundle", "bundle_digest", "bundle.digest"),
    ("pertpipe.data", "split_unseen_perturbation", "data.split"),
    ("pertpipe.evaluators", "pseudo_bulk", "data.pseudo_bulk"),
    ("pertpipe.evaluators", "delta_pcc", "metrics.delta_pcc"),
    ("pertpipe.evaluators", "SurrogateEvaluator", "evaluators.init"),
    ("pertpipe.unifier", "normalize_log1p", "data.normalize_log1p"),
    ("pertpipe.unifier", "validate_canonical", "data.validate_canonical"),
    ("pertpipe.unifier", "apply_mapping", "unifier.apply_mapping"),
    ("pertpipe.unifier", "merge_datasets", "unifier.merge"),
    ("pertpipe.dsl", "evaluate", "dsl.evaluate"),
    ("pertpipe.search", "run_search", "search.run_search"),
    ("pertpipe.search", "materialize", "actions.materialize"),
    ("pertpipe.search", "legal_actions", "actions.legal_actions"),
    ("pertpipe.knowledge", "KnowledgeBase.load", "knowledge.load"),
    ("pertpipe.knowledge", "KnowledgeBase.record", "knowledge.record"),
    ("pertpipe.knowledge", "retrieve", "knowledge.retrieve"),
    ("perfbench.flows", "induce_spec", "unifier.induce"),
    ("perfbench.flows", "write_search_artifacts", "cli.artifacts"),
)

EVALUATE = "evaluators.evaluate"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.candidates: set[tuple[str, int]] = set()

    def timed(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr_path, name in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.timed(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap_evaluator(self, evaluator):
        """Timing proxy for the evaluator object handed to ``run_search``."""
        timed_evaluate = self.timed(EVALUATE, evaluator.evaluate)
        candidates = self.candidates

        class TimedEvaluator:
            def evaluate(self, candidate, seed):
                candidates.add((candidate.key(), seed))
                return timed_evaluate(candidate, seed)

        return TimedEvaluator()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(spans, run_s: float) -> dict[str, float]:
    """Busy time, self time and call count per span name, plus derived layer figures."""
    n = len(spans)
    child_time = [0.0] * n
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    covered = 0.0
    for name, start, end, parent in spans:
        d = end - start
        busy[name] = busy.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(d)
        if parent < 0:
            covered += d
        else:
            child_time[parent] += d
    self_time: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]

    def b(name):
        return busy.get(name, 0.0)

    eval_ms = np.array(durations.get(EVALUATE, [0.0])) * 1e3
    return {
        "bundle.read_canonical_s": b("bundle.read_canonical"),
        "bundle.read_raw_s": b("bundle.read_raw"),
        "bundle.write_canonical_s": b("bundle.write_canonical"),
        "bundle.digest_s": b("bundle.digest"),
        "data.split_s": b("data.split"),
        "data.pseudo_bulk_s": b("data.pseudo_bulk"),
        "data.pseudo_bulk_calls": calls.get("data.pseudo_bulk", 0),
        "data.normalize_log1p_s": b("data.normalize_log1p"),
        "data.validate_canonical_s": b("data.validate_canonical"),
        "data.validate_canonical_calls": calls.get("data.validate_canonical", 0),
        "dsl.evaluate_s": b("dsl.evaluate"),
        "dsl.evaluate_calls": calls.get("dsl.evaluate", 0),
        "unifier.induce_s": b("unifier.induce"),
        "unifier.apply_mapping_s": b("unifier.apply_mapping"),
        "unifier.apply_mapping_self_s": self_time.get("unifier.apply_mapping", 0.0),
        "unifier.merge_s": b("unifier.merge"),
        "unifier.merge_self_s": self_time.get("unifier.merge", 0.0),
        "metrics.delta_pcc_s": b("metrics.delta_pcc"),
        "metrics.delta_pcc_calls": calls.get("metrics.delta_pcc", 0),
        "evaluators.init_s": b("evaluators.init"),
        "evaluators.evaluate_s": b(EVALUATE),
        "evaluators.evaluate_ms_p50": float(np.percentile(eval_ms, 50)),
        "evaluators.evaluate_ms_p80": float(np.percentile(eval_ms, 80)),
        "evaluators.fit_self_s": self_time.get(EVALUATE, 0.0),
        "evaluators.calls": calls.get(EVALUATE, 0),
        "actions.materialize_s": b("actions.materialize"),
        "actions.materialize_calls": calls.get("actions.materialize", 0),
        "actions.legal_actions_s": b("actions.legal_actions"),
        "actions.legal_actions_calls": calls.get("actions.legal_actions", 0),
        "search.run_search_s": b("search.run_search"),
        "search.engine_self_s": b("search.run_search") - b(EVALUATE),
        "knowledge.load_s": b("knowledge.load"),
        "knowledge.retrieve_s": b("knowledge.retrieve"),
        "knowledge.record_s": b("knowledge.record"),
        "cli.artifacts_s": b("cli.artifacts"),
        "trace.spans": n,
        "trace.uncovered_s": run_s - covered,
    }
