"""Adaptive MCTS over the hierarchical pipeline space.

Each iteration runs selection (optimistic UCT over a mix of peak and mean
value), expansion of one untried action, simulation of the materialized
candidate through the bound evaluator, and backpropagation of the combined
performance/time reward along the path. Retrieval results can inject a
warm-start path that is explored before anything else; without one the
tree starts blank and both paradigms are expanded first.

Determinism: a single seeded generator drives every shuffle, node creation
order is deterministic, and evaluators are pure, so two runs with the same
configuration produce byte-identical trajectory logs.

Transpositions: many action paths materialize to the same candidate (a
paradigm alone and the paradigm plus its default backbone both fill in to
the same pipeline). The engine keeps a per-run table from each materialized
candidate to its first outcome, so each distinct candidate is evaluated at
most once per run; a hit reuses that outcome, its ``t_exec`` included, and
only ``t_ratio`` is recomputed against the current baseline.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .actions import (
    Candidate,
    DEBUG_ACTION,
    legal_actions,
    materialize,
    validate_action_path,
)
from .errors import ParameterError, SearchConfig
from .knowledge import RetrievalResult


@dataclass(frozen=True)
class EvalOutcome:
    """Result of simulating one candidate."""

    m_val: float | None  # validation score in [0, 1]; None when failed
    t_exec: float
    error: str | None = None
    t_ratio: float | None = None  # filled by the engine once T_root is known

    @property
    def ok(self) -> bool:
        return self.error is None


class Node:
    """One tree node; level 0 is the root, debug children keep their parent's level."""

    __slots__ = (
        "action", "level", "path", "n_visits", "q_sum", "q_max",
        "status", "children", "untried",
    )

    def __init__(self, action: str | None, level: int, path: tuple[str, ...]):
        self.action = action
        self.level = level
        self.path = path
        self.n_visits = 0
        self.q_sum = 0.0
        self.q_max = 0.0
        self.status = "fresh"
        self.children: list[Node] = []
        self.untried: list[str] | None = None  # filled lazily, seeded-shuffled

    @property
    def q_mean(self) -> float:
        return self.q_sum / self.n_visits if self.n_visits else 0.0

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "level": self.level,
            "N": self.n_visits,
            "Q_sum": self.q_sum,
            "Q_max": self.q_max,
            "status": self.status,
            "children": [c.to_dict() for c in self.children],
        }


def q_mix(node: Node, alpha_qmix: float) -> float:
    """Convex mix of a node's best and mean backpropagated rewards."""
    if node.n_visits < 1:
        raise ParameterError("q_mix is undefined for an unvisited node")
    return alpha_qmix * node.q_max + (1.0 - alpha_qmix) * node.q_mean


def uct_score(parent: Node, child: Node, config: SearchConfig) -> float:
    """Selection score: mixed value plus the exploration bonus."""
    if parent.n_visits < 1:
        raise ParameterError("uct_score requires a visited parent")
    value = q_mix(child, config.alpha_qmix) if child.n_visits >= 1 else 0.0
    exploration = config.C * math.sqrt(
        math.log(parent.n_visits) / (child.n_visits + config.uct_epsilon)
    )
    return value + exploration


def time_decay(t: float) -> float:
    """Piecewise-linear efficiency factor over the normalized time ratio.

    Full credit up to 0.8x the baseline time, then three linear segments
    dropping through 0.8 at 1.0x and 0.5 at 1.5x, reaching zero at 3x.
    """
    if t < 0:
        raise ParameterError(f"time ratio must be nonnegative, got {t}")
    if t <= 0.8:
        return 1.0
    if t <= 1.0:
        return 1.0 - 0.2 * (t - 0.8) / 0.2
    if t <= 1.5:
        return 0.8 - 0.3 * (t - 1.0) / 0.5
    return max(0.0, 0.5 - 0.5 * (t - 1.5) / 1.5)


def reward(outcome: EvalOutcome, config: SearchConfig) -> float:
    """Combined reward: weighted validation score plus weighted time credit.

    A failed or undefined validation score contributes zero to the
    performance term.
    """
    m = outcome.m_val if (outcome.ok and outcome.m_val is not None) else 0.0
    t_ratio = outcome.t_ratio if outcome.t_ratio is not None else 1.0
    return config.w_p * m + config.w_e * time_decay(t_ratio)


def backpropagate(path: list[Node], r: float) -> None:
    """Standard MCTS update along a root-to-leaf path."""
    for node in path:
        node.n_visits += 1
        node.q_sum += r
        node.q_max = max(node.q_max, r)


@dataclass
class SearchResult:
    best_candidate: Candidate | None
    best_reward: float
    best_m_val: float | None
    best_path: tuple[str, ...]
    trajectory: list[dict] = field(repr=False)
    root: Node = field(repr=False)
    n_iterations: int = 0
    n_expansions: int = 0

    @property
    def found_valid(self) -> bool:
        return self.best_candidate is not None

    def trajectory_jsonl(self) -> str:
        return "\n".join(json.dumps(rec, sort_keys=True) for rec in self.trajectory) + "\n"

    def tree_json(self) -> str:
        return json.dumps(self.root.to_dict(), sort_keys=True, indent=2)


class _Engine:
    def __init__(self, config: SearchConfig, evaluator):
        self.config = config
        self.evaluator = evaluator
        self.rng = np.random.default_rng(config.seed)
        self.root = Node(None, 0, ())
        self.t_root: float | None = None
        self.n_expansions = 0
        self.outcomes: dict[Candidate, EvalOutcome] = {}  # transposition table

    def _untried(self, node: Node) -> list[str]:
        if node.untried is None:
            legal = list(legal_actions(node.path, status=node.status, mode=self.config.mode))
            order = self.rng.permutation(len(legal))
            node.untried = [legal[i] for i in order]
        return node.untried

    def _child_level(self, parent: Node, action: str) -> int:
        return parent.level if action == DEBUG_ACTION else parent.level + 1

    def inject_path(self, actions: tuple[str, ...]) -> None:
        validate_action_path(actions, mode=self.config.mode)
        node = self.root
        for action in actions:
            untried = self._untried(node)
            if action in untried:
                untried.remove(action)
            child = Node(action, self._child_level(node, action), node.path + (action,))
            node.children.insert(0, child)
            node = child

    def select(self) -> tuple[list[Node], bool]:
        """Walk to the node to simulate; returns (path, whether a new node was expanded)."""
        node = self.root
        path = [node]
        while True:
            fresh = [c for c in node.children if c.n_visits == 0]
            if fresh:
                node = fresh[0]
                path.append(node)
                if any(c.n_visits == 0 for c in node.children):
                    continue
                return path, False
            untried = self._untried(node)
            if untried:
                action = untried.pop(0)
                child = Node(action, self._child_level(node, action), node.path + (action,))
                node.children.append(child)
                path.append(child)
                return path, True
            if node.children:
                best = node.children[0]
                best_score = uct_score(node, best, self.config)
                for child in node.children[1:]:
                    score = uct_score(node, child, self.config)
                    if score > best_score:
                        best, best_score = child, score
                node = best
                path.append(node)
                continue
            return path, False  # terminal leaf revisit

    def simulate(self, node: Node) -> EvalOutcome:
        candidate = materialize(node.path)
        outcome = self.outcomes.get(candidate)
        if outcome is None:
            outcome = self.evaluator.evaluate(candidate, self.config.seed)
            self.outcomes[candidate] = outcome
        t_ratio = outcome.t_exec / self.t_root if self.t_root else 1.0
        if outcome.ok and self.t_root is None:
            self.t_root = outcome.t_exec
        return replace(outcome, t_ratio=t_ratio)

    def mark_status(self, node: Node, outcome: EvalOutcome) -> None:
        if outcome.ok:
            if node.status != "bug":
                node.status = "valid"
        else:
            if node.status != "bug":
                node.status = "bug"
                # repair takes priority over further expansion below this node
                untried = self._untried(node)
                if DEBUG_ACTION in untried:
                    untried.remove(DEBUG_ACTION)
                if not any(c.action == DEBUG_ACTION for c in node.children):
                    untried.insert(0, DEBUG_ACTION)


def run_search(
    config: SearchConfig,
    evaluator,
    retrieval: RetrievalResult | None = None,
) -> SearchResult:
    """Run up to n_sim select/expand/simulate/backpropagate iterations.

    A warm-start retrieval injects its stored path before iteration 1, so
    the first simulated candidate lies under it. The baseline time for the
    efficiency term is the first successful simulation's execution time.
    Returns the best valid candidate by reward plus the full per-iteration
    trajectory and the tree.
    """
    engine = _Engine(config, evaluator)
    if retrieval is not None and retrieval.mode == "warm_start" and retrieval.epsilon0:
        engine.inject_path(tuple(retrieval.epsilon0))

    trajectory: list[dict] = []
    best: tuple[float, Node, EvalOutcome] | None = None
    started = time.monotonic()

    iteration = 0
    for iteration in range(1, config.n_sim + 1):
        if time.monotonic() - started > config.wall_clock_budget:
            iteration -= 1
            break
        path, expanded = engine.select()
        if expanded:
            engine.n_expansions += 1
        node = path[-1]
        outcome = engine.simulate(node)
        r = reward(outcome, config)
        backpropagate(path, r)
        engine.mark_status(node, outcome)
        trajectory.append(
            {
                "iter": iteration,
                "path": list(node.path),
                "action": node.action,
                "m_val": outcome.m_val if outcome.ok else None,
                "failed": outcome.error,
                "t_exec": outcome.t_exec,
                "t_ratio": outcome.t_ratio,
                "reward": r,
                "status": node.status,
            }
        )
        if outcome.ok and (best is None or r > best[0]):
            best = (r, node, outcome)

    best_reward, best_node, best_outcome = best or (0.0, None, None)
    return SearchResult(
        best_candidate=materialize(best_node.path) if best_node else None,
        best_reward=best_reward,
        best_m_val=best_outcome.m_val if best_outcome else None,
        best_path=best_node.path if best_node else (),
        trajectory=trajectory,
        root=engine.root,
        n_iterations=iteration,
        n_expansions=engine.n_expansions,
    )
