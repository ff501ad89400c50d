from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import replace

import pytest

from helpers import builtin_landscape, exhaustive_best, reference_surrogate_evaluate
from pertpipe.actions import (
    Candidate,
    DEBUG_ACTION,
    HYPERPARAM_GRID,
    enumerate_candidates,
    hierarchical_path,
    legal_actions,
    materialize,
    validate_action_path,
)
from pertpipe.errors import ParameterError, ValidationError
from pertpipe.data import split_unseen_perturbation
from pertpipe.evaluators import (
    FailureInjectingEvaluator,
    SurrogateEvaluator,
    SyntheticConfig,
    generate_synthetic,
)
from pertpipe.knowledge import RetrievalResult
from pertpipe.search import (
    EvalOutcome,
    Node,
    SearchConfig,
    backpropagate,
    q_mix,
    reward,
    run_search,
    time_decay,
    uct_score,
)


def _node(n=0, q_sum=0.0, q_max=0.0, level=1):
    node = Node("paradigm:discriminative", level, ("paradigm:discriminative",))
    node.n_visits = n
    node.q_sum = q_sum
    node.q_max = q_max
    return node


class TestQMix:
    def test_weighted_combination(self):
        node = _node(n=2, q_sum=0.8, q_max=0.6)  # mean 0.4
        assert abs(q_mix(node, 0.7) - 0.54) < 1e-12

    def test_equal_max_and_mean(self):
        node = _node(n=2, q_sum=0.8, q_max=0.4)
        assert abs(q_mix(node, 0.7) - 0.4) < 1e-12

    def test_alpha_one_gives_max(self):
        node = _node(n=3, q_sum=0.3, q_max=0.9)
        assert q_mix(node, 1.0) == 0.9

    def test_unvisited_node_rejected(self):
        with pytest.raises(ParameterError):
            q_mix(_node(n=0), 0.7)


class TestUctScore:
    CONFIG = SearchConfig()

    def test_hand_value(self):
        parent = _node(n=10)
        child = _node(n=2, q_sum=0.8, q_max=0.6)
        got = uct_score(parent, child, self.CONFIG)
        expected = 0.54 + math.sqrt(math.log(10) / (2 + 1e-6))
        assert abs(got - expected) < 1e-12
        assert abs(got - 1.6129827) < 1e-5

    def test_unvisited_child_value_term_is_zero(self):
        parent = _node(n=1)
        child = _node(n=0)
        # ln(1) == 0, so the whole score collapses to zero
        assert uct_score(parent, child, self.CONFIG) == 0.0

    def test_unvisited_child_dominated_by_exploration(self):
        parent = _node(n=10)
        fresh = _node(n=0)
        visited = _node(n=5, q_sum=5.0, q_max=1.0)
        assert uct_score(parent, fresh, self.CONFIG) > uct_score(
            parent, visited, self.CONFIG
        )

    def test_equal_stats_equal_scores(self):
        parent = _node(n=10)
        a = _node(n=2, q_sum=0.8, q_max=0.6)
        b = _node(n=2, q_sum=0.8, q_max=0.6)
        assert uct_score(parent, a, self.CONFIG) == uct_score(parent, b, self.CONFIG)


class TestTimeDecay:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (0.0, 1.0), (0.5, 1.0), (0.8, 1.0), (0.9, 0.9), (1.0, 0.8),
            (1.25, 0.65), (1.5, 0.5), (2.25, 0.25), (3.0, 0.0), (4.0, 0.0),
        ],
    )
    def test_reference_table(self, t, expected):
        assert abs(time_decay(t) - expected) < 1e-12

    @pytest.mark.parametrize("breakpoint", [0.8, 1.0, 1.5, 3.0])
    def test_continuity_at_breakpoints(self, breakpoint):
        eps = 1e-9
        left = time_decay(breakpoint - eps)
        right = time_decay(breakpoint + eps)
        assert abs(left - time_decay(breakpoint)) < 1e-6
        assert abs(right - time_decay(breakpoint)) < 1e-6

    def test_monotone_nonincreasing(self):
        values = [time_decay(t / 100.0) for t in range(0, 500)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            time_decay(-0.1)


class TestReward:
    CONFIG = SearchConfig()

    def test_weighted_sum(self):
        outcome = EvalOutcome(m_val=0.5, t_exec=1.0, t_ratio=1.0)
        assert abs(reward(outcome, self.CONFIG) - 0.56) < 1e-12

    def test_failed_outcome_keeps_time_credit(self):
        outcome = EvalOutcome(m_val=None, t_exec=1.0, error="boom", t_ratio=0.5)
        assert abs(reward(outcome, self.CONFIG) - 0.2) < 1e-12

    def test_maximum(self):
        outcome = EvalOutcome(m_val=1.0, t_exec=1.0, t_ratio=0.5)
        assert abs(reward(outcome, self.CONFIG) - 1.0) < 1e-12

    def test_undefined_metric_maps_to_zero(self):
        outcome = EvalOutcome(m_val=None, t_exec=1.0, t_ratio=1.0)
        assert abs(reward(outcome, self.CONFIG) - 0.16) < 1e-12

    def test_bounded_by_weights(self):
        for m in (0.0, 0.3, 1.0):
            for t in (0.1, 1.0, 2.0, 5.0):
                r = reward(EvalOutcome(m_val=m, t_exec=1.0, t_ratio=t), self.CONFIG)
                assert 0.0 <= r <= self.CONFIG.w_p + self.CONFIG.w_e


class TestLegalActions:
    def test_root_offers_both_paradigms(self):
        assert legal_actions(()) == (
            "paradigm:discriminative", "paradigm:generative",
        )

    def test_generative_backbones(self):
        actions = legal_actions(("paradigm:generative",))
        assert actions == ("backbone:conditional_vae", "backbone:flow_matching")

    def test_discriminative_backbones(self):
        actions = legal_actions(("paradigm:discriminative",))
        assert actions == (
            "backbone:resnet", "backbone:gated_mlp", "backbone:pathway_masked",
        )

    def test_backbone_unlocks_refinements(self):
        actions = legal_actions(("paradigm:generative", "backbone:flow_matching"))
        assert "hyperparam:h0" in actions and "loss:huber" in actions
        assert not any(a.startswith("backbone") for a in actions)

    def test_refinements_never_repeat_a_kind(self):
        path = ("paradigm:generative", "backbone:flow_matching", "hyperparam:h1")
        actions = legal_actions(path)
        assert actions == ("loss:mse", "loss:huber")
        path = path + ("loss:huber",)
        assert legal_actions(path) == ()

    def test_bug_status_adds_debug(self):
        path = ("paradigm:generative", "backbone:flow_matching")
        actions = legal_actions(path, status="bug")
        assert DEBUG_ACTION in actions

    def test_flat_mode_offers_joint_actions(self):
        actions = legal_actions(("paradigm:generative",), mode="flat_ablation")
        assert "backbone:conditional_vae" in actions
        assert "hyperparam:h0" in actions and "loss:mse" in actions

    def test_flat_mode_allows_refinement_before_backbone(self):
        path = ("paradigm:generative", "hyperparam:h1")
        actions = legal_actions(path, mode="flat_ablation")
        assert "backbone:flow_matching" in actions
        assert not any(a.startswith("hyperparam") for a in actions)

    def test_no_paradigm_reoffered(self):
        for mode in ("hierarchical", "flat_ablation"):
            actions = legal_actions(("paradigm:generative",), mode=mode)
            assert not any(a.startswith("paradigm") for a in actions)


class TestMaterialize:
    def test_defaults_fill_missing_levels(self):
        c = materialize(("paradigm:generative",))
        assert c == Candidate(
            "generative", "conditional_vae", HYPERPARAM_GRID[0], "mse"
        )

    def test_full_path(self):
        c = materialize(
            ("paradigm:discriminative", "backbone:gated_mlp",
             "hyperparam:h2", "loss:huber")
        )
        assert c.key() == "discriminative/gated_mlp/h2/huber"

    def test_debug_sets_fixed_flag(self):
        c = materialize(("paradigm:generative", "backbone:flow_matching", "debug"))
        assert c.debug_fixed and c.key().endswith("/fixed")

    def test_requires_paradigm(self):
        with pytest.raises(ParameterError):
            materialize(())

    def test_enumeration_covers_space(self):
        keys = [c.key() for c in enumerate_candidates()]
        assert len(keys) == len(set(keys)) == 40

    @pytest.mark.parametrize(
        "path,expected",
        [
            (("paradigm:generative",), ("paradigm:generative",)),
            (("paradigm:generative", "debug"), ("paradigm:generative",)),
            (
                ("paradigm:discriminative", "loss:huber"),
                ("paradigm:discriminative", "backbone:resnet", "loss:huber"),
            ),
            (
                ("paradigm:discriminative", "hyperparam:h2", "debug", "backbone:gated_mlp"),
                ("paradigm:discriminative", "backbone:gated_mlp", "hyperparam:h2"),
            ),
            (
                ("paradigm:generative", "backbone:flow_matching", "debug",
                 "loss:huber", "hyperparam:h1"),
                ("paradigm:generative", "backbone:flow_matching", "loss:huber",
                 "hyperparam:h1"),
            ),
        ],
    )
    def test_hierarchical_path(self, path, expected):
        got = hierarchical_path(path)
        assert got == expected
        validate_action_path(got)
        assert materialize(got) == replace(materialize(path), debug_fixed=False)

    def test_path_validation(self):
        validate_action_path(("paradigm:generative", "backbone:flow_matching"))
        with pytest.raises(ValidationError):
            validate_action_path(("backbone:flow_matching",))


class TestBackpropagate:
    def test_fresh_path(self):
        nodes = [_node(), _node(), _node()]
        backpropagate(nodes, 0.5)
        for node in nodes:
            assert node.n_visits == 1
            assert node.q_mean == 0.5
            assert node.q_max == 0.5

    def test_second_update(self):
        node = _node()
        backpropagate([node], 0.5)
        backpropagate([node], 0.7)
        assert node.n_visits == 2
        assert abs(node.q_mean - 0.6) < 1e-12
        assert node.q_max == 0.7

    def test_zero_reward_keeps_max(self):
        node = _node()
        backpropagate([node], 0.5)
        backpropagate([node], 0.0)
        assert node.q_max == 0.5


class TestRunSearch:
    EV = builtin_landscape("funnel")

    def test_single_simulation(self):
        result = run_search(SearchConfig(n_sim=1, seed=0), self.EV)
        assert result.n_iterations == 1
        assert len(result.trajectory) == 1
        assert result.best_candidate is not None
        assert result.best_reward == result.trajectory[0]["reward"]

    def test_warm_start_first_iteration_under_stored_path(self):
        rr = RetrievalResult(
            rho=0.9, mode="warm_start", ranked=(),
            epsilon0=("paradigm:generative", "backbone:conditional_vae"),
        )
        for seed in range(20):
            result = run_search(SearchConfig(n_sim=4, seed=seed), self.EV, retrieval=rr)
            assert result.trajectory[0]["path"][:2] == [
                "paradigm:generative", "backbone:conditional_vae",
            ]

    def test_ab_initio_tries_both_paradigms_first(self):
        for seed in range(20):
            result = run_search(SearchConfig(n_sim=2, seed=seed), self.EV)
            first_two = {r["path"][0] for r in result.trajectory[:2]}
            assert first_two == {"paradigm:discriminative", "paradigm:generative"}

    def test_byte_identical_trajectories(self):
        a = run_search(SearchConfig(n_sim=40, seed=11), self.EV)
        b = run_search(SearchConfig(n_sim=40, seed=11), self.EV)
        assert a.trajectory_jsonl() == b.trajectory_jsonl()
        assert a.tree_json() == b.tree_json()

    def test_tree_visit_consistency(self):
        result = run_search(SearchConfig(n_sim=48, seed=5), self.EV)
        terminal_counts: dict[tuple, int] = {}
        for rec in result.trajectory:
            key = tuple(rec["path"])
            terminal_counts[key] = terminal_counts.get(key, 0) + 1

        def check(node, path):
            child_visits = sum(c.n_visits for c in node.children)
            own = terminal_counts.get(path, 0)
            assert node.n_visits == child_visits + own
            assert node.q_max >= node.q_mean - 1e-12
            for child in node.children:
                check(child, path + (child.action,))

        check(result.root, ())

    def test_qmax_matches_trajectory(self):
        result = run_search(SearchConfig(n_sim=32, seed=3), self.EV)
        best_through_root = max(r["reward"] for r in result.trajectory)
        assert abs(result.root.q_max - best_through_root) < 1e-12

    def test_hierarchy_freeze_over_seeds(self):
        for seed in range(50):
            result = run_search(SearchConfig(n_sim=24, seed=seed), self.EV)
            for rec in result.trajectory:
                kinds = [a.split(":")[0] for a in rec["path"] if a != DEBUG_ACTION]
                seen_refinement = False
                for kind in kinds:
                    if kind in ("hyperparam", "loss"):
                        seen_refinement = True
                    elif seen_refinement:
                        pytest.fail(f"structural action after refinement: {rec['path']}")

    def test_all_failures_yield_explicit_no_candidate(self):
        ev = FailureInjectingEvaluator(self.EV, failure_rate=1.0, fix_succeeds=False)
        result = run_search(SearchConfig(n_sim=10, seed=1), ev)
        assert result.best_candidate is None
        assert not result.found_valid
        assert all(r["failed"] is not None for r in result.trajectory)

    def test_debug_recovers_injected_failures(self):
        ev = FailureInjectingEvaluator(self.EV, failure_rate=1.0, fix_succeeds=True)
        result = run_search(SearchConfig(n_sim=30, seed=4), ev)
        assert result.found_valid
        assert result.best_candidate.debug_fixed
        assert any(r["action"] == DEBUG_ACTION for r in result.trajectory)

    def test_best_never_a_failed_simulation(self):
        ev = FailureInjectingEvaluator(self.EV, failure_rate=0.5)
        for seed in range(10):
            result = run_search(SearchConfig(n_sim=24, seed=seed), ev)
            if result.found_valid:
                rewards = [
                    r for r in result.trajectory
                    if tuple(r["path"]) == result.best_path and r["failed"] is None
                ]
                assert rewards

    def test_wall_clock_budget_stops_iterations(self):
        result = run_search(
            SearchConfig(n_sim=100, seed=0, wall_clock_budget=0.0), self.EV
        )
        assert result.n_iterations == 0
        assert result.best_candidate is None

    def test_search_never_beats_exhaustive_max(self):
        ex = exhaustive_best(self.EV, seed=0)
        for seed in range(10):
            result = run_search(SearchConfig(n_sim=32, seed=seed), self.EV)
            for rec in result.trajectory:
                if rec["m_val"] is not None:
                    assert rec["m_val"] <= ex.best_m_val + 1e-12

    def test_n_sim_counts_simulations_and_expansions_logged(self):
        result = run_search(SearchConfig(n_sim=25, seed=2), self.EV)
        assert len(result.trajectory) == 25
        assert result.n_expansions <= 25

    def test_invalid_warm_start_path_rejected(self):
        rr = RetrievalResult(
            rho=0.9, mode="warm_start", ranked=(), epsilon0=("backbone:resnet",)
        )
        with pytest.raises(ValidationError):
            run_search(SearchConfig(n_sim=2, seed=0), self.EV, retrieval=rr)


# --------------------------------------------------------------------------
# transposition table: one evaluation per distinct candidate, same bytes

# sha256 prefixes of (trajectory_jsonl, tree_json) for n_sim=64 runs, keyed
# by evaluator/mode/strictness/failure injector/seed; a strict run goes
# through PurityChecking, which evaluates each candidate twice. The funnel_jitter
# entries were taken from the engine before it kept a transposition table;
# the surrogate entries from the evaluator that fits from per-condition
# sufficient statistics (TestSurrogateSearchMatchesReference ties those
# runs to the dense per-candidate reference)
TRAJECTORY_PINS = {
    "surrogate/hierarchical/lax/none/0": ("89ef833f2d21d38e", "8e02e7932b3b64f9"),
    "surrogate/hierarchical/lax/none/1": ("39878defbbd5cc98", "f2165eb9d9808483"),
    "surrogate/hierarchical/lax/none/2": ("12b0fe89e3471575", "890e7067e8a1666b"),
    "surrogate/hierarchical/lax/fixable/0": ("e11a4e5981950538", "08746c4216884a50"),
    "surrogate/hierarchical/lax/fixable/1": ("75b4c513f2b441ec", "a04e5327e72c651c"),
    "surrogate/hierarchical/lax/fixable/2": ("3f87d1956068f69b", "70fa9360e5572e06"),
    "surrogate/hierarchical/lax/unfixable/0": ("877dc0e4f29b8e43", "f6a39205c9bf1f2c"),
    "surrogate/hierarchical/lax/unfixable/1": ("f976ba9c925c4e51", "65cd785b9cb2e629"),
    "surrogate/hierarchical/lax/unfixable/2": ("4cc9dcb3f664a36c", "c3fd988d3541943e"),
    "surrogate/hierarchical/strict/none/0": ("89ef833f2d21d38e", "8e02e7932b3b64f9"),
    "surrogate/hierarchical/strict/none/1": ("39878defbbd5cc98", "f2165eb9d9808483"),
    "surrogate/hierarchical/strict/none/2": ("12b0fe89e3471575", "890e7067e8a1666b"),
    "surrogate/hierarchical/strict/fixable/0": ("e11a4e5981950538", "08746c4216884a50"),
    "surrogate/hierarchical/strict/fixable/1": ("75b4c513f2b441ec", "a04e5327e72c651c"),
    "surrogate/hierarchical/strict/fixable/2": ("3f87d1956068f69b", "70fa9360e5572e06"),
    "surrogate/hierarchical/strict/unfixable/0": ("877dc0e4f29b8e43", "f6a39205c9bf1f2c"),
    "surrogate/hierarchical/strict/unfixable/1": ("f976ba9c925c4e51", "65cd785b9cb2e629"),
    "surrogate/hierarchical/strict/unfixable/2": ("4cc9dcb3f664a36c", "c3fd988d3541943e"),
    "surrogate/flat_ablation/lax/none/0": ("d2685cc5121bb040", "6bb28ef29cf6317a"),
    "surrogate/flat_ablation/lax/none/1": ("86e40f3591806abc", "53bc9d6dde07e30e"),
    "surrogate/flat_ablation/lax/none/2": ("4701a6e735cc67e7", "21e35d142ba671ff"),
    "surrogate/flat_ablation/lax/fixable/0": ("4fc76e0df5b2a534", "d1ef4bfa3ec84d54"),
    "surrogate/flat_ablation/lax/fixable/1": ("4920b5391a127e06", "b51b7738c97a78de"),
    "surrogate/flat_ablation/lax/fixable/2": ("7f685f4a7735fbae", "1528df1f5fd0f1b8"),
    "surrogate/flat_ablation/lax/unfixable/0": ("30493d506a74bb02", "a9111bae00eecd83"),
    "surrogate/flat_ablation/lax/unfixable/1": ("a7c1f45a5547e1d8", "e940b349c5660872"),
    "surrogate/flat_ablation/lax/unfixable/2": ("11ecc849561128ca", "1d7177957bffbe7a"),
    "surrogate/flat_ablation/strict/none/0": ("d2685cc5121bb040", "6bb28ef29cf6317a"),
    "surrogate/flat_ablation/strict/none/1": ("86e40f3591806abc", "53bc9d6dde07e30e"),
    "surrogate/flat_ablation/strict/none/2": ("4701a6e735cc67e7", "21e35d142ba671ff"),
    "surrogate/flat_ablation/strict/fixable/0": ("4fc76e0df5b2a534", "d1ef4bfa3ec84d54"),
    "surrogate/flat_ablation/strict/fixable/1": ("4920b5391a127e06", "b51b7738c97a78de"),
    "surrogate/flat_ablation/strict/fixable/2": ("7f685f4a7735fbae", "1528df1f5fd0f1b8"),
    "surrogate/flat_ablation/strict/unfixable/0": ("30493d506a74bb02", "a9111bae00eecd83"),
    "surrogate/flat_ablation/strict/unfixable/1": ("a7c1f45a5547e1d8", "e940b349c5660872"),
    "surrogate/flat_ablation/strict/unfixable/2": ("11ecc849561128ca", "1d7177957bffbe7a"),
    "funnel_jitter/hierarchical/lax/none/0": ("525e31db90654536", "03152a72e2c51557"),
    "funnel_jitter/hierarchical/lax/none/1": ("aec8a3e56318e268", "a58c5ac28d583e25"),
    "funnel_jitter/hierarchical/lax/none/2": ("d004c68c70dec31b", "afd73e8253e1bd60"),
    "funnel_jitter/hierarchical/lax/fixable/0": ("d0443014e6747bae", "8df81ff740f5fd1a"),
    "funnel_jitter/hierarchical/lax/fixable/1": ("c3b14ca9efb187b0", "224973e78fb9fc7a"),
    "funnel_jitter/hierarchical/lax/fixable/2": ("f33551e0019e7bc6", "95d0efd34b6ca106"),
    "funnel_jitter/hierarchical/lax/unfixable/0": ("493435224d2927af", "35578ba459674d06"),
    "funnel_jitter/hierarchical/lax/unfixable/1": ("9426a2fd1baa46cc", "e8e6e038505aedff"),
    "funnel_jitter/hierarchical/lax/unfixable/2": ("50f5bfa24b17b367", "0ce04b3624979adf"),
    "funnel_jitter/hierarchical/strict/none/0": ("525e31db90654536", "03152a72e2c51557"),
    "funnel_jitter/hierarchical/strict/none/1": ("aec8a3e56318e268", "a58c5ac28d583e25"),
    "funnel_jitter/hierarchical/strict/none/2": ("d004c68c70dec31b", "afd73e8253e1bd60"),
    "funnel_jitter/hierarchical/strict/fixable/0": ("d0443014e6747bae", "8df81ff740f5fd1a"),
    "funnel_jitter/hierarchical/strict/fixable/1": ("c3b14ca9efb187b0", "224973e78fb9fc7a"),
    "funnel_jitter/hierarchical/strict/fixable/2": ("f33551e0019e7bc6", "95d0efd34b6ca106"),
    "funnel_jitter/hierarchical/strict/unfixable/0": ("493435224d2927af", "35578ba459674d06"),
    "funnel_jitter/hierarchical/strict/unfixable/1": ("9426a2fd1baa46cc", "e8e6e038505aedff"),
    "funnel_jitter/hierarchical/strict/unfixable/2": ("50f5bfa24b17b367", "0ce04b3624979adf"),
    "funnel_jitter/flat_ablation/lax/none/0": ("df0ab7a7e4265c90", "45bd3a64bcee0d7b"),
    "funnel_jitter/flat_ablation/lax/none/1": ("1d443928a29b7611", "f96d5076ea564af4"),
    "funnel_jitter/flat_ablation/lax/none/2": ("69a8c22af7586f43", "9db5d6aa9e150fd3"),
    "funnel_jitter/flat_ablation/lax/fixable/0": ("11ed6d5d3a4e8674", "29afc9d1a50b1c05"),
    "funnel_jitter/flat_ablation/lax/fixable/1": ("74f53b62809c84e9", "c1c2f02fe2f5360c"),
    "funnel_jitter/flat_ablation/lax/fixable/2": ("082aef5efaede1a9", "b68fb6e753ba5827"),
    "funnel_jitter/flat_ablation/lax/unfixable/0": ("d6a78797f134d9ad", "356fb9dc6407e1fc"),
    "funnel_jitter/flat_ablation/lax/unfixable/1": ("f11b17ade8b3a359", "f3da1b346f1eab95"),
    "funnel_jitter/flat_ablation/lax/unfixable/2": ("f15e9736fd046520", "7e6a543496ed1be9"),
    "funnel_jitter/flat_ablation/strict/none/0": ("df0ab7a7e4265c90", "45bd3a64bcee0d7b"),
    "funnel_jitter/flat_ablation/strict/none/1": ("1d443928a29b7611", "f96d5076ea564af4"),
    "funnel_jitter/flat_ablation/strict/none/2": ("69a8c22af7586f43", "9db5d6aa9e150fd3"),
    "funnel_jitter/flat_ablation/strict/fixable/0": ("11ed6d5d3a4e8674", "29afc9d1a50b1c05"),
    "funnel_jitter/flat_ablation/strict/fixable/1": ("74f53b62809c84e9", "c1c2f02fe2f5360c"),
    "funnel_jitter/flat_ablation/strict/fixable/2": ("082aef5efaede1a9", "b68fb6e753ba5827"),
    "funnel_jitter/flat_ablation/strict/unfixable/0": ("d6a78797f134d9ad", "356fb9dc6407e1fc"),
    "funnel_jitter/flat_ablation/strict/unfixable/1": ("f11b17ade8b3a359", "f3da1b346f1eab95"),
    "funnel_jitter/flat_ablation/strict/unfixable/2": ("f15e9736fd046520", "7e6a543496ed1be9"),
}


@pytest.fixture(scope="module")
def pin_evaluators():
    ds, _ = generate_synthetic(SyntheticConfig(60, 8, 12, 0.4, 0.3, seed=0))
    return {
        "surrogate": SurrogateEvaluator(ds, split_unseen_perturbation(ds, 0.8, seed=0)),
        "funnel_jitter": builtin_landscape("funnel_jitter"),
    }


class CountingEvaluator:
    def __init__(self, inner):
        self.inner = inner
        self.keys: list[str] = []

    def evaluate(self, candidate, seed):
        self.keys.append(candidate.key())
        return self.inner.evaluate(candidate, seed)


class PurityChecking:
    """Evaluates each candidate twice and requires the same outcome both times."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, candidate, seed):
        outcome = self.inner.evaluate(candidate, seed)
        assert self.inner.evaluate(candidate, seed) == outcome, candidate.key()
        return outcome


def _pinned_run(pin_evaluators, case):
    name, mode, strictness, injector, seed = case.split("/")
    evaluator = pin_evaluators[name]
    if injector != "none":
        evaluator = FailureInjectingEvaluator(
            evaluator, 0.5, fix_succeeds=injector == "fixable"
        )
    counting = CountingEvaluator(evaluator)
    checked = PurityChecking(counting) if strictness == "strict" else counting
    return run_search(SearchConfig(n_sim=64, seed=int(seed), mode=mode), checked), counting


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestTranspositionTable:
    @pytest.mark.parametrize("case", sorted(TRAJECTORY_PINS))
    def test_bytes_unchanged_and_one_evaluation_per_candidate(self, pin_evaluators, case):
        result, counting = _pinned_run(pin_evaluators, case)
        assert (_sha(result.trajectory_jsonl()), _sha(result.tree_json())) == TRAJECTORY_PINS[case]
        distinct = {materialize(tuple(r["path"])).key() for r in result.trajectory}
        per_candidate = 2 if "/strict/" in case else 1
        assert sorted(counting.keys) == sorted(k for k in distinct for _ in range(per_candidate))

    def test_hit_reuses_first_outcome_with_current_baseline(self):
        # every path under one paradigm materializes to its default candidate
        result, counting = _pinned_run(
            {"funnel": builtin_landscape("funnel")},
            "funnel/hierarchical/lax/none/0",
        )
        by_key: dict[str, list[dict]] = {}
        for rec in result.trajectory:
            by_key.setdefault(materialize(tuple(rec["path"])).key(), []).append(rec)
        repeated = [recs for recs in by_key.values() if len(recs) > 1]
        assert repeated
        for recs in repeated:
            assert len({(r["m_val"], r["t_exec"], r["failed"]) for r in recs}) == 1
        assert len(counting.keys) == len(by_key)


# --------------------------------------------------------------------------
# the sufficient-statistics surrogate against the dense per-candidate reference


class ReferenceSurrogate:
    """``reference_surrogate_evaluate`` as an evaluator, memoized (it is pure)."""

    def __init__(self, ds, split):
        self.ds, self.split = ds, split
        self.memo: dict[Candidate, EvalOutcome] = {}

    def evaluate(self, candidate, seed):
        if candidate not in self.memo:
            self.memo[candidate] = reference_surrogate_evaluate(self.ds, self.split, candidate)
        return self.memo[candidate]


class TestSurrogateSearchMatchesReference:
    """Rounding may reorder ties among equal-reward candidates, so paths can
    differ from a search scored by the reference; the best reward and every
    score along the way agree within a relative 1e-9."""

    @pytest.mark.parametrize("data_seed", [0, 1, 2])
    @pytest.mark.parametrize("noise", [0.0, 0.4])
    def test_best_reward_and_every_m_val(self, data_seed, noise):
        ds, _ = generate_synthetic(SyntheticConfig(60, 8, 12, noise, 0.3, seed=data_seed))
        split = split_unseen_perturbation(ds, 0.8, seed=data_seed)
        fast = SurrogateEvaluator(ds, split)
        reference = ReferenceSurrogate(ds, split)
        for mode, injector, seed in itertools.product(
            ("hierarchical", "flat_ablation"), ("none", "fixable", "unfixable"), range(4)
        ):
            results = []
            for evaluator in (fast, reference):
                if injector != "none":
                    evaluator = FailureInjectingEvaluator(
                        evaluator, 0.5, fix_succeeds=injector == "fixable"
                    )
                results.append(run_search(SearchConfig(n_sim=64, seed=seed, mode=mode), evaluator))
            new, ref = results
            case = (mode, injector, seed)
            assert math.isclose(new.best_reward, ref.best_reward, rel_tol=0.0, abs_tol=1e-9), case
            for rec in new.trajectory:
                if rec["m_val"] is not None:
                    expected = reference.evaluate(materialize(tuple(rec["path"])), seed)
                    assert math.isclose(rec["m_val"], expected.m_val, rel_tol=1e-9), case
