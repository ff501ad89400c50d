from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from pertpipe import knowledge
from pertpipe.errors import ParameterError, ValidationError
from pertpipe.knowledge import (
    HashEmbedder,
    KnowledgeBase,
    KnowledgeEntry,
    RetrievalParams,
    composite_weight,
    cosine_similarity,
    make_entry,
    retrieve,
)

LEGAL_PATH = ("paradigm:generative", "backbone:conditional_vae")
OTHER_PATH = ("paradigm:discriminative", "backbone:resnet")


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([0.6, 0.8])
        assert cosine_similarity(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_opposite(self):
        v = np.array([0.6, 0.8])
        assert cosine_similarity(v, -v) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            cosine_similarity(np.ones(3), np.ones(4))


class TestCompositeWeight:
    def test_low_similarity_low_reward(self):
        w = composite_weight(0.65, 0.6, 0.6, 0.9, tau_filter=0.3, alpha_retrieval=0.5)
        assert abs(w - 0.25) < 1e-9

    def test_high_reward_dominates(self):
        w = composite_weight(0.5, 0.9, 0.6, 0.9, tau_filter=0.3, alpha_retrieval=0.5)
        assert abs(w - (0.5 * (0.2 / 0.7) + 0.5)) < 1e-9
        assert abs(w - 0.6428571428571428) < 1e-9

    def test_degenerate_reward_range(self):
        w = composite_weight(1.0, 0.7, 0.7, 0.7, tau_filter=0.3, alpha_retrieval=0.5)
        assert w == 1.0

    def test_filtered_similarity_rejected(self):
        with pytest.raises(ParameterError):
            composite_weight(0.3, 0.5, 0.0, 1.0, tau_filter=0.3)


class _FixedEmbedder:
    """Embeds every query to a fixed unit vector (controls similarities)."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=np.float64)

    def embed(self, text):
        return self.vector


def _entry(sim: float, reward: float, path=OTHER_PATH, created_at=0.0):
    # query is [1, 0]; an embedding [s, sqrt(1-s^2)] has cosine s with it
    emb = np.array([sim, np.sqrt(1.0 - sim * sim)])
    return KnowledgeEntry(
        profile_text=f"entry sim {sim}",
        embedding=emb,
        action_path=path,
        reward=reward,
        created_at=created_at,
    )


class TestRetrieve:
    PARAMS = RetrievalParams(tau_filter=0.3, m=3, alpha_retrieval=0.5, tau=0.5)
    EMBEDDER = _FixedEmbedder([1.0, 0.0])

    def test_empty_store_is_ab_initio(self):
        result = retrieve("anything", [], self.PARAMS, self.EMBEDDER)
        assert result.mode == "ab_initio"
        assert result.ranked == ()
        assert result.epsilon0 is None

    def test_weight_ranking_beats_similarity_ranking(self):
        a = _entry(0.65, 0.6, path=OTHER_PATH)
        b = _entry(0.5, 0.9, path=LEGAL_PATH)
        result = retrieve("q", [a, b], self.PARAMS, self.EMBEDDER)
        assert result.mode == "warm_start"
        assert abs(result.rho - 0.65) < 1e-12
        assert result.ranked[0][0] is b
        assert abs(result.ranked[0][2] - 0.6428571428571428) < 1e-9
        assert abs(result.ranked[1][2] - 0.25) < 1e-9
        assert result.epsilon0 == LEGAL_PATH

    def test_rho_is_max_over_all_entries(self):
        # the most similar entry can be filtered out of the ranking by weight
        a = _entry(0.9, 0.0)
        b = _entry(0.6, 1.0, path=LEGAL_PATH)
        result = retrieve("q", [a, b], self.PARAMS, self.EMBEDDER)
        assert abs(result.rho - 0.9) < 1e-12
        assert result.ranked[0][0] is b

    def test_all_below_filter_is_ab_initio(self):
        entries = [_entry(0.2, 0.9), _entry(0.1, 0.8)]
        result = retrieve("q", entries, self.PARAMS, self.EMBEDDER)
        assert result.mode == "ab_initio"
        assert result.ranked == ()

    def test_rho_below_tau_is_ab_initio(self):
        entries = [_entry(0.45, 0.9)]
        result = retrieve("q", entries, self.PARAMS, self.EMBEDDER)
        assert result.mode == "ab_initio"

    def test_top_m_truncation(self):
        entries = [_entry(0.4 + 0.1 * i, 0.5, created_at=i) for i in range(5)]
        result = retrieve("q", entries, self.PARAMS, self.EMBEDDER)
        assert len(result.ranked) == 3

    def test_ties_break_to_newer_entry(self):
        old = _entry(0.6, 0.5, path=OTHER_PATH, created_at=1.0)
        new = _entry(0.6, 0.5, path=LEGAL_PATH, created_at=2.0)
        result = retrieve("q", [old, new], self.PARAMS, self.EMBEDDER)
        assert result.ranked[0][0] is new

    def test_reward_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sims = rng.uniform(0.31, 0.99, size=5)
            rewards = rng.uniform(0.0, 1.0, size=5)
            entries = [
                _entry(s, r, created_at=float(i))
                for i, (s, r) in enumerate(zip(sims, rewards))
            ]
            result = retrieve("q", entries, RetrievalParams(m=5), self.EMBEDDER)
            order = [e.created_at for e, _, _ in result.ranked]
            target = int(rng.integers(0, 5))
            bumped = min(rewards.max(), rewards[target] + rng.uniform(0, 0.2))
            entries2 = list(entries)
            entries2[target] = _entry(
                sims[target], bumped, created_at=float(target)
            )
            result2 = retrieve("q", entries2, RetrievalParams(m=5), self.EMBEDDER)
            order2 = [e.created_at for e, _, _ in result2.ranked]
            if float(target) in order and float(target) in order2:
                assert order2.index(float(target)) <= order.index(float(target))


class TestHashEmbedder:
    def test_unit_norm(self):
        emb = HashEmbedder().embed("a simple task profile")
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-12

    def test_case_and_whitespace_invariance(self):
        e = HashEmbedder()
        a = e.embed("Drug   Response\tK562")
        b = e.embed("drug response k562")
        assert np.array_equal(a, b)

    def test_deterministic_across_instances(self):
        assert np.array_equal(
            HashEmbedder().embed("profile"), HashEmbedder().embed("profile")
        )

    def test_distinct_texts_differ(self):
        e = HashEmbedder()
        assert not np.array_equal(e.embed("alpha beta"), e.embed("gamma delta"))

    def test_dimension_configurable(self):
        assert HashEmbedder(dim=32).embed("text").shape == (32,)


SCALAR_EMBEDDING_ENTRY = json.dumps(
    {"profile_text": "x", "embedding": 1.0, "action_path": ["paradigm:generative"],
     "reward": 0.5, "created_at": 0.0}
)


class TestKnowledgeBase:
    def test_record_then_retrieve_self_similarity(self, tmp_path):
        kb = KnowledgeBase(tmp_path / "kb.jsonl")
        entry = make_entry("drug response on K562 with 8 perturbations", LEGAL_PATH, 0.7)
        kb.record(entry)
        result = retrieve(
            "drug response on K562 with 8 perturbations", kb.load(),
            RetrievalParams(),
        )
        assert abs(result.rho - 1.0) < 1e-9
        assert result.mode == "warm_start"
        assert result.epsilon0 == LEGAL_PATH

    def test_non_unit_embedding_rejected(self, tmp_path):
        kb = KnowledgeBase(tmp_path / "kb.jsonl")
        bad = KnowledgeEntry(
            profile_text="x",
            embedding=np.ones(256),
            action_path=LEGAL_PATH,
            reward=0.5,
            created_at=0.0,
        )
        with pytest.raises(ValidationError, match="unit norm"):
            kb.record(bad)

    def test_illegal_path_rejected(self, tmp_path):
        kb = KnowledgeBase(tmp_path / "kb.jsonl")
        entry = make_entry("x", ("backbone:resnet",), 0.5)
        with pytest.raises(ValidationError, match="not legal"):
            kb.record(entry)

    def test_debug_actions_rejected_in_stored_paths(self, tmp_path):
        kb = KnowledgeBase(tmp_path / "kb.jsonl")
        entry = make_entry("x", LEGAL_PATH + ("debug",), 0.5)
        with pytest.raises(ValidationError, match="debug"):
            kb.record(entry)

    def test_durability_and_order(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        KnowledgeBase(path).record(make_entry("first", LEGAL_PATH, 0.5, created_at=1.0))
        KnowledgeBase(path).record(make_entry("second", OTHER_PATH, 0.6, created_at=2.0))
        entries = KnowledgeBase(path).load()
        assert [e.profile_text for e in entries] == ["first", "second"]

    def test_version_header_written_and_checked(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"kb_version": 1, "dim": 256}
        path.write_text(json.dumps({"kb_version": 99, "dim": 256}) + "\n")
        with pytest.raises(ValidationError, match="version"):
            KnowledgeBase(path).load()

    def test_dimension_mismatch_rejected_at_load(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        KnowledgeBase(path, dim=256).record(make_entry("x", LEGAL_PATH, 0.5))
        with pytest.raises(ValidationError, match="dim"):
            KnowledgeBase(path, dim=64).load()

    def test_missing_file_loads_empty(self, tmp_path):
        assert KnowledgeBase(tmp_path / "none.jsonl").load() == []

    def test_reward_range_checked(self, tmp_path):
        kb = KnowledgeBase(tmp_path / "kb.jsonl")
        with pytest.raises(ValidationError, match="reward"):
            kb.record(make_entry("x", LEGAL_PATH, 1.5))

    @pytest.mark.parametrize("reward", [float("nan"), 1.5, -0.25])
    def test_reward_range_checked_at_load(self, tmp_path, reward):
        # a hand edit that record() would have refused
        path = tmp_path / "kb.jsonl"
        KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
        doc = json.loads(make_entry("y", LEGAL_PATH, 0.5).to_json())
        doc["reward"] = reward
        with open(path, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        with pytest.raises(ValidationError, match=r"kb.jsonl:3 entry reward .* outside \[0, 1\]"):
            KnowledgeBase(path).load()

    @pytest.mark.parametrize(
        "lines,bad_line",
        [
            (None, 3),  # torn final entry
            (['{"kb_version": 1, "dim": 25'], 1),  # torn header
            (['{"kb_version": 1, "dim": 256}', "", '{"reward": 0.5}'], 3),
            (['{"kb_version": 1, "dim": 256}', "[1, 2]"], 2),
            (['{"kb_version": 1, "dim": 256}', SCALAR_EMBEDDING_ENTRY], 2),
        ],
        ids=["torn_entry", "torn_header", "missing_keys", "not_an_object", "scalar_embedding"],
    )
    def test_undecodable_line_rejected_by_number(self, tmp_path, lines, bad_line):
        path = tmp_path / "kb.jsonl"
        if lines is None:
            KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
            with open(path, "a") as fh:
                fh.write('{"torn')
        else:
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"kb.jsonl:{bad_line} "):
            KnowledgeBase(path).load()


def _append_entries(path, writer: int, n: int, barrier) -> None:
    barrier.wait()
    for i in range(n):
        KnowledgeBase(path).record(make_entry(f"writer {writer} entry {i}", LEGAL_PATH, 0.5))


class TestConcurrentRecord:
    def test_writer_that_loses_the_lock_race_adds_no_header(self, tmp_path, monkeypatch):
        path = tmp_path / "kb.jsonl"
        real_flock = knowledge._flock

        def racing_flock(fh):
            # a second first writer appends its header and entry before this
            # writer's lock is taken, after this writer opened the empty file
            monkeypatch.setattr(knowledge, "_flock", real_flock)
            KnowledgeBase(path).record(make_entry("other", OTHER_PATH, 0.6))
            real_flock(fh)

        monkeypatch.setattr(knowledge, "_flock", racing_flock)
        KnowledgeBase(path).record(make_entry("mine", LEGAL_PATH, 0.5))
        assert sum('"kb_version"' in ln for ln in path.read_text().splitlines()) == 1
        assert [e.profile_text for e in KnowledgeBase(path).load()] == ["other", "mine"]

    @pytest.mark.parametrize("writers", [2, 3, 4])
    def test_interleaved_writers_leave_one_header_and_every_entry(self, tmp_path, writers):
        path = tmp_path / "kb.jsonl"
        per_writer = 6
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(writers)
        procs = [
            ctx.Process(target=_append_entries, args=(path, w, per_writer, barrier))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0] * writers
        assert sum('"kb_version"' in ln for ln in path.read_text().splitlines()) == 1
        texts = [e.profile_text for e in KnowledgeBase(path).load()]
        assert sorted(texts) == sorted(
            f"writer {w} entry {i}" for w in range(writers) for i in range(per_writer)
        )
        for w in range(writers):  # each writer's entries keep their order
            mine = [t for t in texts if t.startswith(f"writer {w} ")]
            assert mine == [f"writer {w} entry {i}" for i in range(per_writer)]
