from __future__ import annotations

import hashlib
import json
import multiprocessing
import re

import numpy as np
import pytest

from helpers import reference_embed, reference_retrieve
from pertpipe import knowledge
from pertpipe.errors import ParameterError, ValidationError
from pertpipe.knowledge import (
    KnowledgeBase,
    KnowledgeEntry,
    RetrievalParams,
    composite_weight,
    embed,
    make_entry,
    rank,
    retrieve,
)

LEGAL_PATH = ("paradigm:generative", "backbone:conditional_vae")
OTHER_PATH = ("paradigm:discriminative", "backbone:resnet")


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


def _entry(reward: float, path=OTHER_PATH, created_at=0.0):
    return KnowledgeEntry(
        profile_text=f"entry {reward} {created_at}",
        action_path=path,
        reward=reward,
        created_at=created_at,
    )


class TestRank:
    """Ranking and gating, given each entry's similarity to the query."""

    PARAMS = RetrievalParams(tau_filter=0.3, m=3, alpha_retrieval=0.5, tau=0.5)

    def test_empty_store_is_ab_initio(self):
        for result in (rank([], [], self.PARAMS), retrieve("anything", [], self.PARAMS)):
            assert result.rho == float("-inf")
            assert result.mode == "ab_initio"
            assert result.ranked == ()
            assert result.epsilon0 is None

    def test_weight_ranking_beats_similarity_ranking(self):
        a = _entry(0.6, path=OTHER_PATH)
        b = _entry(0.9, path=LEGAL_PATH)
        result = rank([a, b], [0.65, 0.5], self.PARAMS)
        assert result.mode == "warm_start"
        assert result.rho == 0.65
        assert result.ranked[0][0] is b
        assert abs(result.ranked[0][2] - 0.6428571428571428) < 1e-9
        assert abs(result.ranked[1][2] - 0.25) < 1e-9
        assert result.epsilon0 == LEGAL_PATH

    def test_rho_is_max_over_all_entries(self):
        # the most similar entry can be filtered out of the ranking by weight
        a = _entry(0.0)
        b = _entry(1.0, path=LEGAL_PATH)
        result = rank([a, b], [0.9, 0.6], self.PARAMS)
        assert result.rho == 0.9
        assert result.ranked[0][0] is b

    def test_all_below_filter_is_ab_initio(self):
        result = rank([_entry(0.9), _entry(0.8)], [0.2, 0.1], self.PARAMS)
        assert result.mode == "ab_initio"
        assert result.ranked == ()

    def test_rho_below_tau_is_ab_initio(self):
        result = rank([_entry(0.9)], [0.45], self.PARAMS)
        assert result.mode == "ab_initio"

    def test_top_m_truncation(self):
        entries = [_entry(0.5, created_at=i) for i in range(5)]
        result = rank(entries, [0.4 + 0.1 * i for i in range(5)], self.PARAMS)
        assert len(result.ranked) == 3

    def test_ties_break_to_newer_entry(self):
        old = _entry(0.5, path=OTHER_PATH, created_at=1.0)
        new = _entry(0.5, path=LEGAL_PATH, created_at=2.0)
        result = rank([old, new], [0.6, 0.6], self.PARAMS)
        assert result.ranked[0][0] is new

    def test_reward_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sims = rng.uniform(0.31, 0.99, size=5).tolist()
            rewards = rng.uniform(0.0, 1.0, size=5)
            entries = [_entry(r, created_at=float(i)) for i, r in enumerate(rewards)]
            result = rank(entries, sims, RetrievalParams(m=5))
            order = [e.created_at for e, _, _ in result.ranked]
            target = int(rng.integers(0, 5))
            bumped = min(rewards.max(), rewards[target] + rng.uniform(0, 0.2))
            entries2 = list(entries)
            entries2[target] = _entry(bumped, created_at=float(target))
            result2 = rank(entries2, sims, RetrievalParams(m=5))
            order2 = [e.created_at for e, _, _ in result2.ranked]
            if float(target) in order and float(target) in order2:
                assert order2.index(float(target)) <= order.index(float(target))


class TestEmbed:
    def test_unit_norm(self):
        (emb,) = embed(["a simple task profile"])
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-12

    def test_case_and_whitespace_invariance(self):
        a, b = embed(["Drug   Response\tK562", "drug response k562"])
        assert np.array_equal(a, b)

    def test_deterministic_across_calls(self):
        assert np.array_equal(embed(["profile"]), embed(["profile"]))

    def test_distinct_texts_differ(self):
        a, b = embed(["alpha beta", "gamma delta"])
        assert not np.array_equal(a, b)

    def test_rows_match_the_reference_and_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(7)
        alphabet = list("abcXYZ019 _-\t.|")
        texts = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 80))))
                 for _ in range(300)]
        texts += ["", "  \t ", "Émigré ß 中文 k562", "a a a b"] + texts[:5]
        batch = embed(texts)
        assert batch.shape == (len(texts), knowledge.EMBED_DIM)
        for text, row in zip(texts, batch):
            assert row.tobytes() == embed([text])[0].tobytes()
            assert row.tobytes() == reference_embed(text).tobytes()

    def test_empty_batch(self):
        assert embed([]).shape == (0, 256)


def _profiles(rng, n: int) -> list[str]:
    """Profile texts in the layout ``pertpipe search`` records; many share most tokens."""
    texts = []
    for _ in range(n):
        n_perts = int(rng.integers(10, 400))
        vocab = " ".join(f"PERT_{j:03d}" for j in range(min(n_perts, 8)))
        evaluator = ["surrogate", "landscape:funnel", "landscape:ablation"][int(rng.integers(0, 3))]
        texts.append(
            f"cells {(n_perts + 1) * int(rng.integers(15, 60))} genes {int(rng.integers(100, 8000))} "
            f"perturbations {n_perts} vocab {vocab} split unseen_perturbation "
            f"evaluator {evaluator}"
        )
    return texts


PATHS = (
    LEGAL_PATH,
    OTHER_PATH,
    ("paradigm:generative",),
    ("paradigm:discriminative", "backbone:gated_mlp", "loss:huber"),
    ("paradigm:discriminative", "backbone:pathway_masked", "hyperparam:h2", "loss:mse"),
)


def _stored_entries(seed: int, n: int) -> list[KnowledgeEntry]:
    rng = np.random.default_rng(seed)
    return [
        make_entry(text, PATHS[int(rng.integers(0, len(PATHS)))], float(rng.uniform()),
                   created_at=float(rng.integers(0, 50)))
        for text in _profiles(rng, n)
    ]


def _v1_line(entry: KnowledgeEntry, embedding) -> str:
    """An entry line as version-1 stores wrote it, embedding included."""
    doc = json.loads(entry.to_json())
    doc["embedding"] = embedding
    return json.dumps(doc, sort_keys=True)


class TestBatchRetrieval:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_entry_cosine_loop(self, tmp_path, seed):
        path = tmp_path / "kb.jsonl"
        for entry in _stored_entries(seed, 300):
            KnowledgeBase(path).record(entry)
        entries = KnowledgeBase(path).load()
        queries = _profiles(np.random.default_rng(100 + seed), 20) + ["unrelated words only"]
        modes = set()
        for params in (RetrievalParams(), RetrievalParams(m=10, tau=0.9, alpha_retrieval=0.2)):
            for query in queries:
                got = retrieve(query, entries, params)
                want = reference_retrieve(query, entries, params)
                assert (got.rho, got.mode, got.epsilon0) == (want.rho, want.mode, want.epsilon0)
                assert [(id(e), s, w) for e, s, w in got.ranked] == [
                    (id(e), s, w) for e, s, w in want.ranked
                ]
                modes.add(got.mode)
        assert modes == {"warm_start", "ab_initio"}

def _line(**fields) -> str:
    """A stored entry line with ``fields`` replacing those of a valid one."""
    doc = {"profile_text": "x", "action_path": list(LEGAL_PATH), "reward": 0.5,
           "created_at": 0.0}
    return json.dumps({**doc, **fields})


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

    def test_illegal_path_rejected(self, tmp_path):
        kb = KnowledgeBase(tmp_path / "kb.jsonl")
        entry = make_entry("x", ("backbone:resnet",), 0.5)
        with pytest.raises(ValidationError, match="not legal"):
            kb.record(entry)

    def test_empty_path_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            KnowledgeBase(tmp_path / "kb.jsonl").record(make_entry("x", (), 0.5))

    @pytest.mark.parametrize("created_at", [float("nan"), float("inf")])
    def test_non_finite_created_at_rejected(self, tmp_path, created_at):
        with pytest.raises(ValidationError, match="created_at"):
            KnowledgeBase(tmp_path / "kb.jsonl").record(
                make_entry("x", LEGAL_PATH, 0.5, created_at=created_at))

    def test_path_that_cannot_be_opened_is_named(self, tmp_path):
        (tmp_path / "afile").write_text("")
        path = tmp_path / "afile" / "kb.jsonl"
        named = re.escape(f"knowledge base {path}: ")
        with pytest.raises(ValidationError, match=f"cannot read {named}"):
            KnowledgeBase(path).load()
        with pytest.raises(ValidationError, match=f"cannot append to {named}"):
            KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
        with pytest.raises(ValidationError, match=re.escape(f"{tmp_path}: Is a directory")):
            KnowledgeBase(tmp_path).load()

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
        assert header == {"kb_version": 2, "dim": 256}
        path.write_text(json.dumps({"kb_version": 99, "dim": 256}) + "\n")
        with pytest.raises(ValidationError, match="version"):
            KnowledgeBase(path).load()

    def test_dimension_mismatch_rejected_at_load(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(json.dumps({"kb_version": 2, "dim": 64}) + "\n"
                        + make_entry("x", LEGAL_PATH, 0.5).to_json() + "\n")
        with pytest.raises(ValidationError, match="64-dim"):
            KnowledgeBase(path).load()

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
            (None, 3),  # torn entry that a newline ends, so not a cut-short append
            (['{"kb_version": 1, "dim": 25'], 1),  # torn header
            (['{"kb_version": 1, "dim": 256}', "", '{"reward": 0.5}'], 3),
            (['{"kb_version": 1, "dim": 256}', "[1, 2]"], 2),
            (['{"kb_version": 2, "dim": 256}', json.dumps(
                {"profile_text": 7, "action_path": [], "reward": 0.5, "created_at": 0.0})], 2),
            (['{"kb_version": 2, "dim": 256}', _line(reward=True)], 2),
            (['{"kb_version": 2, "dim": 256}', _line(reward="0.5")], 2),
            (['{"kb_version": 2, "dim": 256}', _line(created_at=float("nan"))], 2),
            (['{"kb_version": 2, "dim": 256}', _line(created_at=float("inf"))], 2),
            (['{"kb_version": 2, "dim": 256}', _line(created_at=10**400)], 2),
            (['{"kb_version": 2, "dim": 256}', _line(), _line(action_path=[])], 3),
        ],
        ids=["torn_entry", "torn_header", "missing_keys", "not_an_object", "numeric_profile",
             "bool_reward", "string_reward", "nan_created_at", "infinite_created_at",
             "created_at_past_float_range", "empty_path"],
    )
    def test_undecodable_line_rejected_by_number(self, tmp_path, lines, bad_line):
        path = tmp_path / "kb.jsonl"
        if lines is None:
            KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
            with open(path, "a") as fh:
                fh.write('{"torn\n')
        else:
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"kb.jsonl:{bad_line} "):
            KnowledgeBase(path).load()


class TestStoreFormat:
    def test_entry_lines_hold_no_embedding(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5, created_at=1.0))
        header, line = path.read_text().splitlines()
        assert json.loads(line) == {
            "profile_text": "x", "action_path": list(LEGAL_PATH), "reward": 0.5,
            "created_at": 1.0,
        }

    def test_version_1_store_loads_with_bit_equal_embeddings(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        entries = _stored_entries(3, 200)
        stored = [[float(x) for x in reference_embed(e.profile_text)] for e in entries]
        path.write_text(
            "\n".join([json.dumps({"kb_version": 1, "dim": 256})]
                      + [_v1_line(e, v) for e, v in zip(entries, stored)]) + "\n"
        )
        loaded = KnowledgeBase(path).load()
        assert np.array(stored).tobytes() == embed([e.profile_text for e in loaded]).tobytes()
        assert [(e.profile_text, e.action_path, e.reward, e.created_at) for e in loaded] == [
            (e.profile_text, e.action_path, e.reward, e.created_at) for e in entries
        ]

    def test_version_1_stored_embedding_is_never_read(self, tmp_path):
        # a scalar where the vector was: version-1 lines keep loading regardless
        path = tmp_path / "kb.jsonl"
        entry = make_entry("x", LEGAL_PATH, 0.5, created_at=0.0)
        path.write_text(json.dumps({"kb_version": 1, "dim": 256}) + "\n"
                        + _v1_line(entry, 1.0) + "\n")
        assert KnowledgeBase(path).load() == [entry]

    def test_append_to_version_1_store_writes_a_version_2_line(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        old = make_entry("old task", LEGAL_PATH, 0.5, created_at=0.0)
        path.write_text(json.dumps({"kb_version": 1, "dim": 256}) + "\n"
                        + _v1_line(old, reference_embed(old.profile_text).tolist()) + "\n")
        KnowledgeBase(path).record(make_entry("new task", OTHER_PATH, 0.6))
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"kb_version": 1, "dim": 256}
        assert "embedding" not in json.loads(lines[2])
        assert [e.profile_text for e in KnowledgeBase(path).load()] == ["old task", "new task"]

    @pytest.mark.parametrize(
        "bad_path",
        [("backbone:resnet", "bogus:action"), LEGAL_PATH + ("debug",), ("paradigm:bogus",)],
        ids=["illegal_first_action", "debug_action", "unknown_paradigm"],
    )
    def test_illegal_action_path_rejected_at_load(self, tmp_path, bad_path):
        path = tmp_path / "kb.jsonl"
        KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
        doc = json.loads(make_entry("y", LEGAL_PATH, 0.5).to_json())
        doc["action_path"] = list(bad_path)
        with open(path, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        with pytest.raises(ValidationError, match=r"kb.jsonl:3 .*(not legal|debug)"):
            KnowledgeBase(path).load()

    def test_each_distinct_path_validated_once(self, tmp_path, monkeypatch):
        path = tmp_path / "kb.jsonl"
        entries = _stored_entries(4, 60)
        for entry in entries:
            KnowledgeBase(path).record(entry)
        checked = []
        real = knowledge.validate_action_path
        monkeypatch.setattr(knowledge, "validate_action_path",
                            lambda p: checked.append(p) or real(p))
        KnowledgeBase(path).load()
        assert sorted(checked) == sorted({e.action_path for e in entries})

    def test_digest_is_the_sha256_of_the_bytes_read(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        kb = KnowledgeBase(path)
        kb.load()
        assert kb.digest == hashlib.sha256(b"").hexdigest()
        kb.record(make_entry("x", LEGAL_PATH, 0.5))
        with open(path, "a") as fh:
            fh.write('{"torn')
        kb.load()
        assert kb.digest == hashlib.sha256(path.read_bytes()).hexdigest()


class TestTornTail:
    """A final line without a newline is an append that never finished."""

    def test_load_ignores_it(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
        whole = make_entry("y", OTHER_PATH, 0.6).to_json()
        with open(path, "a") as fh:
            fh.write(whole)  # complete JSON, but the newline never came
        assert [e.profile_text for e in KnowledgeBase(path).load()] == ["x"]

    def test_a_character_cut_in_half_is_ignored_but_bad_bytes_are_not(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
        intact = path.read_bytes()
        path.write_bytes(intact + '{"profile_text": "é'.encode()[:-1])
        assert len(KnowledgeBase(path).load()) == 1
        path.write_bytes(intact + b'{"profile_text": "\xff"}\n')
        with pytest.raises(ValidationError, match="kb.jsonl:3 is not valid UTF-8"):
            KnowledgeBase(path).load()

    @pytest.mark.parametrize(
        "before, torn",
        [(1, '{"torn'), (2, make_entry("y", OTHER_PATH, 0.6).to_json()[:40]),
         (0, '{"kb_version": 2, "di'), (0, "")],
        ids=["after_one_entry", "half_an_entry", "torn_header", "nothing"],
    )
    def test_record_cuts_it_off_then_appends(self, tmp_path, before, torn):
        path = tmp_path / "kb.jsonl"
        for i in range(before):
            KnowledgeBase(path).record(make_entry(f"e{i}", LEGAL_PATH, 0.5))
        intact = path.read_bytes() if path.exists() else b""
        with open(path, "a") as fh:
            fh.write(torn)
        KnowledgeBase(path).record(make_entry("next", OTHER_PATH, 0.7))
        data = path.read_bytes()
        assert data.startswith(intact) and data.endswith(b"\n")
        assert json.loads(data.splitlines()[0]) == {"kb_version": 2, "dim": 256}
        texts = [e.profile_text for e in KnowledgeBase(path).load()]
        assert texts == [f"e{i}" for i in range(before)] + ["next"]

    def test_record_syncs_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "kb.jsonl"
        synced = []
        real = knowledge.os.fsync
        monkeypatch.setattr(knowledge.os, "fsync", lambda fd: synced.append(fd) or real(fd))
        KnowledgeBase(path).record(make_entry("x", LEGAL_PATH, 0.5))
        assert len(synced) == 1


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
