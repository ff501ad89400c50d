"""Persistent task memory and retrieval-based warm starting.

Each entry stores a task profile embedding, the action path of a previously
successful pipeline, and its reward. Retrieval embeds the query, filters by
raw cosine similarity, ranks the survivors by a composite weight mixing
normalized similarity with normalized reward, and gates between warm-start
(inject the top path) and ab-initio search on the peak similarity.

The store is an append-only JSON-lines file with a version header; a
mismatched embedding dimension or a line that does not decode (a torn
write, a hand edit) is rejected at load with its ``path:line``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from .actions import validate_action_path
from .errors import ParameterError, ValidationError

KB_VERSION = 1
DEFAULT_EMBED_DIM = 256

DEFAULT_TAU_FILTER = 0.3
DEFAULT_TOP_M = 3
DEFAULT_ALPHA_RETRIEVAL = 0.5
# minimum peak similarity before a stored path is trusted as a warm start;
# configurable, surfaced in docs because no single value suits every corpus
DEFAULT_TAU = 0.5

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class HashEmbedder:
    """Deterministic token-hash term-frequency embedder.

    Fully offline: text is lowercased, split on non-alphanumerics, each
    token is hashed (sha256, stable across platforms and processes) into a
    fixed-dimension bucket, and the term-frequency vector is L2-normalized.
    Repeated whitespace and case never change the embedding.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM):
        if dim < 1:
            raise ParameterError(f"embedding dimension must be >= 1, got {dim}")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in _TOKEN_RE.findall(text.lower()):
            digest = hashlib.sha256(token.encode()).digest()
            bucket = int.from_bytes(digest[:8], "big") % self.dim
            vec[bucket] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


@dataclass(frozen=True)
class KnowledgeEntry:
    profile_text: str
    embedding: np.ndarray
    action_path: tuple[str, ...]
    reward: float
    created_at: float

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=np.float64)
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)
        object.__setattr__(self, "action_path", tuple(self.action_path))

    def validate(self) -> None:
        norm = np.linalg.norm(self.embedding)
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(
                f"entry embedding must have unit norm, got {norm:.12f}"
            )
        if not (0.0 <= self.reward <= 1.0):
            raise ValidationError(f"entry reward {self.reward} outside [0, 1]")
        validate_action_path(self.action_path)

    def to_json(self) -> str:
        return json.dumps(
            {
                "profile_text": self.profile_text,
                "embedding": [float(x) for x in self.embedding],
                "action_path": list(self.action_path),
                "reward": self.reward,
                "created_at": self.created_at,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "KnowledgeEntry":
        doc = json.loads(line)
        return cls(
            profile_text=doc["profile_text"],
            embedding=np.array(doc["embedding"], dtype=np.float64),
            action_path=tuple(doc["action_path"]),
            reward=float(doc["reward"]),
            created_at=float(doc["created_at"]),
        )


@dataclass(frozen=True)
class RetrievalParams:
    tau_filter: float = DEFAULT_TAU_FILTER
    m: int = DEFAULT_TOP_M
    alpha_retrieval: float = DEFAULT_ALPHA_RETRIEVAL
    tau: float = DEFAULT_TAU


@dataclass(frozen=True)
class RetrievalResult:
    rho: float  # max similarity over all entries; -inf on an empty store
    mode: str  # "warm_start" | "ab_initio"
    ranked: tuple[tuple[KnowledgeEntry, float, float], ...]  # (entry, s_k, w_k)
    epsilon0: tuple[str, ...] | None


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.clip(np.dot(a, b), -1.0, 1.0))


def composite_weight(
    s_k: float,
    r_k: float,
    r_min: float,
    r_max: float,
    tau_filter: float = DEFAULT_TAU_FILTER,
    alpha_retrieval: float = DEFAULT_ALPHA_RETRIEVAL,
) -> float:
    """Mix normalized similarity and normalized reward into a ranking weight.

    With a degenerate reward range (r_max == r_min) the normalized reward
    term is defined as 1.0: a uniform-reward candidate set should not be
    penalized by an arbitrary zero.
    """
    if s_k <= tau_filter:
        raise ParameterError(
            f"similarity {s_k} must exceed tau_filter {tau_filter}; filter first"
        )
    norm_sim = (s_k - tau_filter) / (1.0 - tau_filter)
    if r_max == r_min:
        norm_reward = 1.0
    else:
        norm_reward = (r_k - r_min) / (r_max - r_min)
    return alpha_retrieval * norm_sim + (1.0 - alpha_retrieval) * norm_reward


def retrieve(
    query_text: str,
    entries: list[KnowledgeEntry],
    params: RetrievalParams = RetrievalParams(),
    embedder: HashEmbedder | None = None,
) -> RetrievalResult:
    """Rank stored tasks against a query and gate warm-start vs ab-initio."""
    embedder = embedder or HashEmbedder()
    if not entries:
        return RetrievalResult(
            rho=float("-inf"), mode="ab_initio", ranked=(), epsilon0=None
        )
    query = embedder.embed(query_text)
    sims = [cosine_similarity(query, e.embedding) for e in entries]
    rho = max(sims)
    survivors = [
        (e, s) for e, s in zip(entries, sims) if s > params.tau_filter
    ]
    if rho <= params.tau or not survivors:
        return RetrievalResult(rho=rho, mode="ab_initio", ranked=(), epsilon0=None)
    rewards = [e.reward for e, _ in survivors]
    r_min, r_max = min(rewards), max(rewards)
    weighted = [
        (e, s, composite_weight(s, e.reward, r_min, r_max, params.tau_filter, params.alpha_retrieval))
        for e, s in survivors
    ]
    # weight descending; equal weights break toward the newer entry
    weighted.sort(key=lambda item: (-item[2], -item[0].created_at))
    ranked = tuple(weighted[: params.m])
    return RetrievalResult(
        rho=rho,
        mode="warm_start",
        ranked=ranked,
        epsilon0=ranked[0][0].action_path,
    )


class KnowledgeBase:
    """Append-only JSONL store of knowledge entries."""

    def __init__(self, path, dim: int = DEFAULT_EMBED_DIM):
        from pathlib import Path

        self.path = Path(path)
        self.dim = dim

    def load(self) -> list[KnowledgeEntry]:
        """Read every entry; a line that does not decode is rejected by number."""
        if not self.path.exists():
            return []
        lines = [
            (i, ln) for i, ln in enumerate(self.path.read_text().splitlines(), start=1)
            if ln.strip()
        ]
        if not lines:
            return []
        header = self._decode(*lines[0], json.loads)
        version = header.get("kb_version") if isinstance(header, dict) else None
        if version != KB_VERSION:
            raise ValidationError(
                f"knowledge base {self.path} has version "
                f"{version!r}, expected {KB_VERSION}"
            )
        stored_dim = header.get("dim", self.dim)
        if stored_dim != self.dim:
            raise ValidationError(
                f"knowledge base {self.path} stores {stored_dim}-dim embeddings, "
                f"reader expects {self.dim}"
            )
        entries = []
        for i, line in lines[1:]:
            entry = self._decode(i, line, KnowledgeEntry.from_json)
            if entry.embedding.shape != (self.dim,):
                raise ValidationError(
                    f"{self.path}:{i} entry has embedding shape "
                    f"{entry.embedding.shape}, expected ({self.dim},)"
                )
            entries.append(entry)
        return entries

    def _decode(self, lineno: int, line: str, parse):
        try:
            return parse(line)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(
                f"{self.path}:{lineno} is not a valid knowledge-base line: {exc}"
            ) from None

    def record(self, entry: KnowledgeEntry) -> None:
        """Validate and durably append one entry."""
        entry.validate()
        if entry.embedding.shape != (self.dim,):
            raise ValidationError(
                f"entry embedding dimension {entry.embedding.shape[0]} "
                f"does not match store dimension {self.dim}"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            _flock(fh)
            try:
                # decided under the lock, so only the first writer adds a header
                if os.fstat(fh.fileno()).st_size == 0:
                    fh.write(
                        json.dumps({"kb_version": KB_VERSION, "dim": self.dim}) + "\n"
                    )
                fh.write(entry.to_json() + "\n")
                fh.flush()
            finally:
                _funlock(fh)


def _flock(fh) -> None:
    try:
        import fcntl

        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
    except (ImportError, OSError):
        pass


def _funlock(fh) -> None:
    try:
        import fcntl

        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    except (ImportError, OSError):
        pass


def make_entry(
    profile_text: str,
    action_path: tuple[str, ...],
    reward: float,
    embedder: HashEmbedder | None = None,
    created_at: float | None = None,
) -> KnowledgeEntry:
    embedder = embedder or HashEmbedder()
    return KnowledgeEntry(
        profile_text=profile_text,
        embedding=embedder.embed(profile_text),
        action_path=action_path,
        reward=reward,
        created_at=time.time() if created_at is None else created_at,
    )
