"""Persistent task memory and retrieval-based warm starting.

Each entry holds a task profile text, its embedding, the action path of a
previously successful pipeline, and its reward. Retrieval embeds the query,
filters by raw cosine similarity, ranks the survivors by a composite weight
mixing normalized similarity with normalized reward, and gates between
warm-start (inject the top path) and ab-initio search on the peak
similarity.

The store is an append-only JSON-lines file under a version header
``{"kb_version": 2, "dim": d}``. Its lines keep only what cannot be
derived: the embedding is a pure function of the profile text, so lines
hold none, and ``load`` embeds every profile in one batch. Version-1 stores
(whose lines also held the embedding) still load; their stored vectors are
never read, as the same function produced them, and appends to them are
version-2 lines.

A final line without a trailing newline is an append that was cut short
(or one still being written): ``load`` ignores it, and ``record`` truncates
it under the lock before it appends. Any other line that does not decode,
holds an illegal action path or a reward outside [0, 1], and a header of
another version or dimension, is rejected at load with its ``path:line``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .actions import validate_action_path
from .errors import ParameterError, ValidationError

KB_VERSION = 2
_READABLE_VERSIONS = (1, 2)
DEFAULT_EMBED_DIM = 256

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
        return self.embed_many([text])[0]

    def embed_many(self, texts) -> np.ndarray:
        """Embed each text into one row of an ``(len(texts), dim)`` matrix.

        Each distinct token is hashed once. The counts are integers, so the
        rows do not depend on which texts share the batch.
        """
        tokens = [_TOKEN_RE.findall(text.lower()) for text in texts]
        bucket = {
            token: int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big") % self.dim
            for token in set(chain.from_iterable(tokens))
        }
        cols = np.fromiter((bucket[t] for row in tokens for t in row), dtype=np.int64)
        rows = np.repeat(np.arange(len(tokens)), [len(row) for row in tokens])
        counts = np.bincount(rows * self.dim + cols, minlength=len(tokens) * self.dim)
        vecs = counts.reshape(len(tokens), self.dim).astype(np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        np.divide(vecs, norms, out=vecs, where=norms > 0)
        return vecs


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
        """The stored line: everything but the embedding, which load derives."""
        return json.dumps(
            {
                "profile_text": self.profile_text,
                "action_path": list(self.action_path),
                "reward": self.reward,
                "created_at": self.created_at,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class RetrievalParams:
    tau_filter: float = 0.3
    m: int = 3
    alpha_retrieval: float = 0.5
    # minimum peak similarity before a stored path is trusted as a warm start;
    # configurable, surfaced in docs because no single value suits every corpus
    tau: float = 0.5

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")


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
    tau_filter: float = RetrievalParams.tau_filter,
    alpha_retrieval: float = RetrievalParams.alpha_retrieval,
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
    bad = next((e for e in entries if e.embedding.shape != query.shape), None)
    if bad is not None:
        raise ParameterError(
            f"dimension mismatch: {query.shape} vs {bad.embedding.shape}"
        )
    # one dot per entry, as cosine_similarity takes it: a single matrix-vector
    # product sums in another order and moves some similarities by an ulp
    sims = np.clip([np.dot(query, e.embedding) for e in entries], -1.0, 1.0).tolist()
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
        self.digest: str | None = None  # sha256 of the bytes the last load read

    def load(self) -> list[KnowledgeEntry]:
        """Read every complete line and embed the profiles in one batch.

        A line that does not decode, names an illegal action path or a
        reward outside [0, 1] is rejected by number; a final line without a
        newline is ignored. Sets ``digest`` to the sha256 of the file's
        bytes (of no bytes when the file does not exist).
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        self.digest = hashlib.sha256(data).hexdigest()
        # past the last newline lies a torn append, or one still being written
        end = data.rfind(b"\n") + 1
        try:
            content = data[:end].decode()
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ValidationError(f"{self.path}:{lineno} is not valid UTF-8: {exc}") from None
        lines = [(i, ln) for i, ln in enumerate(content.split("\n")[:-1], start=1) if ln.strip()]
        if not lines:
            return []
        self._check_header(*lines[0])
        fields = []
        legal_paths: set[tuple] = set()
        for i, line in lines[1:]:
            try:
                doc = json.loads(line)
                text, path = doc["profile_text"], tuple(doc["action_path"])
                reward, created_at = float(doc["reward"]), float(doc["created_at"])
                if not isinstance(text, str):
                    raise TypeError(f"profile_text is a {type(text).__name__}, not a string")
                if path not in legal_paths:
                    validate_action_path(path)
                    legal_paths.add(path)
            except (ValueError, KeyError, TypeError, ValidationError, RecursionError) as exc:
                raise ValidationError(
                    f"{self.path}:{i} is not a valid knowledge-base line: {exc}"
                ) from None
            if not 0.0 <= reward <= 1.0:
                raise ValidationError(f"{self.path}:{i} entry reward {reward} outside [0, 1]")
            fields.append((text, path, reward, created_at))
        embeddings = HashEmbedder(self.dim).embed_many([f[0] for f in fields])
        return [
            KnowledgeEntry(text, emb, path, reward, created_at)
            for (text, path, reward, created_at), emb in zip(fields, embeddings)
        ]

    def _check_header(self, lineno: int, line: str) -> None:
        try:
            header = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(
                f"{self.path}:{lineno} is not a valid knowledge-base line: {exc}"
            ) from None
        version = header.get("kb_version") if isinstance(header, dict) else None
        if version not in _READABLE_VERSIONS:
            raise ValidationError(
                f"knowledge base {self.path} has version "
                f"{version!r}, expected one of {list(_READABLE_VERSIONS)}"
            )
        stored_dim = header.get("dim", self.dim)
        if stored_dim != self.dim:
            raise ValidationError(
                f"knowledge base {self.path} stores {stored_dim}-dim embeddings, "
                f"reader expects {self.dim}"
            )

    def record(self, entry: KnowledgeEntry) -> None:
        """Validate and durably append one entry."""
        entry.validate()
        if entry.embedding.shape != (self.dim,):
            raise ValidationError(
                f"entry embedding dimension {entry.embedding.shape[0]} "
                f"does not match store dimension {self.dim}"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab+") as fh:
            _flock(fh)
            try:
                # decided under the lock: a torn tail is cut off, and only the
                # first writer adds a header
                size = os.fstat(fh.fileno()).st_size
                complete = _complete_length(fh, size)
                if complete < size:
                    fh.truncate(complete)
                text = entry.to_json() + "\n"
                if complete == 0:
                    text = json.dumps({"kb_version": KB_VERSION, "dim": self.dim}) + "\n" + text
                fh.write(text.encode())
                fh.flush()
                os.fsync(fh.fileno())
            finally:
                _funlock(fh)


def _complete_length(fh, size: int) -> int:
    """Bytes of the file up to and including its last newline."""
    if size == 0:
        return 0
    fh.seek(size - 1)
    if fh.read(1) == b"\n":
        return size
    fh.seek(0)
    return fh.read(size).rfind(b"\n") + 1


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
