"""Persistent task memory and retrieval-based warm starting.

Each entry holds a task profile text, the action path of a previously
successful pipeline, its reward and its creation time. Retrieval embeds
the query and every profile in one batch, filters by raw cosine
similarity, ranks the survivors by a composite weight mixing normalized
similarity with normalized reward, and gates between warm-start (inject
the top path) and ab-initio search on the peak similarity.

The store is an append-only JSON-lines file under a version header
``{"kb_version": 2, "dim": 256}``. Its lines keep only what cannot be
derived: the embedding is a pure function of the profile text, so lines
hold none, and only ``retrieve`` computes it. Version-1 stores (whose
lines also held the embedding) still load; their stored vectors are never
read, as the same function produced them, and appends to them are
version-2 lines.

A final line without a trailing newline is an append that was cut short
(or one still being written): ``load`` ignores it, and ``record`` truncates
it under the lock before it appends. Any other line that does not decode,
holds an empty or illegal action path, a reward or creation time that is
not a finite number or a reward outside [0, 1], and a header of another
version or dimension, is rejected at load with its ``path:line``. A store
that cannot be opened is rejected with its path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .actions import validate_action_path
from .errors import ParameterError, ValidationError

KB_VERSION = 2
_READABLE_VERSIONS = (1, 2)
EMBED_DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def embed(texts) -> np.ndarray:
    """Embed each text into one row of an ``(len(texts), EMBED_DIM)`` matrix.

    A deterministic token-hash term-frequency embedding, fully offline:
    text is lowercased and split on non-alphanumerics, each distinct token
    is hashed once (sha256, stable across platforms and processes) into a
    bucket, and each row is L2-normalized. Case and repeated whitespace
    never change a row. The counts are integers, so the rows do not depend
    on which texts share the batch.
    """
    tokens = [_TOKEN_RE.findall(text.lower()) for text in texts]
    bucket = {
        token: int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big") % EMBED_DIM
        for token in set(chain.from_iterable(tokens))
    }
    cols = np.fromiter((bucket[t] for row in tokens for t in row), dtype=np.int64)
    rows = np.repeat(np.arange(len(tokens)), [len(row) for row in tokens])
    counts = np.bincount(rows * EMBED_DIM + cols, minlength=len(tokens) * EMBED_DIM)
    vecs = counts.reshape(len(tokens), EMBED_DIM).astype(np.float64)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    np.divide(vecs, norms, out=vecs, where=norms > 0)
    return vecs


@dataclass(frozen=True)
class KnowledgeEntry:
    profile_text: str
    action_path: tuple[str, ...]
    reward: float
    created_at: float

    def __post_init__(self):
        object.__setattr__(self, "action_path", tuple(self.action_path))

    def validate(self) -> None:
        if not (0.0 <= self.reward <= 1.0):
            raise ValidationError(f"entry reward {self.reward} outside [0, 1]")
        if not math.isfinite(self.created_at):
            raise ValidationError(f"entry created_at {self.created_at} is not finite")
        validate_action_path(self.action_path)

    def to_json(self) -> str:
        """The stored line."""
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
) -> RetrievalResult:
    """Embed the query and every stored profile in one batch, then ``rank``."""
    query, *rows = embed([query_text, *(e.profile_text for e in entries)])
    # one dot per entry: a single matrix-vector product sums in another order
    # and moves some similarities by an ulp
    sims = np.clip([np.dot(query, row) for row in rows], -1.0, 1.0).tolist()
    return rank(entries, sims, params)


def rank(
    entries: list[KnowledgeEntry], sims: list[float], params: RetrievalParams
) -> RetrievalResult:
    """Rank stored tasks by their query similarities and gate warm-start vs ab-initio."""
    rho = max(sims, default=float("-inf"))
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

    def __init__(self, path):
        self.path = Path(path)
        self.digest: str | None = None  # sha256 of the bytes the last load read

    def load(self) -> list[KnowledgeEntry]:
        """Read every complete line.

        A line that does not decode, names an empty or illegal action path,
        a reward outside [0, 1] or a creation time that is not a finite
        number is rejected by number; a final line without a newline is
        ignored. Sets ``digest`` to the sha256 of the file's bytes (of no
        bytes when the file does not exist).
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        except OSError as exc:
            raise ValidationError(
                f"cannot read knowledge base {self.path}: {exc.strerror}"
            ) from None
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
        entries = []
        legal_paths: set[tuple] = set()
        for i, line in lines[1:]:
            try:
                doc = json.loads(line)
                text, path = doc["profile_text"], tuple(doc["action_path"])
                reward, created_at = doc["reward"], doc["created_at"]
                if not isinstance(text, str):
                    raise TypeError(f"profile_text is a {type(text).__name__}, not a string")
                if {type(reward), type(created_at)} - {int, float}:  # bool and str included
                    raise TypeError("reward and created_at must be JSON numbers")
                if not math.isfinite(created_at):  # OverflowError past the float range
                    raise ValueError(f"created_at {created_at} is not finite")
                if path not in legal_paths:
                    validate_action_path(path)
                    legal_paths.add(path)
            except (ValueError, KeyError, TypeError, OverflowError, ValidationError,
                    RecursionError) as exc:
                raise ValidationError(
                    f"{self.path}:{i} is not a valid knowledge-base line: {exc}"
                ) from None
            if not 0.0 <= reward <= 1.0:
                raise ValidationError(f"{self.path}:{i} entry reward {reward} outside [0, 1]")
            entries.append(KnowledgeEntry(text, path, float(reward), float(created_at)))
        return entries

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
        stored_dim = header.get("dim", EMBED_DIM)
        if stored_dim != EMBED_DIM:
            raise ValidationError(
                f"knowledge base {self.path} stores {stored_dim}-dim embeddings, "
                f"reader expects {EMBED_DIM}"
            )

    def record(self, entry: KnowledgeEntry) -> None:
        """Validate and durably append one entry."""
        entry.validate()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(self.path, "ab+")
        except OSError as exc:
            raise ValidationError(
                f"cannot append to knowledge base {self.path}: {exc.strerror}"
            ) from None
        with fh:
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
                    text = json.dumps({"kb_version": KB_VERSION, "dim": EMBED_DIM}) + "\n" + text
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
    created_at: float | None = None,
) -> KnowledgeEntry:
    return KnowledgeEntry(
        profile_text=profile_text,
        action_path=action_path,
        reward=reward,
        created_at=time.time() if created_at is None else created_at,
    )
