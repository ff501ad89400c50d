"""Persistent task memory and retrieval-based warm starting.

Each entry holds a task profile text, the action path of a previously
successful pipeline, its reward and its creation time. Retrieval embeds
the query and each distinct profile text once, in one batch, filters by
raw cosine similarity, ranks the survivors by a composite weight mixing
normalized similarity with normalized reward, and gates between
warm-start (inject the top path) and ab-initio search on the peak
similarity. A store that repeated searches of one task wrote holds few
distinct texts, however many lines it has.

The store is an append-only JSON-lines file under a version header
``{"kb_version": 2, "dim": 256}``. Its lines keep only what cannot be
derived: the embedding is a pure function of the profile text, so lines
hold none, and only ``retrieve`` computes it. Version-1 stores (whose
lines also held the embedding) still load; their stored vectors are never
read, as the same function produced them, and appends to them are
version-2 lines.

A final line without a trailing newline is an append that was cut short
(or one still being written): ``load`` ignores it, and ``record`` truncates
it under the lock before it appends. Any other line that breaks a rule of
``_parse_line``, and a header of another version or dimension, is rejected
at load with its ``path:line``; ``record`` checks the line it would append
against the same rules. A store that cannot be read or appended to is
rejected with its path. Each line is read by the JSON decoder's C scanner;
only a line it does not read whole goes through ``json.loads``, so the
lines accepted and the errors raised are ``json.loads``'s.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from .actions import validate_action_path
from .errors import ParameterError, RetrievalParams, ValidationError

KB_VERSION = 2
_READABLE_VERSIONS = (1, 2)
EMBED_DIM = 256
_NUMBER_TYPES = (int, float)
_FLOAT_MAX = sys.float_info.max
# the decoder ``json.loads`` uses, without its whitespace and BOM handling
_scan_once = json.JSONDecoder().scan_once

# every byte but a-z and 0-9 becomes a space, which ends a token
_TOKEN_TABLE = bytes(
    c if c in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for c in range(256)
)


def embed(texts) -> np.ndarray:
    """Embed each text into one row of an ``(len(texts), EMBED_DIM)`` matrix.

    A deterministic token-hash term-frequency embedding, fully offline: a
    token is a run of ``a-z0-9`` in the lowercased text, each distinct
    token is hashed once (sha256, stable across platforms and processes)
    into a bucket, and each row is L2-normalized. Case and repeated
    whitespace never change a row. The counts are integers, so the rows do
    not depend on which texts share the batch.

    A repeated text is tokenized again: ``retrieve`` passes distinct texts.
    Tokenizing runs in C: the lowercased text is encoded as UTF-8, a
    256-byte table turns every byte but ``a-z0-9`` into a space, and
    ``bytes.split`` cuts the runs. This equals
    ``re.findall("[a-z0-9]+", text.lower())``, as every other code point,
    a lone surrogate included (hence ``surrogatepass``), encodes to bytes
    of 0x80 and above.
    """
    tokens = [
        text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_TABLE).split()
        for text in texts
    ]
    cols = np.fromiter(map(_Buckets().__getitem__, chain.from_iterable(tokens)), dtype=np.int64)
    rows = np.repeat(np.arange(len(tokens)), list(map(len, tokens)))
    counts = np.bincount(rows * EMBED_DIM + cols, minlength=len(tokens) * EMBED_DIM)
    vecs = counts.reshape(len(tokens), EMBED_DIM).astype(np.float64)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    np.divide(vecs, norms, out=vecs, where=norms > 0)
    return vecs


class _Buckets(dict):
    """Token to bucket; a token is hashed when first looked up, so once."""

    def __missing__(self, token: bytes) -> int:
        self[token] = bucket = int.from_bytes(hashlib.sha256(token).digest()[:8], "big") % EMBED_DIM
        return bucket


def _first_seen(items) -> tuple[list, list[int]]:
    """The distinct items in first-seen order, and each item's index into them."""
    index: dict = {}
    inverse = [index.setdefault(item, len(index)) for item in items]
    return list(index), inverse


@dataclass(frozen=True)
class KnowledgeEntry:
    profile_text: str
    action_path: tuple[str, ...]
    reward: float
    created_at: float

    def __post_init__(self):
        object.__setattr__(self, "action_path", tuple(self.action_path))

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
class RetrievalResult:
    rho: float  # max similarity over all entries; -inf on an empty store
    mode: str  # "warm_start" | "ab_initio"
    ranked: tuple[tuple[KnowledgeEntry, float, float], ...]  # (entry, s_k, w_k)
    epsilon0: tuple[str, ...] | None


def composite_weight(
    s_k: float | np.ndarray,
    r_k: float | np.ndarray,
    r_min: float,
    r_max: float,
    tau_filter: float = RetrievalParams.tau_filter,
    alpha_retrieval: float = RetrievalParams.alpha_retrieval,
) -> float | np.ndarray:
    """Mix normalized similarity and normalized reward into a ranking weight.

    ``s_k`` and ``r_k`` are floats or arrays of one shape; each weight
    takes the same float operations either way. With a degenerate reward
    range (r_max == r_min) the normalized reward term is defined as 1.0: a
    uniform-reward candidate set should not be penalized by an arbitrary
    zero.
    """
    if np.min(s_k) <= tau_filter:
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
    """Embed the query and every distinct stored profile in one batch, then ``rank``."""
    distinct, inverse = _first_seen([query_text, *(e.profile_text for e in entries)])
    vecs = embed(distinct)
    query = vecs[0]
    # one dot per distinct text: a single matrix-vector product sums in
    # another order and moves some similarities by an ulp
    sims = np.clip([np.dot(query, row) for row in vecs], -1.0, 1.0)
    return rank(entries, sims[inverse[1:]], params)


def rank(entries: list[KnowledgeEntry], sims, params: RetrievalParams) -> RetrievalResult:
    """Rank stored tasks by their query similarities and gate warm-start vs ab-initio."""
    sims = np.asarray(sims, dtype=np.float64)
    rho = float(sims.max()) if len(sims) else float("-inf")
    survivors = np.flatnonzero(sims > params.tau_filter)
    if rho <= params.tau or not len(survivors):
        return RetrievalResult(rho=rho, mode="ab_initio", ranked=(), epsilon0=None)
    rewards, created = (
        np.fromiter(map(attrgetter(name), entries), np.float64, len(entries))[survivors]
        for name in ("reward", "created_at")
    )
    weights = composite_weight(
        sims[survivors], rewards, rewards.min(), rewards.max(),
        params.tau_filter, params.alpha_retrieval,
    )
    # weight descending; equal weights break toward the newer entry, then
    # keep store order
    top = np.lexsort((-created, -weights))[: params.m]
    ranked = tuple(
        (entries[i], s, w)
        for i, s, w in zip(
            survivors[top].tolist(), sims[survivors[top]].tolist(), weights[top].tolist()
        )
    )
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

        A line that ``_parse_line`` refuses is rejected by number; a final
        line without a newline is ignored. Sets ``digest`` to the sha256 of
        the file's bytes (of no bytes when the file does not exist).
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
        lines = [
            (i, ln) for i, ln in enumerate(content.split("\n")[:-1], start=1)
            if ln and not ln.isspace()  # ln.strip(), without the copy
        ]
        if not lines:
            return []
        self._check_header(*lines[0])
        entries = []
        legal_paths: set[tuple] = set()
        for i, line in lines[1:]:
            try:
                entries.append(_parse_line(line, legal_paths))
            except ValidationError as exc:
                raise ValidationError(f"{self.path}:{i} {exc}") from None
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
        """Durably append one entry, refusing one whose line ``load`` would refuse.

        A refused entry leaves the store untouched; any OSError of the
        append is raised as a ``ValidationError`` naming the store.
        """
        try:
            line = entry.to_json()
        except (TypeError, ValueError, RecursionError) as exc:
            raise ValidationError(f"entry cannot be stored as JSON: {exc}") from None
        _parse_line(line, set())
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # closing the only descriptor releases the lock, after the fsync
            with open(self.path, "ab+") as fh:
                _flock(fh)
                # decided under the lock: a torn tail is cut off, and only the
                # first writer adds a header
                size = os.fstat(fh.fileno()).st_size
                complete = _complete_length(fh, size)
                if complete < size:
                    fh.truncate(complete)
                text = line + "\n"
                if complete == 0:
                    text = json.dumps({"kb_version": KB_VERSION, "dim": EMBED_DIM}) + "\n" + text
                fh.write(text.encode())
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise ValidationError(
                f"cannot append to knowledge base {self.path}: {exc.strerror or exc}"
            ) from None


def _parse_line(line: str, legal_paths: set[tuple]) -> KnowledgeEntry:
    """The entry a stored line holds; ``ValidationError`` names the rule it breaks.

    A line is a JSON object whose ``profile_text`` is a string, whose
    ``action_path`` is a list of names forming a hierarchy-legal path
    without debug actions, whose ``reward`` is a JSON number in [0, 1] and
    whose ``created_at`` is a finite JSON number (``true`` and ``"0.5"``
    are not numbers). ``legal_paths`` holds the paths already found legal,
    so each distinct path is checked once.
    """
    try:
        doc = _decode(line)
        text, path = doc["profile_text"], doc["action_path"]
        reward, created_at = doc["reward"], doc["created_at"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValidationError(f"is not a valid knowledge-base line: {exc}") from None
    if type(text) is not str:
        raise ValidationError(f"profile_text is a {type(text).__name__}, not a string")
    if type(path) is not list:
        raise ValidationError(f"action_path {path!r} is not a list of names")
    key = tuple(path)
    try:
        known = key in legal_paths  # so its actions are names
    except TypeError:  # an array or object among them
        known = False
    if not known and any(type(action) is not str for action in path):
        raise ValidationError(f"action_path {path!r} is not a list of names")
    if type(reward) not in _NUMBER_TYPES or type(created_at) not in _NUMBER_TYPES:
        raise ValidationError("reward and created_at must be JSON numbers")  # bool and str too
    if not (abs(created_at) <= _FLOAT_MAX):  # NaN, the infinities and larger integers
        raise ValidationError(f"created_at {created_at} is not finite")
    if not known:
        validate_action_path(key)
        legal_paths.add(key)
    if not 0.0 <= reward <= 1.0:
        raise ValidationError(f"entry reward {reward} outside [0, 1]")
    # the fields are checked and of their final types, so __init__'s
    # per-field setattr and __post_init__'s tuple() are skipped
    entry = object.__new__(KnowledgeEntry)
    entry.__dict__.update(
        profile_text=text, action_path=key, reward=float(reward), created_at=float(created_at)
    )
    return entry


def _decode(line: str):
    """``json.loads(line)``, by the C scanner alone when one value spans the line.

    Any other line (whitespace around the value, a BOM, trailing data, an
    error) goes to ``json.loads``, which accepts or refuses it as it
    always did, with the same error.
    """
    try:
        doc, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(line)
    return doc if end == len(line) else json.loads(line)


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
