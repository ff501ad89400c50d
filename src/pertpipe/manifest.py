"""Run manifests and layered configuration.

Every artifact-producing command writes one manifest recording the resolved
configuration, command-line options, input digests, seed, and outcome, so a
run can be reproduced from its manifest alone. Run ids are content-addressed
over (config, options, input digests, seed), so runs that differ in any of
them get different ids and accidental duplicate runs are detectable.

Configuration precedence, lowest to highest: built-in defaults, config
file (flat ``section.key=value`` lines), command-line overrides.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .bundle import RUN_MANIFEST, write_text_atomic
from .errors import ParameterError, RetrievalParams, SearchConfig

# config key -> field of the dataclass that holds the key's default and range check;
# the seed is set by each run, not by config
_SEARCH_FIELDS, _RETRIEVAL_FIELDS = (
    {f"{section}.{f.name.lower()}": f for f in fields(cls) if f.name != "seed"}
    for section, cls in (("search", SearchConfig), ("retrieval", RetrievalParams))
)

CONFIG_DEFAULTS: dict[str, float | int | str] = {
    **{key: f.default for key, f in (_SEARCH_FIELDS | _RETRIEVAL_FIELDS).items()},
    "split.kind": "unseen_perturbation",
    "split.train_frac": 0.8,
    "unify.sample_size": 8,
    "unify.combo_delimiter": "+",
    "unify.model": "default-model",
}


def to_search_config(config: dict, seed: int = 0) -> SearchConfig:
    """The ``search.*`` settings of a resolved config, for a run with ``seed``."""
    return SearchConfig(**{f.name: config[key] for key, f in _SEARCH_FIELDS.items()}, seed=seed)


def to_retrieval_params(config: dict) -> RetrievalParams:
    """The ``retrieval.*`` settings of a resolved config."""
    return RetrievalParams(**{f.name: config[key] for key, f in _RETRIEVAL_FIELDS.items()})


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key=value`` lines; '#' starts a comment, blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path} is not UTF-8 text: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> dict[str, float | int | str]:
    """Apply precedence, coerce values to their declared types and check their ranges."""
    resolved = dict(CONFIG_DEFAULTS)
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if key not in CONFIG_DEFAULTS:
                raise ParameterError(f"unknown config key {key!r}")
            resolved[key] = _coerce(key, value)
    to_search_config(resolved)
    to_retrieval_params(resolved)
    kind, frac = resolved["split.kind"], resolved["split.train_frac"]
    size = resolved["unify.sample_size"]
    if kind not in ("unseen_perturbation", "unseen_cell"):
        raise ParameterError(f"unknown split.kind {kind!r}")
    if not 0 < frac < 1:
        raise ParameterError(f"split.train_frac must be in (0, 1), got {frac}")
    if size < 1:
        raise ParameterError(f"unify.sample_size must be >= 1, got {size}")
    if not resolved["unify.combo_delimiter"]:
        raise ParameterError("unify.combo_delimiter must not be empty")
    return resolved


def _coerce(key: str, value):
    """``value`` as the type of the key's default; a float must be finite."""
    kind = type(CONFIG_DEFAULTS[key])
    try:
        typed = kind(value)
    except (ValueError, TypeError, OverflowError):
        typed = None
    if typed is None or (kind is float and not math.isfinite(typed)):
        raise ParameterError(f"config key {key!r} expects a finite number, got {value!r}")
    return typed


@dataclass
class RunManifest:
    command: str
    config: dict
    input_digests: dict[str, str]
    seed: int
    options: dict = field(default_factory=dict)  # settings given outside config
    # derived, never passed: the run id from the fields above, the rest by the run
    run_id: str = field(init=False)
    tool_version: str = field(init=False, default=__version__)
    started_at: float = field(init=False, default_factory=time.time)
    finished_at: float | None = field(init=False, default=None)
    outcome: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        payload = json.dumps(
            {
                "command": self.command,
                "config": self.config,
                "inputs": self.input_digests,
                "options": self.options,
                "seed": self.seed,
            },
            sort_keys=True,
        )
        self.run_id = hashlib.sha256(payload.encode()).hexdigest()[:16]

    def finish(self, **outcome) -> None:
        self.finished_at = time.time()
        self.outcome.update(outcome)

    def write(self, out_dir: str | Path, files: dict[str, str | None] | None = None) -> Path:
        """Write this run's files into ``out_dir``, then this manifest.

        ``files`` maps each file name the command owns to its text, or to None
        for one that this run does not write. In order: remove the earlier
        run's manifest, remove each name mapped to None, write each text by
        rename, and write the manifest last. So a crash leaves the earlier
        run whole or no manifest at all. Other files in ``out_dir`` stay.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / RUN_MANIFEST
        files = files or {}
        for name in (RUN_MANIFEST, *(name for name, text in files.items() if text is None)):
            (out / name).unlink(missing_ok=True)
        for name, text in files.items():
            if text is not None:
                write_text_atomic(out / name, text)
        write_text_atomic(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path
