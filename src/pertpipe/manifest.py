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
import time
from dataclasses import dataclass, field
from pathlib import Path

from .bundle import write_text_atomic
from .errors import ParameterError

TOOL_VERSION = "0.1.0"

CONFIG_DEFAULTS: dict[str, float | int | str] = {
    "search.c": 1.0,
    "search.alpha_qmix": 0.7,
    "search.uct_epsilon": 1e-6,
    "search.n_sim": 32,
    "search.w_p": 0.8,
    "search.w_e": 0.2,
    "search.wall_clock_budget": 18000.0,
    "search.mode": "hierarchical",
    "retrieval.tau_filter": 0.3,
    "retrieval.m": 3,
    "retrieval.alpha_retrieval": 0.5,
    "retrieval.tau": 0.5,
    "split.kind": "unseen_perturbation",
    "split.train_frac": 0.8,
    "unify.sample_size": 8,
    "unify.combo_delimiter": "+",
    "unify.model": "default-model",
}


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
    """Apply precedence and coerce values to their declared types."""
    resolved = dict(CONFIG_DEFAULTS)
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if key not in CONFIG_DEFAULTS:
                raise ParameterError(f"unknown config key {key!r}")
            resolved[key] = _coerce(key, value)
    return resolved


def _coerce(key: str, value):
    """``value`` as the type of the key's default."""
    kind = type(CONFIG_DEFAULTS[key])
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return int(value) if kind is int else value
    text = str(value)
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"config key {key!r} expects a number, got {text!r}") from None


@dataclass
class RunManifest:
    command: str
    config: dict
    input_digests: dict[str, str]
    seed: int
    options: dict = field(default_factory=dict)  # settings given outside config
    run_id: str = ""
    tool_version: str = TOOL_VERSION
    started_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    outcome: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.run_id:
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

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "run_manifest.json"
        write_text_atomic(
            path,
            json.dumps(
                {
                    "run_id": self.run_id,
                    "command": self.command,
                    "config": self.config,
                    "input_digests": self.input_digests,
                    "options": self.options,
                    "seed": self.seed,
                    "tool_version": self.tool_version,
                    "started_at": self.started_at,
                    "finished_at": self.finished_at,
                    "outcome": self.outcome,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return path
