"""Shared exception types, and the checked settings of search and retrieval.

``SearchConfig`` and ``RetrievalParams`` live here, beside the
``ParameterError`` their checks raise, so that ``manifest`` resolves and
range-checks a config without loading the search engine or the knowledge
store; ``search`` and ``knowledge`` import them from here.
"""

from __future__ import annotations

from dataclasses import dataclass


class PertpipeError(Exception):
    """Base class for all package errors."""


class ParameterError(PertpipeError):
    """An argument is out of range or inconsistent with the data."""


class ValidationError(PertpipeError):
    """Input data violates a structural invariant."""


class BundleFormatError(PertpipeError):
    """An on-disk bundle is malformed or truncated."""


class TransportError(PertpipeError):
    """An LLM transport failed (network, exhausted replay, bad endpoint)."""


class MappingError(PertpipeError):
    """A mapping specification is invalid or cannot be applied."""

    def __init__(self, message: str, raw_response: str | None = None):
        super().__init__(message)
        self.raw_response = raw_response


class LlmReplyError(MappingError):
    """An LLM reply holds no usable mapping JSON (no fenced block, or not JSON)."""


@dataclass(frozen=True)
class SearchConfig:
    C: float = 1.0
    alpha_qmix: float = 0.7
    uct_epsilon: float = 1e-6
    n_sim: int = 32
    w_p: float = 0.8
    w_e: float = 0.2
    wall_clock_budget: float = 5 * 3600.0
    seed: int = 0
    mode: str = "hierarchical"

    def __post_init__(self):
        if self.w_p < 0 or self.w_e < 0:
            raise ParameterError("reward weights must be nonnegative")
        if self.n_sim < 1:
            raise ParameterError(f"n_sim must be >= 1, got {self.n_sim}")
        if self.mode not in ("hierarchical", "flat_ablation"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.uct_epsilon <= 0:  # UCT divides by visits + uct_epsilon
            raise ParameterError(f"uct_epsilon must be > 0, got {self.uct_epsilon}")


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
