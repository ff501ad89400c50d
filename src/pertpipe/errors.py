"""Shared exception types."""

from __future__ import annotations


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
