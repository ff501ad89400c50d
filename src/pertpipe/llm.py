"""LLM gateway with pluggable transports.

Three transports share one interface: ``live`` POSTs a chat-style message
list to an HTTP endpoint (credentials from the environment only), ``replay``
returns responses recorded in a JSON file in order and never touches the
network, and ``mock`` returns fixed responses. Replay and mock make every
LLM-dependent path deterministic and testable offline.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import TransportError

ENDPOINT_ENV = "HC_LLM_ENDPOINT"
KEY_ENV = "HC_LLM_KEY"


class LlmClient:
    """Chat-completion client; construct via the classmethods."""

    def __init__(self, transport: str, **kwargs):
        self._transport = transport
        self._kwargs = kwargs
        self._cursor = 0

    @classmethod
    def live(cls, model: str, endpoint: str | None = None, timeout: float = 60.0):
        endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise TransportError(
                f"no endpoint configured; set {ENDPOINT_ENV} or pass endpoint="
            )
        return cls("live", model=model, endpoint=endpoint, timeout=timeout)

    @classmethod
    def replay(cls, path: str | Path):
        path = Path(path)
        try:
            responses = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TransportError(f"cannot load replay file {path}: {exc}") from exc
        if not isinstance(responses, list) or not all(
            isinstance(r, str) for r in responses
        ):
            raise TransportError(
                f"replay file {path} must hold a JSON array of response strings"
            )
        return cls("replay", responses=responses, path=str(path))

    @classmethod
    def mock(cls, response: str | list[str]):
        responses = [response] if isinstance(response, str) else list(response)
        return cls("mock", responses=responses)

    @property
    def transport(self) -> str:
        return self._transport

    def complete(self, messages: list[dict[str, str]]) -> str:
        """Send a chat message list, return the assistant text."""
        if self._transport in ("replay", "mock"):
            responses = self._kwargs["responses"]
            if self._cursor >= len(responses):
                raise TransportError(
                    f"{self._transport} transport exhausted after "
                    f"{len(responses)} responses"
                )
            out = responses[self._cursor]
            self._cursor += 1
            return out
        return self._complete_live(messages)

    def _complete_live(self, messages: list[dict[str, str]]) -> str:
        # imported here: urllib.request loads http.client, ssl and email, which
        # every process importing pertpipe would otherwise pay for
        import urllib.error
        import urllib.request

        body = json.dumps(
            {"model": self._kwargs["model"], "messages": messages}
        ).encode()
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        request = urllib.request.Request(
            self._kwargs["endpoint"], data=body, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self._kwargs["timeout"]
            ) as resp:
                payload = resp.read().decode()
        except urllib.error.URLError as exc:
            raise TransportError(f"LLM endpoint request failed: {exc}") from exc
        return _extract_chat_text(payload)


def _extract_chat_text(payload: str) -> str:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError:
        return payload
    if isinstance(doc, dict):
        choices = doc.get("choices")
        if isinstance(choices, list) and choices:
            message = choices[0].get("message", {})
            content = message.get("content")
            if isinstance(content, str):
                return content
        content = doc.get("content")
        if isinstance(content, str):
            return content
    return payload
