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
TIMEOUT_S = 60.0  # per live request


class LlmClient:
    """Chat-completion client; construct via the classmethods."""

    def __init__(self, transport: str, responses=(), model=None, endpoint=None):
        self._transport = transport
        self._responses = responses  # scripted replies of replay and mock, in order
        self._model = model  # live only
        self._endpoint = endpoint  # live only
        self._cursor = 0

    @classmethod
    def live(cls, model: str):
        endpoint = os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise TransportError(f"no endpoint configured; set {ENDPOINT_ENV}")
        return cls("live", model=model, endpoint=endpoint)

    @classmethod
    def replay(cls, path: str | Path):
        path = Path(path)
        try:
            responses = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise TransportError(f"cannot load replay file {path}: {exc}") from exc
        if not isinstance(responses, list) or not all(
            isinstance(r, str) for r in responses
        ):
            raise TransportError(
                f"replay file {path} must hold a JSON array of response strings"
            )
        return cls("replay", responses=responses)

    @classmethod
    def mock(cls, response: str):
        return cls("mock", responses=[response])

    def complete(self, messages: list[dict[str, str]]) -> str:
        """Send a chat message list, return the assistant text."""
        if self._transport in ("replay", "mock"):
            if self._cursor >= len(self._responses):
                raise TransportError(
                    f"{self._transport} transport exhausted after "
                    f"{len(self._responses)} responses"
                )
            out = self._responses[self._cursor]
            self._cursor += 1
            return out
        return self._complete_live(messages)

    def _complete_live(self, messages: list[dict[str, str]]) -> str:
        # imported here: urllib.request loads http.client, ssl and email, which
        # every process importing pertpipe would otherwise pay for
        import http.client
        import urllib.request

        body = json.dumps({"model": self._model, "messages": messages}).encode()
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        # OSError covers URLError and timeouts; ValueError an endpoint without a
        # scheme and a body that is not UTF-8
        try:
            request = urllib.request.Request(
                self._endpoint, data=body, headers=headers, method="POST"
            )
            with urllib.request.urlopen(request, timeout=TIMEOUT_S) as resp:
                payload = resp.read().decode()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise TransportError(f"LLM endpoint request failed: {exc}") from exc
        return _extract_chat_text(payload)


def _extract_chat_text(payload: str) -> str:
    try:
        doc = json.loads(payload)
    except (ValueError, RecursionError):
        return payload
    if isinstance(doc, dict):
        choices = doc.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            message = choices[0].get("message")
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
        content = doc.get("content")
        if isinstance(content, str):
            return content
    return payload
