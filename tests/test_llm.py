"""The live transport, with ``urllib.request.urlopen`` replaced: no request leaves the process."""

from __future__ import annotations

import http.client
import io
import json
import urllib.error
import urllib.request

import pytest

from pertpipe.errors import TransportError
from pertpipe.llm import ENDPOINT_ENV, KEY_ENV, TIMEOUT_S, LlmClient

_ENDPOINT = "http://llm.invalid/v1/chat/completions"
_MESSAGES = [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}]


@pytest.fixture
def endpoint(monkeypatch):
    """A configured endpoint and no key; yields the requests the client sends."""
    monkeypatch.setenv(ENDPOINT_ENV, _ENDPOINT)
    monkeypatch.delenv(KEY_ENV, raising=False)
    sent = []

    def reply_with(payload: bytes):
        def urlopen(request, timeout):
            sent.append((request, timeout))
            return io.BytesIO(payload)

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)

    reply_with(b"ok")
    return sent, reply_with


@pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
def test_live_without_an_endpoint_raises(monkeypatch, value):
    if value is None:
        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    else:
        monkeypatch.setenv(ENDPOINT_ENV, value)
    with pytest.raises(TransportError, match=f"no endpoint configured; set {ENDPOINT_ENV}"):
        LlmClient.live(model="m")


def test_live_posts_the_model_and_messages(endpoint):
    sent, _ = endpoint
    assert LlmClient.live(model="m1").complete(_MESSAGES) == "ok"
    [(request, timeout)] = sent
    assert (request.full_url, request.get_method(), timeout) == (_ENDPOINT, "POST", TIMEOUT_S)
    assert json.loads(request.data) == {"model": "m1", "messages": _MESSAGES}
    assert request.get_header("Content-type") == "application/json"
    assert not request.has_header("Authorization")


def test_a_key_is_sent_as_a_bearer_token(endpoint, monkeypatch):
    sent, _ = endpoint
    monkeypatch.setenv(KEY_ENV, "k-123")
    LlmClient.live(model="m").complete(_MESSAGES)
    assert sent[0][0].get_header("Authorization") == "Bearer k-123"


@pytest.mark.parametrize(
    "payload, text",
    [
        ({"choices": [{"message": {"content": "from choices"}}]}, "from choices"),
        ({"content": "top level"}, "top level"),
        # a choice without string content falls back to the top-level content
        ({"choices": [{"message": {"content": 5}}], "content": "top level"}, "top level"),
        ("not JSON at all", "not JSON at all"),
        ({"id": "x", "choices": []}, '{"id": "x", "choices": []}'),
        (["content"], '["content"]'),
        ({"choices": ["x"]}, '{"choices": ["x"]}'),
        ({"choices": [{"message": "x"}], "content": "top level"}, "top level"),
        # json.loads refuses an integer of more than 4300 digits with a ValueError
        ('{"n": ' + "1" * 5000 + "}", '{"n": ' + "1" * 5000 + "}"),
    ],
    ids=["choices", "content", "choices_without_text", "not_json", "no_content", "array",
         "choice_not_an_object", "message_not_an_object", "integer_past_the_digit_limit"],
)
def test_the_reply_text_is_extracted(endpoint, payload, text):
    _, reply_with = endpoint
    reply_with((payload if isinstance(payload, str) else json.dumps(payload)).encode())
    assert LlmClient.live(model="m").complete(_MESSAGES) == text


def test_a_failed_request_is_a_transport_error(endpoint, monkeypatch):
    def refuse(request, timeout):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    with pytest.raises(TransportError) as err:
        LlmClient.live(model="m").complete(_MESSAGES)
    assert str(err.value) == "LLM endpoint request failed: <urlopen error connection refused>"
    assert isinstance(err.value.__cause__, urllib.error.URLError)


@pytest.mark.parametrize(
    "failure, message",
    [
        (TimeoutError("timed out"), "timed out"),
        (http.client.RemoteDisconnected("closed early"), "closed early"),
    ],
    ids=["read_timeout", "http_exception"],
)
def test_a_failed_read_is_a_transport_error(endpoint, monkeypatch, failure, message):
    def fail(request, timeout):
        raise failure

    monkeypatch.setattr(urllib.request, "urlopen", fail)
    with pytest.raises(TransportError) as err:
        LlmClient.live(model="m").complete(_MESSAGES)
    assert str(err.value) == f"LLM endpoint request failed: {message}"
    assert err.value.__cause__ is failure


def test_a_reply_that_is_not_utf8_is_a_transport_error(endpoint):
    _, reply_with = endpoint
    reply_with(b"\xff\xfe")
    with pytest.raises(TransportError, match="LLM endpoint request failed: 'utf-8' codec"):
        LlmClient.live(model="m").complete(_MESSAGES)


def test_an_endpoint_without_a_scheme_is_a_transport_error(endpoint, monkeypatch):
    sent, _ = endpoint
    monkeypatch.setenv(ENDPOINT_ENV, "llm.invalid/v1")
    with pytest.raises(TransportError) as err:
        LlmClient.live(model="m").complete(_MESSAGES)
    assert str(err.value) == "LLM endpoint request failed: unknown url type: 'llm.invalid/v1'"
    assert sent == []
