import hashlib
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import pytest
import requests
from hypothesis import example, given
from hypothesis import strategies as st

import evarg.client
from conftest import ROOT
from evarg.client import (
    API_KEY_ENV,
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    MAX_RETRIES,
    PATH,
    TIMEOUT_S,
    BackendError,
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    MissingFixtures,
    RecordingBackend,
    ReplayBackend,
    complete,
    hash_prefix,
    request_digest,
    truncate_at_stop,
)
from evarg.files import ConfigError

REQ = CompletionRequest(prompt="hello", stop_patterns=('"""', "class"))
DIGEST = request_digest(REQ)


# --- digests ---------------------------------------------------------------


def test_digest_is_stable():
    assert request_digest(REQ) == request_digest(
        CompletionRequest(prompt="hello", stop_patterns=('"""', "class"))
    )
    assert len(request_digest(REQ)) == 64


def test_digest_covers_every_decoding_setting():
    variants = [
        CompletionRequest(prompt="hello!", stop_patterns=('"""', "class")),
        CompletionRequest(prompt="hello", stop_patterns=("class", '"""')),
        CompletionRequest(prompt="hello", stop_patterns=('"""', "class"), max_new_tokens=64),
        CompletionRequest(prompt="hello", stop_patterns=('"""', "class"), temperature=0.5),
        CompletionRequest(prompt="hello", stop_patterns=('"""', "class"), model_id="other"),
    ]
    digests = {request_digest(v) for v in variants} | {request_digest(REQ)}
    assert len(digests) == len(variants) + 1


def _whole_payload_digest(req):
    payload = {
        "prompt": req.prompt,
        "model_id": req.model_id,
        "max_new_tokens": req.max_new_tokens,
        "temperature": req.temperature,
        "stop_patterns": list(req.stop_patterns),
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# quotes, backslashes, control characters and non-ASCII text escape differently
PROMPT_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7f é\u2028中😀'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=30,
)


@given(
    preamble=PROMPT_TEXT,
    rest=PROMPT_TEXT,
    model_id=st.text(max_size=12),
    max_new_tokens=st.integers(min_value=1, max_value=4096),
    temperature=st.one_of(st.integers(0, 2), st.floats(0, 2)),
    stop_patterns=st.lists(PROMPT_TEXT, max_size=3),
)
@example(  # a t2 prompt without examples has an empty preamble
    preamble="", rest="Answer:", model_id="m", max_new_tokens=1, temperature=0.0,
    stop_patterns=["\n\n"],
)
def test_prefix_state_digest_equals_whole_payload_digest(
    preamble, rest, model_id, max_new_tokens, temperature, stop_patterns
):
    req = CompletionRequest(
        prompt=preamble + rest,
        max_new_tokens=max_new_tokens,
        temperature=temperature,
        stop_patterns=tuple(stop_patterns),
        model_id=model_id,
    )
    prefix = hash_prefix(req, preamble)
    whole = _whole_payload_digest(req)
    assert request_digest(req, prefix) == request_digest(req) == whole
    # the prefix's state is what the digest is computed from ...
    assert request_digest(req, prefix._replace(state=hashlib.sha256())) != whole
    # ... and a prefix that does not fit the request is ignored
    other = replace(req, model_id=model_id + "x")
    assert request_digest(other, prefix) == _whole_payload_digest(other)
    unrelated = replace(req, prompt="\x01" + req.prompt)
    assert request_digest(unrelated, prefix) == _whole_payload_digest(unrelated)


def test_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest(prompt="x", max_new_tokens=0)
    with pytest.raises(ValueError):
        CompletionRequest(prompt="x", temperature=-0.1)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
def test_request_rejects_a_temperature_that_is_not_finite(temperature):
    """JSON cannot carry it, and a client library that refuses to encode it looks transient."""
    with pytest.raises(ValueError, match="temperature must be finite"):
        CompletionRequest(prompt="x", temperature=temperature)


# --- stop truncation -------------------------------------------------------


def test_truncate_cuts_at_earliest_pattern():
    text = 'a)\nprint("x")\nclass B'
    out, hit = truncate_at_stop(text, ("class", "print"))
    assert out == "a)\n"
    assert hit


def test_truncate_without_hit_returns_input():
    assert truncate_at_stop("abc", ("xyz",)) == ("abc", False)


def test_truncate_pattern_at_start_gives_empty():
    assert truncate_at_stop("# nothing", ("#",)) == ("", True)


def test_truncate_ignores_empty_pattern():
    assert truncate_at_stop("abc", ("", "b")) == ("a", True)


@given(
    st.text(max_size=80),
    st.lists(st.sampled_from(['"""', "class", "print", "#", "\n\n"]), max_size=4),
)
def test_truncate_idempotent_and_clean(text, patterns):
    pats = tuple(patterns)
    out, hit = truncate_at_stop(text, pats)
    assert text.startswith(out)
    assert hit == any(p in text for p in pats if p)
    for p in pats:
        if p:
            assert p not in out
    assert truncate_at_stop(out, pats) == (out, False)


def test_complete_wrapper_truncates_and_marks_stop():
    class Fixed:
        def complete(self, req, digest):
            return CompletionResponse(text='x)\nclass Tail', finish_reason="length")

    resp = complete(Fixed(), REQ, DIGEST)
    assert resp.text == "x)\n"
    assert resp.finish_reason == "stop"


def test_complete_wrapper_keeps_backend_finish_when_no_hit():
    class Fixed:
        def complete(self, req, digest):
            return CompletionResponse(text="plain", finish_reason="length")

    resp = complete(Fixed(), REQ, DIGEST)
    assert resp.text == "plain"
    assert resp.finish_reason == "length"


# --- replay ----------------------------------------------------------------


def _write_fixture(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for digest, text, finish in entries:
            fh.write(
                json.dumps(
                    {"digest": digest, "response": {"text": text, "finish_reason": finish}}
                )
                + "\n"
            )


def test_replay_round_trip(tmp_path):
    path = tmp_path / "f.jsonl"
    _write_fixture(path, [(request_digest(REQ), "answer)", "stop")])
    backend = ReplayBackend(str(path))
    assert len(backend) == 1
    resp = backend.complete(REQ, DIGEST)
    assert (resp.text, resp.finish_reason) == ("answer)", "stop")


def test_replay_miss_carries_digest(tmp_path):
    path = tmp_path / "f.jsonl"
    _write_fixture(path, [])
    with pytest.raises(MissingFixtures) as err:
        ReplayBackend(str(path)).complete(REQ, DIGEST)
    assert err.value.digests == [request_digest(REQ)]
    assert request_digest(REQ) in str(err.value)


def test_replay_last_entry_wins(tmp_path):
    path = tmp_path / "f.jsonl"
    digest = request_digest(REQ)
    _write_fixture(path, [(digest, "old", "stop"), (digest, "new", "stop")])
    backend = ReplayBackend(str(path))
    assert len(backend) == 1
    assert backend.complete(REQ, DIGEST).text == "new"


def test_replay_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        ReplayBackend(str(tmp_path / "absent.jsonl"))


def test_recording_into_a_missing_directory_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot create fixture file"):
        RecordingBackend(inner=None, fixture_path=str(tmp_path / "absent" / "f.jsonl"))


def test_replay_corrupt_line_reports_position(tmp_path):
    path = tmp_path / "f.jsonl"
    good = '{"digest": "d", "response": {"text": "x", "finish_reason": "stop"}}\n'
    for bad in ("not json", '{"digest": 5, "response": {"text": ")", "finish_reason": "stop"}}'):
        path.write_text(good + bad + "\n")
        with pytest.raises(ConfigError, match=":2"):
            ReplayBackend(str(path))


def test_shipped_fixture_loads(fixtures_dir):
    backend = ReplayBackend(str(fixtures_dir / "completions.jsonl"))
    assert len(backend) == 24


# --- HTTP backend against a local stub or a scripted session ---------------


class ScriptedSession:
    """A ``requests.Session`` stand-in: each post gets the next status, or raises it."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.timeouts = []

    def post(self, url, json, headers, timeout):
        self.timeouts.append(timeout)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        body = {"choices": [{"text": "late", "finish_reason": "stop"}]}
        return SimpleNamespace(status_code=outcome, text="", json=lambda: body)


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff delays ``HttpBackend`` asks for, in order; none is slept."""
    slept = []
    fake_time = SimpleNamespace(sleep=slept.append, monotonic=time.monotonic)
    monkeypatch.setattr(evarg.client, "time", fake_time)
    return slept


def test_readme_backends_section_states_the_client_constants():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Backends\n", 1)[1].split("\n## ", 1)[0]
    prose = " ".join(section.split())
    for stated in (
        f"(`POST <endpoint>{PATH}`)",
        f"at most {TIMEOUT_S:g} s for each response",
        f"from the `{API_KEY_ENV}` environment variable",
        f"retried up to {MAX_RETRIES} times",
        f"backoff of {BACKOFF_BASE_S:g} s, doubling, capped at {BACKOFF_CAP_S:g} s",
    ):
        assert stated in prose


def test_http_posts_openai_shaped_body(stub, monkeypatch):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    stub.script.append(
        (200, {"choices": [{"text": "agent=)", "finish_reason": "stop"}]})
    )
    resp = HttpBackend(endpoint=stub.url).complete(REQ, DIGEST)
    assert resp.text == "agent=)"
    assert resp.finish_reason == "stop"
    sent = stub.requests[0]
    assert sent["path"] == "/v1/completions"
    assert sent["auth"] is None
    assert sent["body"] == {
        "model": "fixture-model",
        "prompt": "hello",
        "max_tokens": 128,
        "temperature": 0.0,
        "stop": ['"""', "class"],
    }


def test_http_sends_bearer_token_from_env(stub, monkeypatch):
    monkeypatch.setenv("EVARG_API_KEY", "sk-test-secret-123")
    HttpBackend(endpoint=stub.url).complete(REQ, DIGEST)
    assert stub.requests[0]["auth"] == "Bearer sk-test-secret-123"


def test_http_auth_failure_is_not_retried(stub, monkeypatch, sleeps):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    stub.script.append((401, {"error": "no"}))
    with pytest.raises(BackendError, match="rejected credential"):
        HttpBackend(endpoint=stub.url).complete(REQ, DIGEST)
    assert len(stub.requests) == 1
    assert sleeps == []


def test_http_retries_server_errors_then_succeeds(stub, monkeypatch, sleeps):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    stub.script.extend(
        [
            (500, {"error": "boom"}),
            (429, {"error": "slow down"}),
            (200, {"choices": [{"text": "late", "finish_reason": "stop"}]}),
        ]
    )
    resp = HttpBackend(endpoint=stub.url).complete(REQ, DIGEST)
    assert resp.text == "late"
    assert len(stub.requests) == 3
    assert sleeps == [1.0, 2.0]


def test_http_retries_exhausted(stub, monkeypatch, sleeps):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    stub.set_default(500, {})
    with pytest.raises(BackendError, match="retries exhausted"):
        HttpBackend(endpoint=stub.url).complete(REQ, DIGEST)
    assert len(stub.requests) == 7
    assert sleeps == [1, 2, 4, 8, 16, 32]


def test_http_backoff_is_capped(monkeypatch, sleeps):
    monkeypatch.setattr(evarg.client, "MAX_RETRIES", 8)
    session = ScriptedSession(*[503] * 9)
    with pytest.raises(BackendError, match="retries exhausted"):
        HttpBackend(endpoint="http://localhost", session=session).complete(REQ, DIGEST)
    assert sleeps == [1, 2, 4, 8, 16, 32, 32, 32]


def test_http_client_error_fails_immediately(stub, monkeypatch, sleeps):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    stub.script.append((400, {"error": "bad request"}))
    with pytest.raises(BackendError, match="HTTP 400"):
        HttpBackend(endpoint=stub.url).complete(REQ, DIGEST)
    assert len(stub.requests) == 1
    assert sleeps == []


TRANSIENT_FAILURES = [
    429, 500, 502, 503, 504, requests.ConnectionError("refused"), requests.Timeout("slow"),
]


@pytest.mark.parametrize("failure", TRANSIENT_FAILURES, ids=repr)
def test_http_retries_rate_limits_server_and_transport_errors(failure, sleeps):
    session = ScriptedSession(failure, failure, 200)
    resp = HttpBackend(endpoint="http://localhost", session=session).complete(REQ, DIGEST)
    assert resp.text == "late"
    assert sleeps == [1, 2]
    assert session.timeouts == [60.0] * 3


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_http_client_errors_are_not_retried(status, sleeps):
    session = ScriptedSession(status, 200)
    with pytest.raises(BackendError, match=f"HTTP {status}"):
        HttpBackend(endpoint="http://localhost", session=session).complete(REQ, DIGEST)
    assert session.timeouts == [60.0]
    assert sleeps == []


MALFORMED_BODIES = (
    {"unexpected": True},
    [],
    {"choices": None},
    {"choices": [None]},
    {"choices": [{"text": 5}]},
)


def test_http_malformed_success_body(stub, monkeypatch):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    backend = HttpBackend(endpoint=stub.url)
    for body in MALFORMED_BODIES:
        stub.script.append((200, body))
        with pytest.raises(BackendError, match="malformed completion response"):
            backend.complete(REQ, DIGEST)
    assert len(stub.requests) == len(MALFORMED_BODIES)


def test_http_unknown_finish_reason_normalized(stub, monkeypatch):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    stub.script.append((200, {"choices": [{"text": "x"}]}))
    assert HttpBackend(endpoint=stub.url).complete(REQ, DIGEST).finish_reason == "length"


def test_http_connection_refused_retries_then_fails(sleeps):
    with pytest.raises(BackendError, match="retries exhausted"):
        HttpBackend(endpoint="http://127.0.0.1:9").complete(REQ, DIGEST)
    assert sleeps == [1, 2, 4, 8, 16, 32]


# --- record then replay ----------------------------------------------------


def test_record_then_replay_is_byte_identical(stub, tmp_path, monkeypatch):
    monkeypatch.setenv("EVARG_API_KEY", "sk-test-secret-123")
    raw = 'x=[PER("a")])\nclass Extra:\n    pass'
    stub.script.append((200, {"choices": [{"text": raw, "finish_reason": "stop"}]}))
    path = tmp_path / "rec.jsonl"

    recorder = RecordingBackend(HttpBackend(endpoint=stub.url), str(path))
    live = complete(recorder, REQ, DIGEST)
    assert live.text == 'x=[PER("a")])\n'

    replayed = complete(ReplayBackend(str(path)), REQ, DIGEST)
    assert (replayed.text, replayed.finish_reason) == (live.text, live.finish_reason)


def test_recording_dedupes_identical_requests(stub, tmp_path, monkeypatch):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(HttpBackend(endpoint=stub.url), str(path))
    recorder.complete(REQ, DIGEST)
    recorder.complete(REQ, DIGEST)
    other = CompletionRequest(prompt="other")
    recorder.complete(other, request_digest(other))
    lines = path.read_text().splitlines()
    assert len(lines) == 2


def test_concurrent_recording_appends_each_digest_once(tmp_path):
    class Echo:
        def complete(self, req, digest):
            time.sleep(0.005)  # lets several threads miss the same digest at once
            return CompletionResponse(text=req.prompt.upper(), finish_reason="stop")

    path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(Echo(), str(path))
    reqs = [CompletionRequest(prompt=f"p{i // 16}") for i in range(800)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(recorder.complete, r, request_digest(r)) for r in reqs]
            responses = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [resp.text for resp in responses] == [r.prompt.upper() for r in reqs]
    digests = [json.loads(line)["digest"] for line in path.read_text().splitlines()]
    assert sorted(digests) == sorted({request_digest(r) for r in reqs})
    assert len(ReplayBackend(str(path))) == 50


def test_racing_misses_are_served_the_one_recorded_answer(tmp_path):
    class Changing:
        """Answers differently on each call; both calls wait until both have missed."""

        def __init__(self):
            self.calls = 0
            self.both_missed = threading.Barrier(2, timeout=10)

        def complete(self, req, digest):
            self.both_missed.wait()
            with lock:
                answer, self.calls = f"answer {self.calls}", self.calls + 1
            return CompletionResponse(text=answer, finish_reason="stop", latency_ms=7)

    lock = threading.Lock()
    path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(Changing(), str(path))
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(recorder.complete, REQ, DIGEST) for _ in range(2)]
        responses = [f.result(timeout=30) for f in futures]
    [line] = path.read_text().splitlines()
    recorded = json.loads(line)["response"]
    assert recorded["text"] in ("answer 0", "answer 1")
    for resp in responses:
        assert (resp.text, resp.finish_reason) == (recorded["text"], recorded["finish_reason"])
        assert resp.latency_ms == 7
    assert ReplayBackend(str(path)).complete(REQ, DIGEST).text == recorded["text"]


def test_recordings_hold_no_prompt_or_credentials(stub, tmp_path, monkeypatch):
    monkeypatch.setenv("EVARG_API_KEY", "sk-test-secret-123")
    secret_prompt = "do not store this prompt text"
    path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(HttpBackend(endpoint=stub.url), str(path))
    req = CompletionRequest(prompt=secret_prompt)
    recorder.complete(req, request_digest(req))

    content = path.read_text()
    assert "sk-test-secret-123" not in content
    assert secret_prompt not in content
    record = json.loads(content)
    assert set(record) == {"digest", "request", "response"}
    assert set(record["request"]) == {
        "model_id",
        "max_new_tokens",
        "temperature",
        "stop_patterns",
        "prompt_sha256",
        "prompt_chars",
    }
    assert record["request"]["prompt_chars"] == len(secret_prompt)


def test_shipped_fixture_holds_no_prompts(fixtures_dir):
    for line in (fixtures_dir / "completions.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert "prompt" not in record.get("request", {})
        assert set(record["response"]) == {"text", "finish_reason"}
