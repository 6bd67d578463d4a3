"""Completion backends: HTTP completions endpoint and record/replay fixtures.

Every backend serves ``complete(req, digest)``, ``digest`` being
``request_digest(req)``: a sha256 over the prompt and every decoding
setting, which keys the fixture files' JSON lines of digest, request
summary, and response. The module-level ``complete`` wrapper re-applies
stop-pattern truncation client-side, so replayed fixtures and live calls
agree byte for byte. Credentials never enter fixtures: the HTTP backend
reads its key from the environment and records only a prompt hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import typing
from dataclasses import dataclass, field

from .files import ConfigError, read_jsonl, string_field

if typing.TYPE_CHECKING:
    import requests


class BackendError(Exception):
    """Completion could not be obtained."""


class MissingFixtures(BackendError):
    """The replay fixture has no recorded response for these request digests."""

    def __init__(self, digests: list[str]):
        listing = "\n".join(f"  {d}" for d in digests)
        super().__init__(f"{len(digests)} request(s) missing from fixtures:\n{listing}")
        self.digests = digests


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    max_new_tokens: int = 128
    temperature: float = 0.0
    stop_patterns: tuple[str, ...] = ()
    model_id: str = "fixture-model"

    def __post_init__(self) -> None:
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if not 0 <= self.temperature < float("inf"):
            raise ValueError(f"temperature must be finite and >= 0, not {self.temperature!r}")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    finish_reason: str  # stop | length | error
    latency_ms: int = 0


def _around_prompt(req: CompletionRequest) -> tuple[str, str]:
    """The digest payload's JSON before and after the prompt string's contents.

    The payload holds the prompt and every decoding setting. Its keys are
    sorted, so the prompt follows ``max_new_tokens`` and ``model_id``; an
    escaped value holds no unescaped quote, so the first ``"prompt": "``
    is the key.
    """
    payload = {
        "prompt": "",
        "model_id": req.model_id,
        "max_new_tokens": req.max_new_tokens,
        "temperature": req.temperature,
        "stop_patterns": list(req.stop_patterns),
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    head, key, tail = blob.partition('"prompt": "')
    return head + key, tail


def _escaped(text: str) -> bytes:
    """``text`` as it stands inside the payload's JSON, UTF-8 encoded.

    JSON escaping and UTF-8 both work one code point at a time, so an
    escaped prompt is its escaped prefix followed by its escaped rest.
    """
    return json.dumps(text, ensure_ascii=False)[1:-1].encode("utf-8")


class HashedPrefix(typing.NamedTuple):
    """A digest's sha256 state, fed up to the end of a shared prompt prefix."""

    head: str  # the payload before the prompt, which pins the settings it serves
    tail: str  # the payload after the prompt
    text: str
    state: typing.Any  # a hashlib sha256 object; copied per request


def hash_prefix(req: CompletionRequest, text: str) -> HashedPrefix:
    """Hash once what the digests of requests like ``req`` starting with ``text`` share."""
    head, tail = _around_prompt(req)
    return HashedPrefix(head, tail, text, hashlib.sha256(head.encode("utf-8") + _escaped(text)))


def request_digest(req: CompletionRequest, prefix: HashedPrefix | None = None) -> str:
    """Hex digest covering the prompt and all decoding settings.

    ``prefix`` saves hashing its text again; one that does not fit the
    request's prompt or settings is ignored.
    """
    head, tail = _around_prompt(req)
    fits = prefix is not None and (prefix.head, prefix.tail) == (head, tail)
    if fits and req.prompt.startswith(prefix.text):
        h, rest = prefix.state.copy(), req.prompt[len(prefix.text):]
    else:
        h, rest = hashlib.sha256(head.encode("utf-8")), req.prompt
    h.update(_escaped(rest) + tail.encode("utf-8"))
    return h.hexdigest()


def truncate_at_stop(text: str, stop_patterns: tuple[str, ...]) -> tuple[str, bool]:
    """Cut at the earliest occurrence of any stop pattern.

    Returns the truncated text and whether a pattern was found. The
    result contains no occurrence of any pattern, so applying this twice
    changes nothing.
    """
    cut = -1
    for pattern in stop_patterns:
        if not pattern:
            continue
        idx = text.find(pattern)
        if idx >= 0 and (cut < 0 or idx < cut):
            cut = idx
    if cut < 0:
        return text, False
    return text[:cut], True


def complete(backend, req: CompletionRequest, digest: str) -> CompletionResponse:
    """Obtain a completion and enforce stop truncation client-side.

    ``digest`` is ``request_digest(req)``, hashed once by the caller and
    handed on so a fixture lookup need not hash the request again.
    """
    resp = backend.complete(req, digest)
    text, hit = truncate_at_stop(resp.text, req.stop_patterns)
    finish = "stop" if hit else resp.finish_reason
    return CompletionResponse(text=text, finish_reason=finish, latency_ms=resp.latency_ms)


PATH = "/v1/completions"
API_KEY_ENV = "EVARG_API_KEY"
TIMEOUT_S = 60.0
MAX_RETRIES = 6
BACKOFF_BASE_S = 1.0
BACKOFF_CAP_S = 32.0


@dataclass
class HttpBackend:
    """OpenAI-style completions endpoint.

    POSTs {model, prompt, max_tokens, temperature, stop} to endpoint +
    ``PATH`` with the bearer token in ``API_KEY_ENV`` at call time, and
    retries 429, 5xx and transport errors with backoff. ``complete`` has
    no use for the digest. ``requests`` is imported when a backend is
    built without a session and by ``complete``, not with the module, so
    a replay run never loads the HTTP stack.
    """

    endpoint: str
    session: requests.Session | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.session is None:
            import requests

            self.session = requests.Session()

    def complete(self, req: CompletionRequest, digest: str) -> CompletionResponse:
        import requests

        headers = {}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": req.model_id,
            "prompt": req.prompt,
            "max_tokens": req.max_new_tokens,
            "temperature": req.temperature,
            "stop": list(req.stop_patterns),
        }
        url = self.endpoint.rstrip("/") + PATH
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(min(BACKOFF_BASE_S * 2 ** (attempt - 1), BACKOFF_CAP_S))
            started = time.monotonic()
            try:
                http = self.session.post(url, json=body, headers=headers, timeout=TIMEOUT_S)
            except requests.RequestException as exc:
                last_error = exc
                continue
            latency = int((time.monotonic() - started) * 1000)
            if http.status_code in (401, 403):
                raise BackendError(f"endpoint rejected credential (HTTP {http.status_code})")
            if http.status_code == 429 or http.status_code >= 500:
                last_error = BackendError(f"HTTP {http.status_code} from {url}")
                continue
            if http.status_code != 200:
                raise BackendError(f"HTTP {http.status_code} from {url}: {http.text[:200]}")
            try:
                # indexing a choice that is not an object raises TypeError
                choice = http.json()["choices"][0]
                text = choice["text"]
                if not isinstance(text, str):
                    raise TypeError(f"text is {type(text).__name__}, not str")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion response: {exc}") from exc
            finish = choice.get("finish_reason")
            if finish not in ("stop", "length"):
                finish = "length"
            return CompletionResponse(text=text, finish_reason=finish, latency_ms=latency)
        raise BackendError(f"retries exhausted calling {url}: {last_error}")

    def close(self) -> None:
        self.session.close()


class ReplayBackend:
    """Serves recorded responses by request digest; fully deterministic."""

    def __init__(self, fixture_path: str):
        self.fixture_path = fixture_path
        self._entries: dict[str, tuple[str, str]] = {}

        def add(rec: dict) -> None:
            response, digest = rec["response"], string_field(rec, "digest")
            text, finish = string_field(response, "text"), string_field(response, "finish_reason")
            # a digest recorded twice is served its last answer
            self._entries[digest] = (text, finish)

        read_jsonl(fixture_path, "fixture", add)

    def __len__(self) -> int:
        return len(self._entries)

    def complete(self, req: CompletionRequest, digest: str) -> CompletionResponse:
        try:
            text, finish = self._entries[digest]
        except KeyError:
            raise MissingFixtures([digest]) from None
        return CompletionResponse(text=text, finish_reason=finish, latency_ms=0)

    def close(self) -> None:
        """Nothing to release: the fixture file is read whole and closed."""


class RecordingBackend(ReplayBackend):
    """Serves the fixture file's answers; asks a live backend for the rest and appends them.

    Threads that miss one digest at once are all served the first answer appended.
    """

    def __init__(self, inner, fixture_path: str):
        try:
            open(fixture_path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ConfigError(f"cannot create fixture file {fixture_path}: {exc}") from exc
        super().__init__(fixture_path)
        self.inner = inner
        self._lock = threading.Lock()

    def complete(self, req: CompletionRequest, digest: str) -> CompletionResponse:
        latency = 0
        if digest not in self._entries:
            resp = self.inner.complete(req, digest)
            latency = resp.latency_ms
            record = {
                "digest": digest,
                "request": {
                    "model_id": req.model_id,
                    "max_new_tokens": req.max_new_tokens,
                    "temperature": req.temperature,
                    "stop_patterns": list(req.stop_patterns),
                    "prompt_sha256": hashlib.sha256(req.prompt.encode("utf-8")).hexdigest(),
                    "prompt_chars": len(req.prompt),
                },
                "response": {"text": resp.text, "finish_reason": resp.finish_reason},
            }
            with self._lock:
                if digest not in self._entries:
                    with open(self.fixture_path, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(record, ensure_ascii=False) + "\n")
                    self._entries[digest] = (resp.text, resp.finish_reason)
        text, finish = self._entries[digest]
        return CompletionResponse(text=text, finish_reason=finish, latency_ms=latency)

    def close(self) -> None:
        self.inner.close()
