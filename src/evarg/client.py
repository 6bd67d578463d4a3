"""Completion backends: HTTP completions endpoint and record/replay fixtures.

All backends serve ``CompletionRequest -> CompletionResponse``. The
module-level ``complete`` wrapper re-applies stop-pattern truncation on
the client side regardless of what the server did, so replayed fixtures
and live calls agree byte for byte. Requests are keyed by a sha256
digest over the prompt and every decoding setting; fixture files are
newline-delimited JSON records of digest, request summary, and response.
Credentials never enter fixtures: the HTTP backend reads its key from an
environment variable and stores only a prompt hash in recordings.
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
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


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


def complete(backend, req: CompletionRequest, digest: str | None = None) -> CompletionResponse:
    """Obtain a completion and enforce stop truncation client-side.

    ``digest``, ``request_digest(req)`` when the caller has it, is handed
    on so a fixture lookup need not hash the request again.
    """
    resp = backend.complete(req) if digest is None else backend.complete(req, digest)
    text, hit = truncate_at_stop(resp.text, req.stop_patterns)
    finish = "stop" if hit else resp.finish_reason
    return CompletionResponse(text=text, finish_reason=finish, latency_ms=resp.latency_ms)


@dataclass
class HttpBackend:
    """OpenAI-style completions endpoint.

    POSTs {model, prompt, max_tokens, temperature, stop} to
    endpoint + path. The bearer token is read from the environment
    variable named by api_key_env at call time. ``complete`` takes the
    request digest as the fixture backends do, and has no use for it.
    ``requests`` is imported when a backend is built without a session
    and by ``complete``, not with the module, so a replay run never loads
    the HTTP stack.
    """

    endpoint: str
    path: str = "/v1/completions"
    api_key_env: str = "EVARG_API_KEY"
    timeout_s: float = 60.0
    max_retries: int = 6
    backoff_base_s: float = 1.0
    backoff_cap_s: float = 32.0
    session: requests.Session | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.session is None:
            import requests

            self.session = requests.Session()

    def complete(self, req: CompletionRequest, digest: str | None = None) -> CompletionResponse:
        import requests

        headers = {}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": req.model_id,
            "prompt": req.prompt,
            "max_tokens": req.max_new_tokens,
            "temperature": req.temperature,
            "stop": list(req.stop_patterns),
        }
        url = self.endpoint.rstrip("/") + self.path
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = min(self.backoff_base_s * 2 ** (attempt - 1), self.backoff_cap_s)
                time.sleep(delay)
            started = time.monotonic()
            try:
                http = self.session.post(url, json=body, headers=headers, timeout=self.timeout_s)
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

    def complete(self, req: CompletionRequest, digest: str | None = None) -> CompletionResponse:
        if digest is None:
            digest = request_digest(req)
        try:
            text, finish = self._entries[digest]
        except KeyError:
            raise MissingFixtures([digest]) from None
        return CompletionResponse(text=text, finish_reason=finish, latency_ms=0)

    def close(self) -> None:
        """Nothing to release: the fixture file is read whole and closed."""


class RecordingBackend(ReplayBackend):
    """Serves the fixture file's answers; asks a live backend for the rest and appends them."""

    def __init__(self, inner, fixture_path: str):
        try:
            open(fixture_path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ConfigError(f"cannot create fixture file {fixture_path}: {exc}") from exc
        super().__init__(fixture_path)
        self.inner = inner
        self._lock = threading.Lock()

    def complete(self, req: CompletionRequest, digest: str | None = None) -> CompletionResponse:
        try:
            return super().complete(req, digest)
        except MissingFixtures as miss:
            [digest] = miss.digests
        resp = self.inner.complete(req)
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
        return resp

    def close(self) -> None:
        self.inner.close()
