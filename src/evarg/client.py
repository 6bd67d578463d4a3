"""Completion backends: HTTP completions endpoint and record/replay fixtures.

A request's digest, ``request_digest``, a sha256 over the prompt and
every decoding setting, keys the fixture files' JSON lines of digest,
request summary, and response; ``settings_prefix`` hashes the settings
once, as a ``HashedPrefix`` state that prompts sharing a prefix extend.
Every backend has one lookup that needs no request, ``stored(digest)``:
a replay backend gives its recorded answer or, as it cannot send, raises
``MissingFixtures``; a recording backend gives its file's answer or
``None``; the HTTP backend stores nothing. ``complete(backend, tasks,
...)``, a run's one answer step, looks every task up, has the backend
send each miss once and cuts every answer once at the stop patterns, so
replayed fixtures and live calls agree byte for byte. Credentials never
enter fixtures: the HTTP backend reads its key from the environment and
records only a prompt hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
import typing
from dataclasses import dataclass
from json.encoder import encode_basestring
from urllib.parse import SplitResult, unquote, urlsplit

from .files import ConfigError, read_jsonl, short_repr, string_field

if typing.TYPE_CHECKING:
    import http.client


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


def _escaped(text: str) -> bytes:
    """``text`` as it stands inside the payload's JSON, UTF-8 encoded.

    JSON escaping and UTF-8 both work one code point at a time, so an
    escaped prompt is its escaped prefix followed by its escaped rest.
    ``json.dumps(text, ensure_ascii=False)`` of a str is ``encode_basestring(text)``,
    less the encoder it builds per call.
    """
    return encode_basestring(text)[1:-1].encode("utf-8")


class HashedPrefix(typing.NamedTuple):
    """A digest's sha256 state, fed up to the end of a shared prompt prefix."""

    tail: str  # the payload after the prompt
    state: typing.Any  # a hashlib sha256 object; copied per request

    def extended(self, text: str) -> HashedPrefix:
        """This prefix followed by ``text``."""
        state = self.state.copy()
        state.update(_escaped(text))
        return HashedPrefix(self.tail, state)


def settings_prefix(
    model_id: str, max_new_tokens: int, temperature: float, stop_patterns: tuple[str, ...]
) -> HashedPrefix:
    """The prefix every request with these settings starts with: the payload up to its prompt.

    The payload holds the prompt and every decoding setting. Its keys are
    sorted, so the prompt follows ``max_new_tokens`` and ``model_id``; an
    escaped value holds no unescaped quote, so the first ``"prompt": "``
    is the key.
    """
    payload = {
        "prompt": "",
        "model_id": model_id,
        "max_new_tokens": max_new_tokens,
        "temperature": temperature,
        "stop_patterns": list(stop_patterns),
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    head, key, tail = blob.partition('"prompt": "')
    return HashedPrefix(tail, hashlib.sha256((head + key).encode("utf-8")))


def request_digest(req: CompletionRequest | str, prefix: HashedPrefix | None = None) -> str:
    """Hex digest covering the prompt and all decoding settings.

    ``req`` is a request, whose settings are encoded here, or, with
    ``prefix``, the rest of a prompt that starts with the text ``prefix``
    was extended by and has its settings; only that rest is hashed.
    """
    if prefix is None:
        prefix = settings_prefix(
            req.model_id, req.max_new_tokens, req.temperature, req.stop_patterns
        )
        req = req.prompt
    h = prefix.state.copy()
    h.update(_escaped(req) + prefix.tail.encode("utf-8"))
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


def complete(backend, tasks, stop_patterns: tuple[str, ...], max_in_flight: int) -> list:
    """Each task's ``(text, finish_reason)``, in task order: a run's one answer step.

    A task has a ``digest`` and a ``request``, read only to send it. Each
    digest is looked up once with ``backend.stored``; a backend that cannot
    send has its misses raised as one ``MissingFixtures``, in task order,
    before any request is built. Each other miss is sent once, on
    ``max_in_flight`` threads, its request built as it is sent. Every
    answer is cut once at ``stop_patterns``; a cut one finished by ``stop``.
    """
    from concurrent.futures import ThreadPoolExecutor  # not with the module: only a run needs it
    answers, misses = [], []
    for task in tasks:
        try:
            answers.append(backend.stored(task.digest))
        except MissingFixtures as exc:
            misses += exc.digests
    if misses:
        raise MissingFixtures(misses)
    unsent = {task.digest: task for task, answer in zip(tasks, answers) if answer is None}
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        replies = pool.map(lambda t: backend.complete(t.request, t.digest), unsent.values())
        sent = dict(zip(unsent, replies))
    for i, task in enumerate(tasks):
        text, finish = answers[i] or sent[task.digest]
        text, hit = truncate_at_stop(text, stop_patterns)
        answers[i] = text, "stop" if hit else finish
    return answers


PATH = "/v1/completions"
API_KEY_ENV = "EVARG_API_KEY"
TIMEOUT_S = 60.0
MAX_RETRIES = 6
BACKOFF_BASE_S = 1.0
BACKOFF_CAP_S = 32.0


def check_endpoint(endpoint: str) -> SplitResult:
    """``endpoint`` split into its parts; it must be an http:// or https:// URL with a host.

    Anything else raises ``ConfigError``: no request could reach it, so it is
    a configuration error and not a transport failure to retry. So does a
    ``user:password@`` in it, which no request would send: the key comes
    from ``API_KEY_ENV``.
    """
    try:
        url = urlsplit(endpoint)
        url.port  # a port that is not a number from 0 to 65535 raises ValueError
    except ValueError:  # also an unclosed "[" around an IPv6 host
        url = None
    if url is not None and url.username is not None:
        # the message leaves the endpoint out: it holds a password
        raise ConfigError(
            f"endpoint must not hold a user name or password; the key is read from {API_KEY_ENV}"
        )
    if url is None or url.scheme not in ("http", "https") or not url.hostname:
        raise ConfigError(
            f"endpoint must be an http:// or https:// URL with a host, not {short_repr(endpoint)}"
        )
    return url


def _proxy(proxy: str, scheme: str) -> tuple[tuple[str, int], dict[str, str]]:
    """The (host, port) of the proxy at URL ``proxy``, and the headers that log in to it.

    The proxy must speak plain HTTP; a scheme-less URL is taken as http://.
    ``user:password@`` in the URL becomes a basic ``Proxy-Authorization``.
    """
    try:
        url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        port = url.port or 80
    except ValueError:
        url = None
    if url is None or url.scheme != "http" or not url.hostname:
        # the message leaves the URL out: it may hold a password
        raise ConfigError(
            f"the proxy for {scheme}:// endpoints must be an http:// URL with a host"
        )
    headers = {}
    if url.username is not None:
        import base64

        login = f"{unquote(url.username)}:{unquote(url.password or '')}".encode("utf-8")
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(login).decode("ascii")
    return (url.hostname, port), headers


def _dropped(sock) -> bool:
    """Whether the server has closed this idle kept-alive socket.

    It then reads as ready, although no response is due.
    """
    import select  # not with the module: a replay run has no socket to poll

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class HttpBackend:
    """OpenAI-style completions endpoint.

    POSTs {model, prompt, max_tokens, temperature, stop} to endpoint +
    ``PATH`` with the bearer token in ``API_KEY_ENV`` at call time, and
    retries 429, 5xx and transport errors with backoff. ``complete`` has
    no use for the digest and gives the answer uncut.

    Each thread that calls ``complete`` gets its own keep-alive connection
    on its first call; ``close`` closes every thread's. The proxy named by
    ``HTTP_PROXY``/``HTTPS_PROXY`` and ``NO_PROXY`` is chosen once, here;
    https is verified against the system's CA store. ``http.client`` is
    imported when a backend is built, not with the module, so a replay run
    never loads the HTTP stack.
    """

    def __init__(self, endpoint: str):
        import http.client
        import urllib.request

        url = check_endpoint(endpoint)
        self._url = endpoint.rstrip("/") + PATH  # as error messages name it
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        self._address: tuple[str, int] = (host, port)
        self._path = url.path.rstrip("/") + PATH
        self._headers = {"Content-Type": "application/json"}
        self._tunnel: tuple | None = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(f"{host}:{port}"):
            self._address, proxy_headers = _proxy(proxy, url.scheme)
            if https:
                self._tunnel = (host, port, proxy_headers)
            else:  # a plain-http proxy is sent the absolute URL
                self._path = f"http://{url.netloc}{self._path}"
                self._headers.update(proxy_headers)
        if https:
            import ssl

            context = ssl.create_default_context()
            self._connect = functools.partial(http.client.HTTPSConnection, context=context)
        else:
            self._connect = http.client.HTTPConnection
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection to the endpoint, made on its first call."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect(*self._address, timeout=TIMEOUT_S)
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
            with self._lock:
                self._connections.append(conn)
        return conn

    def stored(self, digest: str) -> None:
        """An endpoint stores no answer: each is sent."""

    def complete(self, req: CompletionRequest, digest: str) -> tuple[str, str]:
        from http.client import HTTPException

        headers = dict(self._headers)
        key = os.environ.get(API_KEY_ENV)
        if key:
            if not (key.isascii() and key.isprintable()):
                # the message leaves the key out: it would reach stderr
                raise BackendError(f"{API_KEY_ENV} is not a valid HTTP header value")
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": req.model_id,
            "prompt": req.prompt,
            "max_tokens": req.max_new_tokens,
            "temperature": req.temperature,
            "stop": list(req.stop_patterns),
        }
        payload = json.dumps(body, allow_nan=False).encode("utf-8")
        conn = self._connection()
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(min(BACKOFF_BASE_S * 2 ** (attempt - 1), BACKOFF_CAP_S))
            if conn.sock is not None and _dropped(conn.sock):
                conn.close()  # closed by the server while idle: reopened, spending no retry
            try:
                conn.request("POST", self._path, payload, headers)
                resp = conn.getresponse()
                data = resp.read()
            except (OSError, HTTPException) as exc:
                conn.close()  # the next attempt opens a new connection
                last_error = exc
                continue
            if resp.status in (401, 403):
                raise BackendError(f"endpoint rejected credential (HTTP {resp.status})")
            if resp.status == 429 or resp.status >= 500:
                last_error = BackendError(f"HTTP {resp.status} from {self._url}")
                continue
            if resp.status != 200:
                text = data.decode("utf-8", "replace")
                raise BackendError(f"HTTP {resp.status} from {self._url}: {text[:200]}")
            try:
                # indexing a choice that is not an object raises TypeError
                choice = json.loads(data)["choices"][0]
                text = choice["text"]
                if not isinstance(text, str):
                    raise TypeError(f"text is {type(text).__name__}, not str")
                text.encode("utf-8")  # a lone surrogate could be neither reported nor recorded
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion response: {exc}") from exc
            finish = choice.get("finish_reason")
            if finish not in ("stop", "length"):
                finish = "length"
            return text, finish
        raise BackendError(f"retries exhausted calling {self._url}: {last_error}")

    def close(self) -> None:
        """Close every thread's connection; a thread that calls again opens a new one."""
        with self._lock:
            for conn in self._connections:
                conn.close()


def read_fixtures(fixture_path: str) -> dict[str, tuple[str, str]]:
    """A fixture file's answers, ``(text, finish_reason)`` by digest, read and checked whole."""
    entries: dict[str, tuple[str, str]] = {}

    def add(rec: dict) -> None:
        response, digest = rec["response"], string_field(rec, "digest")
        if not isinstance(response, dict):
            raise TypeError(f"response must be an object, not {short_repr(response)}")
        text, finish = string_field(response, "text"), string_field(response, "finish_reason")
        # a digest recorded twice is served its last answer
        entries[digest] = (text, finish)

    read_jsonl(fixture_path, "fixture", add)
    return entries


class ReplayBackend:
    """Serves recorded answers by request digest; fully deterministic. It cannot send.

    The answers are those stored at ``fixture_path``: ``entries`` when the
    caller has read them already, as ``load_report`` has a report's own.
    """

    def __init__(self, fixture_path: str, *, entries: dict[str, tuple[str, str]] | None = None):
        self._entries = read_fixtures(fixture_path) if entries is None else entries

    def stored(self, digest: str) -> tuple[str, str]:
        """The answer recorded for ``digest``; ``MissingFixtures`` if none, as none can be sent."""
        try:
            return self._entries[digest]
        except KeyError:
            raise MissingFixtures([digest]) from None

    def complete(self, req: CompletionRequest, digest: str) -> tuple[str, str]:
        return self.stored(digest)

    def close(self) -> None:
        """Nothing to release: the fixture file is read whole and closed."""


class RecordingBackend:
    """A fixture file's answers, and a live backend that is sent the rest, each answer appended.

    A digest is appended once: threads that miss one digest at once are
    all served the first answer appended.
    """

    def __init__(self, inner, fixture_path: str):
        try:
            open(fixture_path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ConfigError(f"cannot create fixture file {fixture_path}: {exc}") from exc
        self.fixture_path = fixture_path
        self._entries = read_fixtures(fixture_path)
        self.inner = inner
        self._lock = threading.Lock()

    def stored(self, digest: str) -> tuple[str, str] | None:
        """The answer recorded for ``digest``; ``None`` if it must be sent."""
        return self._entries.get(digest)

    def complete(self, req: CompletionRequest, digest: str) -> tuple[str, str]:
        if digest not in self._entries:
            text, finish = self.inner.complete(req, digest)
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
                "response": {"text": text, "finish_reason": finish},
            }
            with self._lock:
                if digest not in self._entries:
                    with open(self.fixture_path, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(record, ensure_ascii=False) + "\n")
                    self._entries[digest] = (text, finish)
        return self._entries[digest]

    def close(self) -> None:
        self.inner.close()
