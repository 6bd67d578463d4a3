import json
import re
import socket
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from evarg import emitter  # noqa: E402
from evarg.corpus import (  # noqa: E402
    Dataset,
    GoldArgument,
    Span,
    TrainingInstance,
    load_corpus,
)
from evarg.files import read_jsonl, short_repr  # noqa: E402
from evarg.harness import RunConfig, write_report  # noqa: E402
from evarg.ontology import derive_class_name, load_ontology  # noqa: E402
from evarg.parsing import parse_completion  # noqa: E402
from evarg.scoring import _PREPOSITIONS, score  # noqa: E402
from regen_fixtures import record  # noqa: E402

TESTS = ROOT / "tests"

# a file or socket that a test leaves open fails it: its finalizer's warning becomes an error
LEAK_FILTERS = (
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(TESTS):
            for spec in LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec), append=False)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return ROOT / "fixtures"


@pytest.fixture(scope="session")
def golden_dir(fixtures_dir: Path) -> Path:
    return fixtures_dir / "golden"


@pytest.fixture
def in_repo_root(monkeypatch):
    """Run with the repository root as cwd so reports embed relative paths."""
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="session")
def ontology(fixtures_dir):
    return load_ontology(str(fixtures_dir / "ontology.yaml"))


@pytest.fixture(scope="session")
def train_set(fixtures_dir):
    return load_corpus(str(fixtures_dir / "train.jsonl"), "train")


@pytest.fixture(scope="session")
def test_set(fixtures_dir):
    return load_corpus(str(fixtures_dir / "test.jsonl"), "test")


def reference_load_corpus(path, split: str) -> Dataset:
    """``load_corpus`` with one checking call per field: the reference for its one-pass reader.

    For any file the two return equal datasets or raise the same first error.
    """
    instances = {}

    def string_field(rec, key, default=None):
        value = rec[key] if default is None else rec.get(key, default)
        if not isinstance(value, str):
            raise TypeError(f"{key} must be a string, not {short_repr(value)}")
        return value

    def offsets(rec, what):
        if not isinstance(rec, dict):
            raise TypeError(f"{what} must be an object, not {short_repr(rec)}")
        start, end = rec["start"], rec["end"]
        if type(start) is not int or type(end) is not int:
            raise TypeError(
                f"offsets must be integers, not {short_repr(start)} and {short_repr(end)}"
            )
        return start, end

    def instance(rec):
        instance_id, sentence = string_field(rec, "id"), string_field(rec, "sentence")
        trig = rec["trigger"]
        start, end = offsets(trig, "trigger")
        surface = string_field(trig, "surface")
        if not (0 <= start <= end <= len(sentence)):
            raise ValueError(f"trigger span out of bounds for instance {short_repr(instance_id)}")
        if sentence[start:end] != surface:
            raise ValueError(
                f"trigger surface mismatch for instance {short_repr(instance_id)}: "
                f"{short_repr(sentence[start:end])} != {short_repr(surface)}"
            )
        arguments = []
        records = rec.get("arguments", [])
        if not isinstance(records, list):
            raise TypeError(f"arguments must be a list, not {short_repr(records)}")
        for arg in records:
            if not isinstance(arg, dict):
                raise TypeError(f"argument {short_repr(arg)} is not an object")
            head = None
            if arg.get("head") is not None:
                head = Span(*offsets(arg["head"], "head"))
                if not (0 <= head.start <= head.end <= len(sentence)):
                    raise ValueError(
                        f"argument head span out of bounds for instance {short_repr(instance_id)}"
                    )
            arguments.append(
                GoldArgument(
                    string_field(arg, "role"),
                    string_field(arg, "surface"),
                    string_field(arg, "entity_type", ""),
                    head,
                )
            )
        return TrainingInstance(
            instance_id,
            sentence,
            Span(start, end),
            string_field(rec, "event_type"),
            tuple(arguments),
        )

    def add(rec):
        inst = instance(rec)
        if inst.id in instances:
            raise ValueError(f"duplicate instance id {short_repr(inst.id)}")
        instances[inst.id] = inst

    read_jsonl(path, split, add)
    return Dataset(tuple(instances.values()), _class_counts(instances.values()))


_TOKEN_RE = re.compile(r"(\w+)|[^\w\s]")


def reference_head_span(span: Span, sentence: str) -> Span:
    """``head_span`` as one token loop over every span: the reference for its head rule."""
    words = []
    before = None  # how many words precede the first comma or preposition
    for m in _TOKEN_RE.finditer(sentence, span.start, span.end):
        word = m.group(1)
        if before is None and (word.lower() in _PREPOSITIONS if word else m.group() == ","):
            before = len(words)
        if word:
            words.append(m.span())
    if not words:
        return span
    start, end = words[before - 1] if before else words[-1]
    return Span(start, end)


def rescore(report: dict) -> dict:
    """``report`` with the score block its instances and skips give, as ``run`` computes it.

    Paths in the report's config are read from the current directory.
    """
    config = report["config"]
    ontology, style = load_ontology(config["ontology_path"]), config["prompt_style"]
    preds = [
        (e["id"], parse_completion(e["completion"], ontology, e["event_type"], style))
        for e in report["instances"]
    ]
    preds += [(e["id"], {"roles": {}, "diagnostics": []}) for e in report["skipped"]]
    report["score"] = score(preds, load_corpus(config["test_path"], "test"))
    return report


def exhaustive_match(gold_pairs, pred_pairs):
    """Lexicographic-best (identified, classified) over all matchings."""
    best = (0, 0)

    def rec(pi, used, ident, classi):
        nonlocal best
        if pi == len(pred_pairs):
            best = max(best, (ident, classi))
            return
        role, head = pred_pairs[pi]
        rec(pi + 1, used, ident, classi)
        if head is not None:
            for gi, (g_role, g_head) in enumerate(gold_pairs):
                if gi not in used and g_head == head:
                    rec(pi + 1, used | {gi}, ident + 1, classi + (role == g_role))

    rec(0, frozenset(), 0, 0)
    return best


def k_reports(directory: Path, ks=(1, 2, 3), kept=None, **settings) -> list[str]:
    """Paths of replay reports of the shipped corpora, one per k in ``ks``, in ``directory``.

    The runs share one completions file, recorded here: each test instance's
    answer is its first ``kept`` gold arguments (``k`` of them by default)
    as ``emitter`` renders them. ``settings`` override the runs' other settings.

    The largest k is recorded first: a class with too few training instances
    for two k is shown one prompt at both, and as a recording keeps the first
    answer a digest gets, that class is answered as at the largest k.
    """
    fixture = directory / "completions.jsonl"
    settings = {
        "ontology_path": str(ROOT / "fixtures/ontology.yaml"),
        "train_path": str(ROOT / "fixtures/train.jsonl"),
        "test_path": str(ROOT / "fixtures/test.jsonl"),
        "fixture_path": str(fixture),
        **settings,
    }
    ontology = load_ontology(settings["ontology_path"])
    for k in sorted(ks, reverse=True):
        cfg = RunConfig(k=k, **settings)

        def answer(inst):
            gold = inst._replace(arguments=inst.arguments[: k if kept is None else kept])
            event = ontology.resolve_event(inst.event_type)
            return emitter._answer(gold, event, ontology, cfg.prompt_style), "stop"

        write_report(record(cfg, fixture, answer), str(directory / f"report-k{k}.json"))
    return [str(directory / f"report-k{k}.json") for k in ks]


def drop_the_first_instance(report: dict) -> None:
    report["instances"].pop(0)


def list_the_first_instance_twice(report: dict) -> None:
    report["instances"].append(report["instances"][0])


def make_instance(
    instance_id: str,
    sentence: str,
    trigger_word: str,
    event_type: str,
    args=(),
) -> TrainingInstance:
    """Instance builder that derives spans from surfaces."""
    start = sentence.find(trigger_word)
    assert start >= 0, f"{trigger_word!r} not in {sentence!r}"
    arguments = tuple(
        GoldArgument(role=role, surface=surface, entity_type=entity_type, head=None)
        for role, surface, entity_type in args
    )
    return TrainingInstance(
        id=instance_id,
        sentence=sentence,
        trigger=Span(start, start + len(trigger_word)),
        event_type=event_type,
        arguments=arguments,
    )


def make_dataset(instances) -> Dataset:
    """A dataset holding ``instances`` whole, with each class's count."""
    instances = tuple(instances)
    return Dataset(instances, _class_counts(instances))


def _class_counts(instances) -> tuple[tuple[str, int], ...]:
    """Each class of ``instances`` with how many it has, in the order the classes first appear."""
    return tuple(Counter(derive_class_name(inst.event_type) for inst in instances).items())


def untyped_parse(roles: dict) -> dict:
    """The parse ``parse_completion`` returns for untyped fillers, from role -> surfaces."""
    mentions = {r: [{"entity_type": None, "surface": s} for s in ss] for r, ss in roles.items()}
    return {"roles": mentions, "diagnostics": []}


# Endpoints no request can be sent to: no scheme, a scheme other than http(s),
# no host, an unclosed IPv6 bracket, a port out of range.
BAD_ENDPOINTS = [
    "localhost:8000",
    "127.0.0.1:8000",
    "ftp://localhost:8000",
    "http://",
    "http://[::1",
    "http://localhost:99999",
]

# A script entry ``(STALL, seconds)`` holds its request, never answering, until the
# stub closes or ``seconds`` pass.
STALL = "stall"


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # a connection stays open for the client's next request

    def handle(self):
        try:
            super().handle()
        finally:
            self.server.closed.append(self.client_address[1])

    def _record(self, body):
        self.server.requests.append(
            {
                "method": self.command,
                "path": self.path,
                "auth": self.headers.get("Authorization"),
                "proxy_auth": self.headers.get("Proxy-Authorization"),
                "content_type": self.headers.get("Content-Type"),
                "client": self.client_address[1],  # the port tells connections apart
                "body": body,
            }
        )

    def _send(self, status, data):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self._record(json.loads(self.rfile.read(length) or b"{}"))
        server = self.server
        status, payload = server.script.pop(0) if server.script else server.default
        if status == STALL:
            server.released.wait(payload)
            self.close_connection = True
            return
        self._send(status, payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        if server.drop_after_response:  # close the socket without a Connection: close header
            self.connection.shutdown(socket.SHUT_RDWR)
            self.close_connection = True
            server.dropped.set()

    def do_CONNECT(self):
        """Act as a proxy that refuses every tunnel."""
        self._record(None)
        self._send(502, b"")
        self.close_connection = True

    def log_message(self, *args):
        pass


class StubServer:
    """Scriptable loopback completions endpoint for backend tests.

    Built with ``listening=False``, its port refuses connections until
    ``listen`` is called. ``tls``, an ``ssl.SSLContext``, makes it serve https.
    """

    def __init__(self, listening: bool = True, tls=None):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler, bind_and_activate=False)
        self.server.server_bind()
        if tls is not None:
            self.server.socket = tls.wrap_socket(self.server.socket, server_side=True)
        self.server.requests = []
        self.server.closed = []  # the client port of each connection that has ended
        self.server.script = []
        self.server.default = (
            200,
            {"choices": [{"text": "ok", "finish_reason": "stop"}]},
        )
        self.server.drop_after_response = False
        self.server.dropped = threading.Event()
        self.server.released = threading.Event()  # set by ``close``: stalled requests end
        self.thread = None
        self.port = self.server.server_address[1]
        self.url = f"{'https' if tls else 'http'}://127.0.0.1:{self.port}"
        if listening:
            self.listen()

    def listen(self):
        self.server.server_activate()
        # a short poll interval lets ``close`` return at once
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def requests(self):
        return self.server.requests

    @property
    def script(self):
        return self.server.script

    @property
    def dropped(self):
        return self.server.dropped

    def set_default(self, status, payload):
        self.server.default = (status, payload)

    def drop_after_response(self):
        """Close each connection after answering on it, without saying so."""
        self.server.drop_after_response = True

    def wait_closed(self, clients, timeout: float = 5.0) -> bool:
        """Whether the connections from ``clients`` (ports) all end within ``timeout`` s."""
        deadline = time.monotonic() + timeout
        while not set(clients) <= set(self.server.closed):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    def close(self):
        self.server.released.set()
        if self.thread is not None:
            self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub():
    server = StubServer()
    yield server
    server.close()
