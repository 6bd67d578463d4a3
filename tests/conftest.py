import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))

from evarg.corpus import (  # noqa: E402
    Dataset,
    GoldArgument,
    TrainingInstance,
    Trigger,
    load_corpus,
)
from evarg.ontology import load_ontology  # noqa: E402
from evarg.parsing import ParsedEvent, parse_completion  # noqa: E402
from evarg.scoring import score  # noqa: E402


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


def rescore(report: dict) -> dict:
    """``report`` with the score block its instances and skips give, as ``run`` computes it.

    Paths in the report's config are read from the current directory.
    """
    config = report["config"]
    ontology, style = load_ontology(config["ontology_path"]), config["prompt_style"]
    preds = [
        (e["id"], parse_completion(e["completion"], ontology, e["event_type"], style))
        for e in report["instances"]
    ] + [(e["id"], ParsedEvent()) for e in report["skipped"]]
    report["score"] = score(preds, load_corpus(config["test_path"], "test")).to_dict()
    return report


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
        trigger=Trigger(start, start + len(trigger_word), trigger_word),
        event_type=event_type,
        arguments=arguments,
    )


def make_dataset(split: str, instances) -> Dataset:
    return Dataset(split=split, instances=tuple(instances))


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append(
            {
                "path": self.path,
                "auth": self.headers.get("Authorization"),
                "body": body,
            }
        )
        if self.server.script:
            status, payload = self.server.script.pop(0)
        else:
            status, payload = self.server.default
        data = (
            payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class StubServer:
    """Scriptable loopback completions endpoint for backend tests."""

    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.server.requests = []
        self.server.script = []
        self.server.default = (
            200,
            {"choices": [{"text": "ok", "finish_reason": "stop"}]},
        )
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    @property
    def requests(self):
        return self.server.requests

    @property
    def script(self):
        return self.server.script

    def set_default(self, status, payload):
        self.server.default = (status, payload)

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub():
    server = StubServer()
    yield server
    server.close()
