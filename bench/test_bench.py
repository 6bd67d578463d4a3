"""Tests of the benchmark itself: generator, oracle, stub endpoint, spans.

Run with: python -m pytest bench -q
"""

import json
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import host  # noqa: E402
import spans as sp  # noqa: E402
import stub  # noqa: E402
import worker  # noqa: E402
import workload  # noqa: E402
from evarg.harness import RunConfig, run  # noqa: E402


def small(style="code", mode="same", record=False) -> workload.Spec:
    return workload.Spec(style, mode, n_train=60, n_test=150, record=record)


def test_generator_is_deterministic_per_seed(tmp_path):
    spec = small("t2", "non_sibling")
    workload.generate(spec, 3, tmp_path / "a")
    workload.generate(spec, 3, tmp_path / "b")
    workload.generate(spec, 4, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for name in ("ontology.yaml", "train.jsonl", "test.jsonl", "fixture.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_sentences_are_distinct_and_heads_occur_once(tmp_path):
    workload.generate(small(), 5, tmp_path)
    records = [
        json.loads(line)
        for name in ("train.jsonl", "test.jsonl")
        for line in (tmp_path / name).read_text().splitlines()
    ]
    sentences = [r["sentence"] for r in records]
    assert len(set(sentences)) == len(sentences)
    for r in records:
        for arg in r["arguments"]:
            assert len(arg["surface"].split()) > 1
            assert r["sentence"].count(arg["surface"].split()[-1]) == 1


@pytest.mark.parametrize(
    "style,mode", [("code", "same"), ("t1", "same"), ("t2", "same"), ("t2", "non_sibling")]
)
def test_oracle_agrees_with_evarg(tmp_path, style, mode):
    wl = workload.generate(small(style, mode), 11, tmp_path)
    oracle = json.loads(Path(wl.oracle_path).read_text())
    report = run(RunConfig(**wl.config))
    assert workload.check_report(report, oracle) == (0, [])
    assert report["score"] == oracle["score"]
    # every perturbation shows up in a workload this size
    finishes = {entry["finish_reason"] for entry in report["instances"]}
    assert finishes == {"stop", "length"}
    assert oracle["score"]["ungrounded_count"] > 0
    micro = oracle["score"]["micro"]
    assert micro["arg_c"]["f1"] < micro["arg_i"]["f1"] < 1.0


@pytest.fixture
def stub_server(tmp_path):
    table = {"0" * 64: ["unused", "stop"]}
    server = stub.make_server(table, delay_s=0.001)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _post(url: str, prompt: str):
    body = json.dumps({"prompt": prompt}).encode()
    req = urllib.request.Request(url + "/v1/completions", data=body, method="POST")
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.load(resp)


def _calls(url: str) -> int:
    with urllib.request.urlopen(url + "/calls", timeout=10) as resp:
        return json.load(resp)["calls"]


def test_stub_answers_by_prompt_digest_and_counts_requests(stub_server):
    import hashlib

    server, url = stub_server
    server.table[hashlib.sha256("hello".encode()).hexdigest()] = ["agent=[]", "length"]
    assert _calls(url) == 0
    assert _post(url, "hello") == {"choices": [{"text": "agent=[]", "finish_reason": "length"}]}
    _post(url, "hello")
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(url, "unknown prompt")
    assert err.value.code == 404
    assert _calls(url) == 3
    assert _calls(url) == 3  # reading the counter is not a completion request


def test_record_run_against_stub_resumes_half_recording(tmp_path, stub_server, monkeypatch):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    server, url = stub_server
    wl = workload.generate(small(record=True), 2, tmp_path)
    server.table.update(json.loads(Path(wl.stub_table_path).read_text()))
    Path(wl.config["fixture_path"]).write_bytes(Path(wl.seed_fixture_path).read_bytes())
    oracle = json.loads(Path(wl.oracle_path).read_text())

    recorded = len(workload.fixture_digests(wl.seed_fixture_path))
    assert 0 < recorded < wl.n_test

    report = run(RunConfig(**wl.config, endpoint=url))
    assert workload.check_report(report, oracle) == (0, [])
    # a backend that serves recorded prompts from its file may skip those calls
    assert wl.n_test - recorded <= _calls(url) <= wl.n_test
    digests = workload.fixture_digests(wl.config["fixture_path"])
    assert sorted(digests) == sorted(oracle["digests"])

    replay = {**wl.config, "backend": "replay", "record": False}
    assert workload.check_report(run(RunConfig(**replay)), oracle) == (0, [])


def _span(sid, start, end, parent=None, name="x", thread=1):
    return sp.Span(sid, name, start, end, parent, thread)


def test_self_time_subtracts_union_of_clipped_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0, thread=1),
        _span(2, 3.0, 6.0, parent=0, thread=2),  # overlaps span 1 on another thread
        _span(3, 8.0, 12.0, parent=0, thread=3),  # clipped to the parent's end
        _span(4, 2.0, 3.0, parent=1),
    ]
    selfs = sp.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert sp.covered([]) == 0.0
    assert sp.covered([(0, 1), (1, 2), (5, 6)]) == 3.0


def test_tracer_links_parents_across_threads():
    tracer = sp.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def work():
        inner()
        thread = threading.Thread(target=inner)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.wrap("root", work, root=True)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["root"]
    assert root.parent is None
    assert [s.parent for s in by_name["inner"]] == [root.id, root.id]
    assert len({s.thread for s in by_name["inner"]}) == 2
    assert sp.outermost(tracer.spans, frozenset({"root", "inner"})) == [root]


def test_growth_and_percentile():
    assert sp.growth(16.0, 1.0) == pytest.approx(2.0)
    assert sp.growth(4.0, 1.0) == pytest.approx(1.0)
    assert sp.growth(0.0, 1.0) == 0.0
    assert sp.percentile([], 50) == 0.0
    assert sp.percentile(list(range(1, 101)), 99) == 99
    assert sp.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_layer_metrics_count_outermost_selection_and_completion_source():
    spans = [
        _span(0, 0.0, 10.0, name="harness.run"),
        _span(1, 1.0, 3.0, parent=0, name="corpus.select_non_sibling"),
        _span(2, 2.0, 2.5, parent=1, name="corpus.select_same_type"),
        _span(3, 4.0, 4.002, parent=0, name="client.ReplayBackend.complete", thread=2),
        _span(4, 5.0, 5.004, parent=0, name="client.ReplayBackend.complete", thread=3),
    ]
    m = sp.layer_metrics(spans)
    assert m["corpus.select_calls"] == 1
    assert m["corpus.select_s"] == pytest.approx(2.0)
    assert m["client.endpoint_ms_p50"] == pytest.approx(2.0)
    assert m["client.endpoint_ms_p99"] == pytest.approx(4.0)
    assert m["harness.self_s"] == pytest.approx(10.0 - 2.0 - 0.006)


def test_calibration_restores_the_collector_and_scales_to_reference():
    import gc

    assert gc.isenabled()
    assert host.calibrate() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        host.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert host.slowdown(host.REFERENCE_S) == 1.0
    assert host.slowdown(2 * host.REFERENCE_S) == pytest.approx(2.0)


def test_peak_rss_is_this_process_own():
    import resource

    peak = worker._peak_rss_mb()
    assert 0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 1
