"""Child process of the benchmark: set-up timing, timed runs, traced run.

Usage: python3 bench/worker.py {setup|timed|traced} JOB.json

Every mode runs in a fresh interpreter, so set-up time and peak memory are
those a command-line run would pay, and prints one JSON object as its last
stdout line. JOB.json is written by bench/run.py; a workload entry in it
holds the ``RunConfig`` keywords, the oracle path, the report path, and for
record workloads the half-recorded fixture and the stub endpoint.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# Everything else is imported inside the functions that use it, so that
# ``setup`` times evarg's import in an interpreter that has loaded no more
# than this module.


def setup(job: dict) -> dict:
    """Seconds to import evarg and load the workload through its public loaders."""
    cfg = job["workload"]["config"]
    start = time.perf_counter()
    import evarg  # noqa: F401  (the package import is part of what is timed)
    from evarg.client import HttpBackend, RecordingBackend, ReplayBackend
    from evarg.corpus import load_corpus
    from evarg.ontology import load_ontology

    load_ontology(cfg["ontology_path"])
    load_corpus(cfg["train_path"], "train")
    load_corpus(cfg["test_path"], "test")
    if cfg["backend"] == "replay":
        ReplayBackend(cfg["fixture_path"])
    else:
        RecordingBackend(HttpBackend(endpoint=cfg["endpoint"]), cfg["fixture_path"])
    setup_s = time.perf_counter() - start
    import host

    return {"setup_s": setup_s, "calibration_s": host.calibrate()}


def _stub_calls(w: dict) -> int:
    if not w.get("seed_fixture"):
        return 0
    import urllib.request

    with urllib.request.urlopen(w["config"]["endpoint"] + "/calls", timeout=10) as resp:
        return json.load(resp)["calls"]


def _line_count(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


class Runner:
    """Runs one workload's config and checks each report against its oracle."""

    def __init__(self, w: dict):
        from evarg.harness import RunConfig, run

        self.w = w
        self.run = run
        self.cfg = RunConfig(**w["config"], output_path=w["report"])
        self.oracle: dict | None = None

    def once(self, run=None, output_path: str | None = None) -> dict:
        """One ``run(cfg)`` from the workload's starting state, with its costs."""
        import shutil
        from dataclasses import replace

        w = self.w
        cfg = self.cfg if output_path is None else replace(self.cfg, output_path=output_path)
        if w.get("seed_fixture"):
            shutil.copyfile(w["seed_fixture"], cfg.fixture_path)
        calls = _stub_calls(w)
        start = time.perf_counter()
        try:
            report = (run or self.run)(cfg)
        except Exception as exc:  # a failed run is reported, not raised
            return {"seconds": time.perf_counter() - start, "report": None, "error": repr(exc)}
        seconds = time.perf_counter() - start
        out = {"seconds": seconds, "report": report, "endpoint_calls": _stub_calls(w) - calls}
        if w.get("seed_fixture"):
            out["appends"] = _line_count(cfg.fixture_path) - _line_count(w["seed_fixture"])
        return out

    def check(self, result: dict) -> tuple[int, list[str]]:
        """Failed instances and errors of one result from ``once``."""
        import workload

        if self.oracle is None:
            with open(self.w["oracle"], encoding="utf-8") as fh:
                self.oracle = json.load(fh)
        if result["report"] is None:
            return self.w["n_test"], [f"run failed: {result['error']}"]
        failed, errors = workload.check_report(result["report"], self.oracle)
        if self.w.get("seed_fixture"):
            digests = workload.fixture_digests(self.cfg.fixture_path)
            if len(digests) != len(set(digests)) or set(digests) != set(self.oracle["digests"]):
                errors.append("recording does not hold exactly one record per test digest")
        return failed, errors

    def replay_recording(self) -> list[str]:
        """Errors of a replay run over the recording the last run left."""
        from dataclasses import replace

        from evarg.harness import MissingFixtures

        cfg = replace(self.cfg, backend="replay", record=False, endpoint=None)
        try:
            report = self.run(cfg)
        except MissingFixtures as exc:
            return [f"replay over the recording missed {len(exc.digests)} prompt(s)"]
        failed, errors = self.check({"report": report})
        return errors + ([f"replay over the recording: {failed} failed"] if failed else [])


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    Not ``getrusage``'s ``ru_maxrss``: across ``exec`` it keeps the peak of
    the forking parent, so it would report the benchmark's driver process
    when that is larger than the worker.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def timed(job: dict) -> dict:
    """Repeat ``run(cfg)`` until the next run would exceed the time budget.

    The first run warms the process and is not timed. Each later run is
    bracketed by host calibrations; its ``calibration_s`` is their mean.
    """
    import statistics

    runner = Runner(job["workload"])
    result = runner.once()
    peak_rss_mb = _peak_rss_mb()
    import host  # after the peak is read: its calibration table is not evarg's memory

    failed, errors = runner.check(result)
    runs, before = [], host.calibrate()
    while not errors:
        result = runner.once()
        after = host.calibrate()
        result["calibration_s"] = (before + after) / 2
        before = after
        f, e = runner.check(result)
        failed += f
        errors += e
        report = result.pop("report")
        result["instances"] = len(report["instances"]) if report else 0
        runs.append(result)
        del report
        seconds = [r["seconds"] for r in runs]
        if errors or sum(seconds) + statistics.median(seconds) > job["seconds"]:
            break
    if job["workload"].get("seed_fixture") and not errors:
        errors += runner.replay_recording()
    return {
        "runs": runs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": job["workload"]["n_test"] * (1 + len(runs)),
        "failed": failed,
        "errors": errors,
    }


def _diagnostic_counts(report: dict) -> dict[str, int]:
    kinds = ("truncated", "malformed_tail", "unknown_role", "unknown_entity_type", "duplicate_role")
    counts = dict.fromkeys(kinds, 0)
    for entry in report["instances"]:
        for diag in entry["parsed"]["diagnostics"]:
            counts[diag["kind"]] = counts.get(diag["kind"], 0) + 1
    return {f"parsing.diag.{k}": counts[k] for k in kinds}


def traced(job: dict) -> dict:
    """Per-layer metrics from a traced run, checked against an untraced one.

    Order: a traced quarter-size run (which also warms the process), an
    untraced full run, then the traced full run.
    """
    import spans as sp

    w = job["workload"]
    quarter, full = Runner(job["quarter"]), Runner(w)

    def traced_once(runner: Runner, output_path: str | None = None):
        tracer, prefixes = sp.Tracer(), sp.PrefixCounter()
        sp.install(tracer, prefixes)
        try:
            result = runner.once(tracer.wrap("harness.run", runner.run, root=True), output_path)
        finally:
            tracer.restore()
        return result, tracer.spans, prefixes

    failed, errors = 0, []

    def checked(runner: Runner, result: dict) -> dict:
        nonlocal failed, errors
        f, e = runner.check(result)
        failed, errors = failed + f, errors + e
        return result

    q_result, q_spans, _ = traced_once(quarter)
    checked(quarter, q_result).pop("report")
    plain = checked(full, full.once())
    plain.pop("report")
    result, spans, prefixes = traced_once(full, w["report"] + ".traced")
    checked(full, result)
    attempted = job["quarter"]["n_test"] + 2 * w["n_test"]
    report = result["report"]
    if report is None or plain.get("error"):
        return {"metrics": {}, "attempted": attempted, "failed": failed, "errors": errors}
    if Path(w["report"]).read_bytes() != Path(w["report"] + ".traced").read_bytes():
        errors.append("traced report differs from the untraced report")
    if w.get("seed_fixture") and not errors:
        errors += full.replay_recording()

    with open(job["spans_out"], "w", encoding="utf-8") as fh:
        json.dump([[s.id, s.name, s.start, s.end, s.parent, s.thread] for s in spans], fh)

    metrics = sp.layer_metrics(spans)
    q_metrics = sp.layer_metrics(q_spans)
    n = len(report["instances"])
    calls = result["endpoint_calls"]
    metrics.update(
        {
            "scoring.score_growth": sp.growth(metrics["scoring.score_s"], q_metrics["scoring.score_s"]),
            "corpus.select_growth": sp.growth(metrics["corpus.select_s"], q_metrics["corpus.select_s"]),
            "emitter.assemble_growth": sp.growth(
                metrics["emitter.assemble_s"], q_metrics["emitter.assemble_s"]
            ),
            "emitter.prompt_chars": prefixes.chars,
            "emitter.repeated_prefix_share": prefixes.share,
            "client.endpoint_calls": calls,
            "client.endpoint_calls_per_instance": calls / n,
            "client.fixture_appends": result.get("appends", 0),
            "client.file_hit_share": 1 - calls / n,
            "scoring.ungrounded": report["score"]["ungrounded_count"],
            "harness.report_bytes": Path(w["report"] + ".traced").stat().st_size,
            "trace.overhead_share": (result["seconds"] - plain["seconds"]) / plain["seconds"],
            **_diagnostic_counts(report),
        }
    )
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors}


def main() -> None:
    mode, job_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"setup": setup, "timed": timed, "traced": traced}[mode](job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
