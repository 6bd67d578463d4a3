"""Benchmark of the evarg pipeline on seeded synthetic workloads.

Usage, from the repository root:

    python3 bench/run.py --workload same-code --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: the throughput of
``evarg.harness.run`` (timed in a fresh process after one warm-up call,
repeated while the time budget lasts; all instances over all timed calls),
the set-up time of a fresh interpreter (median of several) and the peak
memory of a process doing set-up plus one run. Set-up time, and the
throughput of the replay workloads, are adjusted to a reference host speed
by the calibration in ``bench/host.py``. With ``--trace 1`` it reports
the per-layer metrics of one traced run instead. Both first check that the golden config reproduces
``fixtures/golden/run_report.json`` byte for byte, and check every run's
report against the generator's oracle. Human-readable lines come first;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when a
correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")
TRACES = Path(".bench_traces")
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def golden_errors(work: Path) -> list[str]:
    """Run the golden config in-process and compare its report bytes."""
    from evarg.harness import RunConfig, run

    out = work / "golden_report.json"
    run(
        RunConfig(
            ontology_path="fixtures/ontology.yaml",
            train_path="fixtures/train.jsonl",
            test_path="fixtures/test.jsonl",
            prompt_style="code",
            k=1,
            selection_mode="same",
            seed=0,
            backend="replay",
            fixture_path="fixtures/completions.jsonl",
            output_path=str(out),
        )
    )
    if out.read_bytes() != (ROOT / "fixtures/golden/run_report.json").read_bytes():
        return ["golden config report differs from fixtures/golden/run_report.json"]
    return []


def worker(mode: str, job: dict, work: Path, env: dict) -> dict:
    path = work / f"job-{mode}.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, str(path)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Stub:
    """The local completions endpoint, as a child process."""

    def __init__(self, tables: list[str], env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), *tables],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise BenchError("stub endpoint did not start")
        self.url = f"http://127.0.0.1:{int(line)}"

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def entry(wl, out_dir: Path, endpoint: str | None) -> dict:
    """The worker's view of one generated workload."""
    config = dict(wl.config)
    if endpoint is not None:
        config["endpoint"] = endpoint
    return {
        "config": config,
        "oracle": wl.oracle_path,
        "report": str(out_dir / "report.json"),
        "seed_fixture": wl.seed_fixture_path,
        "n_test": wl.n_test,
    }


def timed(w: dict, seconds: int, work: Path, env: dict) -> tuple[dict, dict]:
    """End-to-end metrics; computing times adjusted to the reference host speed.

    The throughput of a record workload is reported as measured: its calls
    wait on the stub's fixed delay, which the host's speed does not move.
    """
    import host

    setup = []
    for _ in range(SETUP_REPEATS):
        if w["seed_fixture"]:
            shutil.copyfile(w["seed_fixture"], w["config"]["fixture_path"])
        setup.append(worker("setup", {"workload": w}, work, env))
    res = worker("timed", {"workload": w, "seconds": seconds}, work, env)
    runs = [r for r in res["runs"] if r["instances"]]
    slowdowns = [host.slowdown(r["calibration_s"]) for r in runs]
    print(f"timed runs: {len(runs)}, seconds: {[round(r['seconds'], 3) for r in runs]}")
    print(f"host slowdown per run: {[round(k, 3) for k in slowdowns]}")
    setup_s = [s["setup_s"] / host.slowdown(s["calibration_s"]) for s in setup]
    print(f"set-up samples (s), raw: {[round(s['setup_s'], 4) for s in setup]}")
    print(f"set-up samples (s), adjusted: {[round(s, 4) for s in setup_s]}")
    if w["seed_fixture"]:
        print(f"endpoint calls per run: {[r['endpoint_calls'] for r in runs]}")
        slowdowns = [1.0] * len(runs)
    metrics = {"setup_s": statistics.median(setup_s), "peak_rss_mb": res["peak_rss_mb"]}
    if runs:
        instances = sum(r["instances"] for r in runs)
        print(f"instances/s, raw: {instances / sum(r['seconds'] for r in runs):.6g}")
        busy = sum(r["seconds"] / k for r, k in zip(runs, slowdowns))
        metrics["instances_per_s"] = instances / busy
    return metrics, res


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the evarg pipeline.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "evarg").is_dir():
        print("bench: evarg sources not found under src/evarg", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workload

    if args.workload not in workload.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workload.WORKLOADS)}")
    spec = workload.WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    env = {k: v for k, v in os.environ.items() if k != "EVARG_API_KEY"}
    nproc = len(os.sched_getaffinity(0))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        errors = golden_errors(work)
        full = workload.generate(spec, args.seed, work / "full", nproc)
        quarter = None
        if args.trace:
            quarter = workload.generate(spec.scaled(0.25), args.seed, work / "quarter", nproc)
        with ExitStack() as stack:
            url = None
            if spec.record:
                tables = [wl.stub_table_path for wl in (full, quarter) if wl is not None]
                stub = Stub(tables, env)
                stack.callback(stub.close)
                url = stub.url
            if args.trace:
                TRACES.mkdir(exist_ok=True)
                job = {
                    "workload": entry(full, work / "full", url),
                    "quarter": entry(quarter, work / "quarter", url),
                    "spans_out": str(TRACES / f"{args.workload}.json"),
                }
                res = worker("traced", job, work, env)
                metrics = res["metrics"]
            else:
                metrics, res = timed(entry(full, work / "full", url), args.seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors += res["errors"]
    missing = [name for name in units if name not in metrics]
    if missing:
        errors.append(f"metrics not measured: {', '.join(missing)}")
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    measured = [name for name in units if name in metrics]
    for name in measured:
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": not errors and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in measured},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
