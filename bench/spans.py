"""Spans around evarg's layer boundaries, recorded from outside the program.

``install`` replaces the public names that ``evarg.harness.run`` looks up at
call time (module globals, ``client_mod.complete``, backend classes and
``Dataset.by_id``) with timing wrappers. Each call records a span: name,
start, end, parent span and thread. Spans stay in memory until the run
ends. A span started on a thread with no open span (a completion worker)
takes the root span, ``harness.run``, as its parent. A span's self time is
its duration minus the part of its interval its children cover.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's clipped intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.duration
        - covered(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        )
        for s in spans
    }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None, root: bool = False):
        """``fn`` recording one span per call; ``observe`` sees each result."""

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if root:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    self._root = None
                self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, self.wrap(name, original, observe))
        self._patched.append((owner, attr, original))
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


BACKENDS = ("ReplayBackend", "RecordingBackend", "HttpBackend")
SELECT = frozenset(
    {"corpus.select_same_type", "corpus.select_sibling", "corpus.select_non_sibling",
     "corpus.split_hierarchy"}
)


def install(tracer: Tracer, observe_prompt=None) -> None:
    """Wrap every layer entry point ``harness.run`` reaches; warn on missing names."""
    from evarg import client, corpus, harness

    targets = [
        (harness, "load_ontology", "ontology.load_ontology"),
        (harness, "load_corpus", "corpus.load_corpus"),
        (harness, "select_same_type", "corpus.select_same_type"),
        (harness, "select_sibling", "corpus.select_sibling"),
        (harness, "select_non_sibling", "corpus.select_non_sibling"),
        (harness, "split_hierarchy", "corpus.split_hierarchy"),
        (harness, "request_digest", "client.request_digest"),
        (harness, "parse_completion", "parsing.parse_completion"),
        (harness, "parse_text_completion", "parsing.parse_text_completion"),
        (harness, "score", "scoring.score"),
        (harness, "write_report", "harness.write_report"),
        (client, "complete", "client.complete"),
        (client, "request_digest", "client.request_digest"),
        (corpus, "split_hierarchy", "corpus.split_hierarchy"),
        (corpus, "select_same_type", "corpus.select_same_type"),
        (corpus.Dataset, "by_id", "corpus.by_id"),
    ]
    for cls in BACKENDS:
        backend = getattr(client, cls, None)
        targets += [(backend, "__init__", f"client.{cls}.init"),
                    (backend, "complete", f"client.{cls}.complete")]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, name in targets
        if owner is None or not tracer.patch(owner, attr, name)
    ]
    if not tracer.patch(harness, "assemble_prompt", "emitter.assemble_prompt", observe_prompt):
        missing.append("harness.assemble_prompt")
    if missing:
        print(f"trace: not found, left untraced: {', '.join(missing)}", file=sys.stderr)


class PrefixCounter:
    """Prompt characters, and those in a preamble already built this run.

    The preamble is everything before the task block, which is the last
    blank-line-separated block of every prompt style.
    """

    def __init__(self):
        self.chars = 0
        self.repeated = 0
        self._seen: set[str] = set()

    def __call__(self, bundle) -> None:
        text = bundle.text
        self.chars += len(text)
        preamble = text[: max(text.rfind("\n\n"), 0)]
        if preamble in self._seen:
            self.repeated += len(preamble)
        else:
            self._seen.add(preamble)

    @property
    def share(self) -> float:
        return self.repeated / self.chars if self.chars else 0.0


def outermost(spans: list[Span], names: frozenset[str]) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None:
            ancestor = by_id[p]
            if ancestor.name in names:
                return True
            p = ancestor.parent
        return False

    return [s for s in spans if s.name in names and not nested(s)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def growth(full: float, quarter: float) -> float:
    """Exponent k in t ~ n^k from a full-size and a quarter-size time."""
    if full <= 0 or quarter <= 0:
        return 0.0
    return math.log(full / quarter) / math.log(4)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and call counts from one traced ``harness.run``."""
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in named[n])

    selfs = self_times(spans)
    run = named["harness.run"][0]
    select = outermost(spans, SELECT)
    # the completion source: the endpoint when there is one, else the fixture file
    source = named["client.HttpBackend.complete"] or named["client.ReplayBackend.complete"]
    source_ms = [s.duration * 1000 for s in source]
    return {
        "ontology.load_s": total("ontology.load_ontology"),
        "corpus.load_s": total("corpus.load_corpus"),
        "corpus.by_id_s": total("corpus.by_id"),
        "corpus.by_id_calls": len(named["corpus.by_id"]),
        "scoring.score_s": total("scoring.score"),
        "scoring.self_s": sum(selfs[s.id] for s in named["scoring.score"]),
        "corpus.select_s": sum(s.duration for s in select),
        "corpus.select_calls": len(select),
        "corpus.split_hierarchy_calls": len(named["corpus.split_hierarchy"]),
        "emitter.assemble_s": total("emitter.assemble_prompt"),
        "client.digest_s": total("client.request_digest"),
        "client.digest_calls": len(named["client.request_digest"]),
        "client.backend_init_s": total(*(f"client.{c}.init" for c in BACKENDS)),
        "client.complete_s": total("client.complete"),
        "client.complete_wall_s": covered((s.start, s.end) for s in named["client.complete"]),
        "client.endpoint_ms_p50": percentile(source_ms, 50),
        "client.endpoint_ms_p99": percentile(source_ms, 99),
        "parsing.parse_s": total("parsing.parse_completion", "parsing.parse_text_completion"),
        "harness.run_s": run.duration,
        "harness.self_s": selfs[run.id],
        "harness.write_report_s": total("harness.write_report"),
    }
