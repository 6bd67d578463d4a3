"""Argument scoring: grounding, head resolution, Arg-I/Arg-C micro-F1.

Predicted mention strings are grounded in the source sentence (first
exact occurrence, then first case-insensitive occurrence, else they stay
ungrounded and can never match; an empty surface is ungrounded). Heads
are compared by character span. Arg-I counts one-to-one head matches
regardless of role; Arg-C counts the matched pairs whose roles also
agree. Counts pool per event type and micro metrics are computed from
the pooled sums.

Only equal heads can match, so each head span is an independent group:
its identified count is the smaller of its gold and predicted counts, and
its classified count is the size of the role multiset the two sides share.
Matching counts these per group in one walk over the predictions and
never pairs an ungrounded head; the test suite checks it against
exhaustive matching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import Dataset, Span
from .ontology import derive_class_name
from .parsing import ParsedEvent


_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

_PREPOSITIONS = frozenset(
    """
    about above across after against along among around as at before behind
    below beneath beside between beyond by down during for from in inside
    into near of off on onto out outside over past since through throughout
    to toward towards under until up upon with within without
    """.split()
)


def head_span(span: Span, sentence: str) -> Span:
    """The head of ``span``: its last content token before the first comma or preposition.

    The head lies within ``span``; a span with no word token is its own head.
    """
    tokens = [
        (m.start() + span.start, m.end() + span.start, m.group())
        for m in _TOKEN_RE.finditer(sentence[span.start : span.end])
    ]
    words = [t for t in tokens if t[2][0].isalnum() or t[2][0] == "_"]
    if not words:
        return span
    boundary = len(tokens)
    for i, (_, _, text) in enumerate(tokens):
        if text == "," or text.lower() in _PREPOSITIONS:
            boundary = i
            break
    candidates = [t for t in tokens[:boundary] if t in words] or words
    start, end, _ = candidates[-1]
    return Span(start, end)


def ground(pred_surface: str, sentence: str) -> Span | None:
    """First exact occurrence, else first case-insensitive occurrence.

    A case-insensitive match covers whole characters of ``sentence`` whose
    lowercase equals the surface's. An empty surface grounds nowhere.
    """
    if not pred_surface:
        return None
    idx = sentence.find(pred_surface)
    if idx >= 0:
        return Span(idx, idx + len(pred_surface))
    target, lowered = pred_surface.lower(), sentence.lower()
    # some characters, such as "İ", lowercase to two: map offsets back
    at: dict[int, int] = {}
    offset = 0
    for i, ch in enumerate(sentence):
        at[offset] = i
        offset += len(ch.lower())
    at[offset] = len(sentence)
    idx = lowered.find(target)
    while idx >= 0:
        if idx in at and idx + len(target) in at:
            return Span(at[idx], at[idx + len(target)])
        idx = lowered.find(target, idx + 1)
    return None


@dataclass
class TypeCounts:
    n_gold: int = 0
    n_pred: int = 0
    tp_identified: int = 0
    tp_classified: int = 0


@dataclass(frozen=True)
class Metric:
    p: float
    r: float
    f1: float


@dataclass
class ScoreReport:
    per_type: dict[str, TypeCounts] = field(default_factory=dict)
    micro_arg_i: Metric = Metric(0.0, 0.0, 0.0)
    micro_arg_c: Metric = Metric(0.0, 0.0, 0.0)
    ungrounded_count: int = 0

    def to_dict(self) -> dict:
        return {
            "per_type": {
                name: vars(counts) for name, counts in sorted(self.per_type.items())
            },
            "micro": {
                "arg_i": vars(self.micro_arg_i),
                "arg_c": vars(self.micro_arg_c),
            },
            "ungrounded_count": self.ungrounded_count,
        }


def _metric(tp: int, n_pred: int, n_gold: int) -> Metric:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return Metric(p, r, f1)


def _match_instance(
    gold_pairs: list[tuple[str, Span | None]],
    pred_pairs: list[tuple[str, Span | None]],
) -> tuple[int, int]:
    """One-to-one matching on head spans; returns (identified, classified)."""
    golds = list(gold_pairs)
    classified = 0
    leftover: list[Span] = []
    for pair in pred_pairs:
        if pair[1] is None:
            continue
        if pair in golds:
            golds.remove(pair)
            classified += 1
        else:
            leftover.append(pair[1])
    # a gold left over matches a leftover prediction of the same head, whatever its role
    heads = [head for _, head in golds]
    identified = classified
    for head in leftover:
        if head in heads:
            heads.remove(head)
            identified += 1
    return identified, classified


def score(preds: list[tuple[str, ParsedEvent]], golds: Dataset) -> ScoreReport:
    """Score parsed predictions against gold arguments.

    preds pairs an instance id from golds with its ParsedEvent; a missing
    id raises KeyError. Predictions are deduped per instance by role and
    head span (ungrounded ones by role and surface) before counting.
    """
    report = ScoreReport()

    for instance_id, parsed in preds:
        inst = golds.by_id(instance_id)
        counts = report.per_type.setdefault(
            derive_class_name(inst.event_type), TypeCounts()
        )

        gold_pairs: list[tuple[str, Span | None]] = []
        for arg in inst.arguments:
            head = arg.head
            if head is None:
                span = ground(arg.surface, inst.sentence)
                head = head_span(span, inst.sentence) if span is not None else None
            gold_pairs.append((arg.role, head))

        pred_pairs: list[tuple[str, Span | None]] = []
        seen: set[tuple] = set()
        for role, mentions in parsed.roles.items():
            for mention in mentions:
                span = ground(mention.surface, inst.sentence)
                if span is None:
                    key = (role, None, mention.surface)
                    head = None
                else:
                    head = head_span(span, inst.sentence)
                    key = (role, head.start, head.end)
                if key in seen:
                    continue
                seen.add(key)
                if head is None:
                    report.ungrounded_count += 1
                pred_pairs.append((role, head))

        identified, classified = _match_instance(gold_pairs, pred_pairs)
        counts.n_gold += len(gold_pairs)
        counts.n_pred += len(pred_pairs)
        counts.tp_identified += identified
        counts.tp_classified += classified

    n_gold = sum(c.n_gold for c in report.per_type.values())
    n_pred = sum(c.n_pred for c in report.per_type.values())
    tp_i = sum(c.tp_identified for c in report.per_type.values())
    tp_c = sum(c.tp_classified for c in report.per_type.values())
    report.micro_arg_i = _metric(tp_i, n_pred, n_gold)
    report.micro_arg_c = _metric(tp_c, n_pred, n_gold)
    return report
