"""Argument scoring: grounding, head resolution, Arg-I/Arg-C micro-F1.

Predicted mention strings are grounded in the source sentence (first
exact occurrence, then first case-insensitive occurrence, else they stay
ungrounded and can never match; an empty surface is ungrounded). Heads
are compared by character span. Arg-I counts one-to-one head matches
regardless of role; Arg-C counts the matched pairs whose roles also
agree. Counts pool per event type and micro metrics are computed from
the pooled sums.

``head_span`` reads a span by one token loop. ``score`` takes a surface
to its head in one pass, ``grounded_head``: one ``find``, and on an exact
match a plain surface, ASCII words (``[A-Za-z0-9_]+``) joined by single
spaces as most argument surfaces are, is read by one split: with no
preposition among its words, its head is its last word. The head is a
plain ``(start, end)`` pair, equal to the ``Span`` ``head_span`` gives.
Any other surface goes through ``ground`` and ``head_span``; the test
suite checks the pass against them on random surfaces, and ``head_span``
against a reference token loop on random spans.

Only equal heads can match, so each head span is an independent group:
its identified count is the smaller of its gold and predicted counts, and
its classified count is the size of the role multiset the two sides share.
Matching counts these per group and never pairs an ungrounded head;
the test suite checks it against exhaustive matching.
"""

from __future__ import annotations

import re

from .corpus import Dataset, Span
from .ontology import derive_class_name


_TOKEN_RE = re.compile(r"(\w+)|[^\w\s]")
_PLAIN_RE = re.compile(r"[A-Za-z0-9_]+(?: [A-Za-z0-9_]+)*")  # words joined by single spaces

_PREPOSITIONS = frozenset(
    """
    about above across after against along among around as at before behind
    below beneath beside between beyond by down during for from in inside
    into near of off on onto out outside over past since through throughout
    to toward towards under until up upon with within without
    """.split()
)

_COUNTS = ("n_gold", "n_pred", "tp_identified", "tp_classified")


def head_span(span: Span, sentence: str) -> Span:
    """The head of ``span``: its last content token before the first comma or preposition.

    The head lies within ``span``; with no word before that boundary it is the
    span's last word, and a span with no word token is its own head.
    """
    words: list[tuple[int, int]] = []
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
    idx = lowered.find(target)
    if idx < 0:
        return None
    # some characters, such as "İ", lowercase to two: map offsets back
    at: dict[int, int] = {}
    offset = 0
    for i, ch in enumerate(sentence):
        at[offset] = i
        offset += len(ch.lower())
    at[offset] = len(sentence)
    while idx >= 0:
        if idx in at and idx + len(target) in at:
            return Span(at[idx], at[idx + len(target)])
        idx = lowered.find(target, idx + 1)
    return None


def grounded_head(surface: str, sentence: str) -> tuple[int, int] | None:
    """``head_span(ground(surface, sentence), sentence)``, or None where ``ground`` is.

    A plain surface found exactly is split itself, with no span built.
    """
    idx = sentence.find(surface) if surface else -1
    if idx < 0:
        span = ground(surface, sentence)
        return None if span is None else head_span(span, sentence)
    end = idx + len(surface)
    if _PLAIN_RE.fullmatch(surface):
        plain = surface.lower().split(" ")
        if _PREPOSITIONS.isdisjoint(plain):
            return end - len(plain[-1]), end
    return head_span(Span(idx, end), sentence)


def _prf(tp: int, n_pred: int, n_gold: int) -> dict[str, float]:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    return {"p": p, "r": r, "f1": 2 * p * r / (p + r) if p + r else 0.0}


def _shared(items: list, others: list) -> int:
    """How many ``items`` pair off one-to-one with equal ``others``."""
    rest = list(others)
    n = 0
    for item in items:
        if item in rest:
            rest.remove(item)
            n += 1
    return n


def _match_instance(
    gold_pairs: list[tuple[str, tuple[int, int] | None]],
    pred_pairs: list[tuple[str, tuple[int, int] | None]],
) -> tuple[int, int]:
    """One-to-one matching on head spans; returns (identified, classified)."""
    preds = [pair for pair in pred_pairs if pair[1] is not None]
    identified = _shared([head for _, head in preds], [head for _, head in gold_pairs])
    return identified, _shared(preds, gold_pairs)


def score(preds: list[tuple[str, dict]], golds: Dataset) -> dict:
    """Score parsed predictions against gold arguments; returns the report's score block.

    preds pairs an instance id from golds with its parse, the ``parsed``
    block ``parse_completion`` returns; only its ``roles`` are read. A missing
    id raises KeyError. Predictions are deduped per instance by role and
    head span (ungrounded ones by role and surface) before counting.
    """
    per_type: dict[str, dict[str, int]] = {}
    ungrounded_count = 0
    for instance_id, parsed in preds:
        inst = golds.by_id(instance_id)
        sentence = inst.sentence
        gold_pairs: list[tuple[str, tuple[int, int] | None]] = []
        for arg in inst.arguments:
            head = arg.head
            if head is None:
                head = grounded_head(arg.surface, sentence)
            gold_pairs.append((arg.role, head))

        grounded: set[tuple[str, tuple[int, int]]] = set()
        ungrounded: set[tuple[str, str]] = set()
        for role, mentions in parsed["roles"].items():
            for mention in mentions:
                surface = mention["surface"]
                head = grounded_head(surface, sentence)
                if head is None:
                    ungrounded.add((role, surface))
                else:
                    grounded.add((role, head))

        identified, classified = _match_instance(gold_pairs, list(grounded))
        cls = derive_class_name(inst.event_type)
        counts = per_type.setdefault(cls, dict.fromkeys(_COUNTS, 0))
        counts["n_gold"] += len(gold_pairs)
        counts["n_pred"] += len(grounded) + len(ungrounded)
        counts["tp_identified"] += identified
        counts["tp_classified"] += classified
        ungrounded_count += len(ungrounded)

    total = {key: sum(counts[key] for counts in per_type.values()) for key in _COUNTS}
    return {
        "per_type": dict(sorted(per_type.items())),
        "micro": {
            "arg_i": _prf(total["tp_identified"], total["n_pred"], total["n_gold"]),
            "arg_c": _prf(total["tp_classified"], total["n_pred"], total["n_gold"]),
        },
        "ungrounded_count": ungrounded_count,
    }
