import random
import re
from collections import Counter

import pytest

from conftest import (
    exhaustive_match,
    make_dataset,
    make_instance,
    reference_head_span,
    untyped_parse,
)
from evarg.corpus import GoldArgument, Span, TrainingInstance
from evarg.scoring import _PREPOSITIONS, _match_instance, ground, grounded_head, head_span, score


def event(**roles):
    return untyped_parse(roles)


# --- grounding -------------------------------------------------------------


def test_ground_exact_at_sentence_start():
    assert ground("Kelly", "Kelly , the teacher , was moved .") == Span(0, 5)


def test_ground_prefers_exact_over_earlier_case_variant():
    assert ground("Kelly", "kelly said Kelly left .") == Span(11, 16)


def test_ground_falls_back_to_case_insensitive():
    assert ground("kelly", "Kelly left .") == Span(0, 5)


def test_ground_first_occurrence_wins():
    assert ground("to", "went to and to .") == Span(5, 7)


def test_ground_missing_surface_is_none():
    assert ground("united states", "Kelly left Houston .") is None
    assert ground("", "Kelly left Houston .") is None


def test_ground_span_survives_a_lowercase_that_lengthens_the_sentence():
    # "İ".lower() is two characters, so offsets into sentence.lower() run one ahead
    sentence = "İstanbul police met ANKARA officials"
    assert ground("ankara", sentence) == Span(20, 26)
    assert ground("i̇STANBUL", sentence) == Span(0, 8)
    # "I" has no exact match; its lowercase first hits the half of "İ".lower()
    # at offset 0, which is no whole character, so the "i" of "police" wins
    assert ground("I", sentence) == Span(12, 13)


def test_ground_case_insensitive_span_covers_the_surface():
    rng = random.Random(7)
    for _ in range(500):
        sentence = "".join(rng.choice("aAiIİı kK.") for _ in range(rng.randint(1, 12)))
        i = rng.randrange(len(sentence))
        surface = sentence[i : rng.randint(i + 1, len(sentence))].lower()
        span = ground(surface, sentence)
        assert span is not None and sentence[span.start : span.end].lower() == surface


# --- head heuristic --------------------------------------------------------


def head_text(surface, sentence):
    span = ground(surface, sentence)
    h = head_span(span, sentence)
    return sentence[h.start : h.end]


def test_head_last_word_of_plain_phrase():
    assert head_text("the teacher", "Kelly met the teacher .") == "teacher"


def test_head_single_token():
    assert head_text("Kelly", "Kelly left .") == "Kelly"


def test_head_stops_at_preposition():
    assert head_text("president of GE", "The president of GE spoke .") == "president"


def test_head_stops_at_comma():
    s = "Kelly , the Irish teacher , returned ."
    assert head_text("Kelly , the Irish teacher", s) == "Kelly"


def test_head_leading_preposition_falls_back_to_words():
    assert head_text("of note", "Nothing of note happened .") == "note"


@pytest.mark.parametrize(
    "surface, sentence, head",
    [
        ("of", "Nothing of note happened .", "of"),  # a lone preposition
        (", Kim", "Lee , Kim left .", "Kim"),  # a leading comma
        ("President Of GE", "The President Of GE spoke .", "President"),
        ("old İstanbul", "We saw old İstanbul today .", "İstanbul"),
        ("mayor of İstanbul", "The mayor of İstanbul spoke .", "mayor"),
    ],
)
def test_head_edge_cases(surface, sentence, head):
    assert head_text(surface, sentence) == head


def test_head_punctuation_only_span_returned_unchanged():
    s = "Stop ! ! now ."
    span = Span(5, 8)
    assert head_span(span, s) == span


def test_head_offsets_are_absolute():
    s = "Yesterday Kelly met the Irish teacher again ."
    span = ground("the Irish teacher", s)
    h = head_span(span, s)
    assert span.start <= h.start <= h.end <= span.end
    assert s[h.start : h.end] == "teacher"


# Plain words (ASCII letters, digits, "_"), prepositions in any case, and
# non-ASCII letters whose lowercase differs: "İ" lowercases to two characters,
# the Kelvin sign to an ASCII "k", and "ſ" uppercases to "S".
CONTENT_WORDS = ("the", "young", "Kim", "teacher", "GE", "x1", "_id", "2024", "a_b")
PREPOSITION_WORDS = ("of", "Of", "OF", "in", "IN", "into", "Into", "ToWaRdS", "by", "upon")
OTHER_WORDS = ("İn", "İstanbul", "ſince", "\u212aim", "caf\u00e9", "\u00c9T\u00c9", "ınto")
GAPS = (" ",) * 8 + ("  ", "\t", " , ", ",", " \t ", "-", "\u00a0")


def _random_phrase(rng):
    """Plain words joined by single spaces, as the benchmark's surfaces are, or any
    words after random gaps, the first gap cut by one character."""
    n = rng.randint(1, 6)
    if rng.random() < 0.5:
        return " ".join(
            rng.choice(PREPOSITION_WORDS if rng.random() < 0.15 else CONTENT_WORDS)
            for _ in range(n)
        )
    words = [rng.choice(CONTENT_WORDS + PREPOSITION_WORDS + OTHER_WORDS) for _ in range(n)]
    return "".join(rng.choice(GAPS) + word for word in words)[1:]


def test_head_span_equals_the_token_loop_on_random_spans():
    rng = random.Random(20261020)
    plain = 0
    for _ in range(100_000):
        sentence = "Then " + _random_phrase(rng) + " ."
        if rng.random() < 0.5:  # the whole phrase
            start, end = 5, len(sentence) - 2
        else:
            start = rng.randrange(len(sentence) + 1)
            end = rng.randint(start, len(sentence))
        span = Span(start, end)
        plain += bool(re.fullmatch(r"\w+( \w+)*", sentence[start:end], re.ASCII))
        assert head_span(span, sentence) == reference_head_span(span, sentence), (span, sentence)
    assert plain > 30_000


def _random_surface(rng, sentence):
    """A surface for ``sentence``: a slice of it, the slice recased, a phrase of its
    own, or empty; and which of these it is."""
    kind = rng.choice(("slice", "slice", "slice", "recased", "phrase", "empty"))
    if kind == "empty":
        return "", kind
    if kind == "phrase":
        return _random_phrase(rng), kind
    start = rng.randrange(len(sentence))
    if rng.random() < 0.5:  # from a word's start to a word's end
        start = sentence.rfind(" ", 0, start) + 1
        end = sentence.find(" ", start + 1)
        for _ in range(rng.randint(0, 2)):
            end = sentence.find(" ", end + 1) if end >= 0 else -1
        end = len(sentence) if end < 0 else end
    else:
        end = rng.randint(start + 1, len(sentence))
    surface = sentence[start:end]
    if kind == "recased":
        surface = rng.choice((str.upper, str.lower, str.swapcase, str.title))(surface)
    return surface, kind


def test_grounded_head_equals_ground_then_head_span_on_random_surfaces():
    rng = random.Random(20261033)
    seen = Counter()
    for _ in range(100_000):
        phrase = _random_phrase(rng)
        # a sentence may hold its phrase twice, so a surface can occur more than once
        sentence = rng.choice(("", "Then ", "İn ")) + phrase + rng.choice(
            (" .", " , " + phrase + " .", " of " + phrase.upper() + " .")
        )
        surface, kind = _random_surface(rng, sentence)
        span = ground(surface, sentence)
        expected = None if span is None else head_span(span, sentence)
        head = grounded_head(surface, sentence)
        assert head == expected, (surface, sentence)
        if span is not None:
            assert head == reference_head_span(span, sentence), (surface, sentence)
        if head is None:
            seen["ungrounded"] += 1
        elif sentence.find(surface) < 0:
            seen["case-insensitive"] += 1
        elif type(head) is tuple:
            seen["plain exact"] += 1
        seen[kind] += 1
        seen["repeated"] += sentence.count(surface) > 1
        seen["İ"] += "İ" in surface
        seen["comma"] += "," in surface
        seen["preposition"] += not _PREPOSITIONS.isdisjoint(surface.lower().split())
    assert min(seen.values()) > 2_000, seen


def test_grounded_head_of_fixed_surfaces():
    sentence = "The mayor of İstanbul met the mayor , Kim ."
    assert grounded_head("the mayor", sentence) == (30, 35)
    assert grounded_head("THE MAYOR", sentence) == (4, 9)
    assert grounded_head("mayor of İstanbul", sentence) == (4, 9)
    assert grounded_head("MAYOR OF İSTANBUL", sentence) == (4, 9)
    assert grounded_head("the mayor , Kim", sentence) == (30, 35)
    assert grounded_head("", sentence) is None
    assert grounded_head("Joe", sentence) is None


# --- fixed scoring examples ------------------------------------------------


def test_identified_full_classified_half():
    golds = make_dataset(
        [
            make_instance(
                "i1",
                "Kelly was hurt in Houston .",
                "hurt",
                "Conflict:Attack",
                args=[("victim", "Kelly", "PER"), ("place", "Houston", "GPE")],
            )
        ],
    )
    preds = [("i1", event(victim=["Kelly"], agent=["Houston"]))]
    micro = score(preds, golds)["micro"]
    arg_i, arg_c = micro["arg_i"], micro["arg_c"]
    assert (arg_i["p"], arg_i["r"], arg_i["f1"]) == (1.0, 1.0, 1.0)
    assert (arg_c["p"], arg_c["r"], arg_c["f1"]) == (0.5, 0.5, 0.5)


def test_empty_predictions_against_gold_scores_zero():
    golds = make_dataset(
        [
            make_instance(
                "i1", "Kelly left .", "left", "Movement:Transport",
                args=[("agent", "Kelly", "PER")],
            )
        ],
    )
    report = score([("i1", event())], golds)
    for metric in (report["micro"]["arg_i"], report["micro"]["arg_c"]):
        assert (metric["p"], metric["r"], metric["f1"]) == (0.0, 0.0, 0.0)


def test_micro_pools_counts_across_types():
    golds = make_dataset(
        [
            make_instance(
                "a1",
                "alpha beta gamma struck .",
                "struck",
                "Conflict:Attack",
                args=[("attacker", "alpha", "PER"), ("place", "beta", "GPE")],
            ),
            make_instance(
                "b1",
                "one two three seven moved .",
                "moved",
                "Movement:Transport",
                args=[
                    ("agent", "one", "PER"),
                    ("artifact", "two", "WEA"),
                    ("destination", "three", "GPE"),
                ],
            ),
        ],
    )
    preds = [
        ("a1", event(attacker=["alpha"], target=["gamma"])),
        ("b1", event(agent=["one"], artifact=["two"], vehicle=["seven"])),
    ]
    report = score(preds, golds)
    a = report["per_type"]["Attack"]
    b = report["per_type"]["Transport"]
    assert (a["n_gold"], a["n_pred"], a["tp_identified"], a["tp_classified"]) == (2, 2, 1, 1)
    assert (b["n_gold"], b["n_pred"], b["tp_identified"], b["tp_classified"]) == (3, 3, 2, 2)
    for metric in (report["micro"]["arg_i"], report["micro"]["arg_c"]):
        assert metric["p"] == pytest.approx(0.6, abs=1e-9)
        assert metric["r"] == pytest.approx(0.6, abs=1e-9)
        assert metric["f1"] == pytest.approx(0.6, abs=1e-9)


def test_gold_replayed_as_predictions_is_perfect(train_set):
    inst = train_set.by_id("train-002")
    golds = make_dataset([inst])
    roles: dict = {}
    for arg in inst.arguments:
        roles.setdefault(arg.role, []).append(arg.surface)
    report = score([(inst.id, event(**roles))], golds)
    assert report["micro"]["arg_i"]["f1"] == 1.0
    assert report["micro"]["arg_c"]["f1"] == 1.0


# --- grounding and dedupe inside score -------------------------------------


def test_ungrounded_prediction_counts_as_false_positive():
    golds = make_dataset(
        [
            make_instance(
                "i1", "Kelly left Houston .", "left", "Movement:Transport",
                args=[("agent", "Kelly", "PER")],
            )
        ],
    )
    report = score([("i1", event(agent=["Kelly"], origin=["United States"]))], golds)
    assert report["ungrounded_count"] == 1
    counts = report["per_type"]["Transport"]
    assert counts["n_pred"] == 2
    assert counts["tp_identified"] == 1
    assert report["micro"]["arg_i"]["p"] == 0.5
    assert report["micro"]["arg_i"]["r"] == 1.0


def test_empty_prediction_is_ungrounded_false_positive():
    golds = make_dataset(
        [
            make_instance(
                "i1", "Kelly left Houston .", "left", "Movement:Transport",
                args=[("agent", "Kelly", "PER")],
            )
        ],
    )
    parsed = {"roles": {"agent": [{"entity_type": "PER", "surface": ""}]}, "diagnostics": []}
    report = score([("i1", parsed)], golds)
    assert report["ungrounded_count"] == 1
    assert report["per_type"]["Transport"]["n_pred"] == 1
    assert report["micro"]["arg_i"]["p"] == 0.0


def test_case_insensitive_grounding_still_matches():
    golds = make_dataset(
        [
            make_instance(
                "i1", "Kelly left .", "left", "Movement:Transport",
                args=[("agent", "Kelly", "PER")],
            )
        ],
    )
    report = score([("i1", event(agent=["kelly"]))], golds)
    assert report["micro"]["arg_c"]["f1"] == 1.0
    assert report["ungrounded_count"] == 0


def test_same_head_predictions_dedupe():
    golds = make_dataset(
        [
            make_instance(
                "i1", "the Irish teacher taught .", "taught", "Movement:Transport",
                args=[("agent", "teacher", "PER")],
            )
        ],
    )
    # both phrases resolve to the head "teacher"; one prediction after dedupe
    report = score([("i1", event(agent=["the Irish teacher", "teacher"]))], golds)
    assert report["per_type"]["Transport"]["n_pred"] == 1
    assert report["micro"]["arg_c"]["f1"] == 1.0


def test_duplicate_predictions_change_nothing():
    golds = make_dataset(
        [
            make_instance(
                "i1", "Kelly left Houston .", "left", "Movement:Transport",
                args=[("agent", "Kelly", "PER")],
            )
        ],
    )
    clean = score([("i1", event(agent=["Kelly"], origin=["nowhere at all"]))], golds)
    doubled = score(
        [
            (
                "i1",
                event(
                    agent=["Kelly", "Kelly"],
                    origin=["nowhere at all", "nowhere at all"],
                ),
            )
        ],
        golds,
    )
    assert doubled == clean


def test_gold_explicit_head_is_honored():
    s = "the Irish teacher taught ."
    inst = TrainingInstance(
        id="i1",
        sentence=s,
        trigger=Span(s.index("taught"), s.index("taught") + 6),
        event_type="Movement:Transport",
        arguments=(
            GoldArgument(
                role="agent",
                surface="the Irish teacher",
                entity_type="PER",
                head=Span(s.index("Irish"), s.index("Irish") + 5),
            ),
        ),
    )
    golds = make_dataset([inst])
    # the annotated head is "Irish", so the heuristic head "teacher" misses
    assert score([("i1", event(agent=["teacher"]))], golds)["micro"]["arg_i"]["f1"] == 0.0
    assert score([("i1", event(agent=["Irish"]))], golds)["micro"]["arg_i"]["f1"] == 1.0


def test_unknown_instance_id_raises():
    golds = make_dataset([])
    with pytest.raises(KeyError):
        score([("ghost", event())], golds)


# --- matching optimality and order independence ----------------------------


def test_greedy_matching_equals_exhaustive_on_small_instances():
    rng = random.Random(20240823)
    spans = [Span(0, 1), Span(2, 3), Span(4, 5)]
    for _ in range(500):
        gold_pairs = [
            (rng.choice("abc"), rng.choice(spans + [None]))
            for _ in range(rng.randint(0, 5))
        ]
        pred_pairs = [
            (rng.choice("abc"), rng.choice(spans + [None]))
            for _ in range(rng.randint(0, 5))
        ]
        got = _match_instance(gold_pairs, pred_pairs)
        want = exhaustive_match(gold_pairs, pred_pairs)
        assert got == want, (gold_pairs, pred_pairs)
        identified, classified = got
        assert 0 <= classified <= identified <= min(len(gold_pairs), len(pred_pairs))


def test_prediction_order_never_changes_the_report():
    golds = make_dataset(
        [
            make_instance(
                "i1",
                "ax bx cx dx hit .",
                "hit",
                "Conflict:Attack",
                args=[
                    ("attacker", "ax", "PER"),
                    ("target", "bx", "PER"),
                    ("place", "cx", "GPE"),
                ],
            )
        ],
    )
    forward = event(attacker=["bx", "ax"], target=["bx"], place=["dx"])
    backward = event(place=["dx"], target=["bx"], attacker=["ax", "bx"])
    a = score([("i1", forward)], golds)
    b = score([("i1", backward)], golds)
    assert a == b


def test_classified_never_exceeds_identified_random():
    rng = random.Random(7)
    words = ["ax", "bx", "cx", "dx", "ex"]
    roles = ["attacker", "target", "place"]
    sentence = " ".join(words) + " hit ."
    for _ in range(100):
        gold_args = [
            (rng.choice(roles), rng.choice(words), "PER")
            for _ in range(rng.randint(0, 4))
        ]
        golds = make_dataset(
            [make_instance("i1", sentence, "hit", "Conflict:Attack", args=gold_args)],
        )
        pred_roles: dict = {}
        for _ in range(rng.randint(0, 4)):
            pred_roles.setdefault(rng.choice(roles), []).append(rng.choice(words))
        report = score([("i1", event(**pred_roles))], golds)
        assert report["micro"]["arg_c"]["f1"] <= report["micro"]["arg_i"]["f1"] + 1e-12


def test_report_dict_shape():
    golds = make_dataset(
        [
            make_instance(
                "i1", "Kelly left .", "left", "Movement:Transport",
                args=[("agent", "Kelly", "PER")],
            )
        ],
    )
    d = score([("i1", event(agent=["Kelly"]))], golds)
    assert set(d) == {"per_type", "micro", "ungrounded_count"}
    assert set(d["micro"]) == {"arg_i", "arg_c"}
    assert set(d["micro"]["arg_i"]) == {"p", "r", "f1"}
    assert set(d["per_type"]["Transport"]) == {
        "n_gold",
        "n_pred",
        "tp_identified",
        "tp_classified",
    }
