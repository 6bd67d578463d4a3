import json
import logging

import pytest

from evarg.cli import main
from evarg.files import ConfigError
from evarg.ontology import (
    ancestors,
    derive_class_name,
    instance_variable,
    load_ontology,
    siblings,
)


def load_text(tmp_path, text):
    """The ontology in ``text``, written to a file and loaded from it."""
    path = tmp_path / "ontology.yaml"
    path.write_text(text, encoding="utf-8")
    return load_ontology(str(path))


def test_class_name_from_colon_path():
    assert derive_class_name("Justice:Arrest-Jail") == "Arrest_Jail"
    assert derive_class_name("Movement:Transport") == "Transport"
    assert derive_class_name("Movement") == "Movement"
    assert derive_class_name("A:B:C-D") == "C_D"


def test_instance_variable():
    assert instance_variable("Transport") == "transport_event"
    assert instance_variable("Arrest_Jail") == "arrest_jail_event"


def test_resolve_accepts_raw_and_class_names(ontology):
    by_raw = ontology.resolve_event("Movement:Transport")
    by_class = ontology.resolve_event("Transport")
    assert by_raw is by_class
    assert by_raw.parent == "Movement"
    with pytest.raises(ConfigError, match="unknown event type: 'NoSuchEvent'"):
        ontology.resolve_event("NoSuchEvent")


def test_ancestors_immediate_parent_first(tmp_path):
    onto = load_text(
        tmp_path,
        """
entities:
  - name: PER
    description: a person
events:
  - name: A
    template: something happens
  - name: "A:B"
    parent: A
    template: something happens
  - name: "A:B:C"
    parent: "A:B"
    template: something happens
  - name: "A:B:C:D-E"
    parent: C
    template: "{x} happens"
    roles:
      - name: x
        types: [PER]
"""
    )
    assert ancestors(onto, "D_E") == ["C", "B", "A"]
    assert ancestors(onto, "A") == []
    assert onto.resolve_event("D_E").roles[0].allowed_entity_types == ("PER",)


def test_siblings_of_transfer_money(ontology):
    assert siblings(ontology, "Transfer_Money") == {"Transfer_Ownership"}
    assert siblings(ontology, "Transport") == set()


def test_siblings_of_root_warns_and_returns_empty(ontology, caplog):
    with caplog.at_level(logging.WARNING):
        result = siblings(ontology, "Movement")
    assert result == set()
    assert any("Movement" in rec.message for rec in caplog.records)


def test_children_query(ontology):
    assert ontology.children("Transaction") == ["Transfer_Money", "Transfer_Ownership"]
    assert ontology.children("Transfer_Money") == []


def test_rejects_cycles(tmp_path):
    with pytest.raises(ConfigError, match="(?s)invalid ontology:.*cycle"):
        load_text(
            tmp_path,
            """
entities: []
events:
  - name: A
    parent: B
    template: t
  - name: B
    parent: A
    template: t
"""
        )


def test_rejects_unknown_parent_and_role_types(tmp_path, capsys):
    with pytest.raises(ConfigError, match="invalid ontology") as err:
        load_text(
            tmp_path,
            """
entities:
  - name: PER
    description: a person
events:
  - name: A
    parent: Missing
    template: "{x} and {y}"
    roles:
      - name: x
        types: [PER, BOGUS]
"""
        )
    message = str(err.value)
    assert "Missing" in message
    assert "BOGUS" in message
    assert "{y}" in message or "y" in message  # placeholder without a role

    # a type name that is a list or a mapping is an unknown type, not a crash
    for types in ("[[PER]]", "[{PER: x}]"):
        path = tmp_path / "roles.yaml"
        path.write_text(
            "entities:\n  - name: PER\n    description: a person\n"
            f"events:\n  - name: A\n    template: t\n    roles:\n"
            f"      - name: x\n        types: {types}\n",
            encoding="utf-8",
        )
        assert main(["validate", "--ontology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid ontology:")
        assert "role 'x' uses unknown entity type" in err


def test_rejects_duplicates_and_bad_identifiers(tmp_path, capsys):
    with pytest.raises(ConfigError, match="invalid ontology") as err:
        load_text(
            tmp_path,
            """
entities:
  - name: PER
    description: a person
  - name: PER
    description: again
events:
  - name: "Bad Name!"
    template: t
"""
        )
    message = str(err.value)
    assert "PER" in message
    assert "Bad Name!" in message

    # a name must be an identifier as a whole: a trailing line break is not one
    names = {"entity": "PER", "event": "Move", "role": "x"}
    for where, problem in [
        ("entity", "entity name 'PER\\n' is not a valid identifier"),
        ("event", "event 'Move\\n' derives invalid class name 'Move\\n'"),
        ("role", "event 'Move': role name 'x\\n' is invalid"),
    ]:
        name = {**names, where: names[where] + "\n"}
        path = tmp_path / "names.yaml"
        path.write_text(
            f"entities:\n  - name: {json.dumps(name['entity'])}\n    description: a person\n"
            f"events:\n  - name: {json.dumps(name['event'])}\n    template: t\n    roles:\n"
            f"      - name: {json.dumps(name['role'])}\n        types: [PER]\n",
            encoding="utf-8",
        )
        assert main(["validate", "--ontology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid ontology:")
        assert problem in err


def test_rejects_unknown_top_level_keys(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown top-level keys"):
        load_text(tmp_path, "entities: []\nevents: []\nextras: []\n")
    # keys of different types are listed, not compared
    path = tmp_path / "keys.yaml"
    path.write_text("1: a\nfoo: b\n", encoding="utf-8")
    assert main(["validate", "--ontology", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown top-level keys: [1, 'foo']\n"


def test_rejects_empty_description(tmp_path):
    with pytest.raises(ConfigError, match="invalid ontology"):
        load_text(
            tmp_path,
            """
entities:
  - name: PER
    description: ""
events: []
"""
        )


def test_colliding_class_names_rejected(tmp_path):
    # distinct raw names that derive to the same class identifier
    with pytest.raises(ConfigError, match="invalid ontology"):
        load_text(
            tmp_path,
            """
entities: []
events:
  - name: "A:Foo-Bar"
    template: t
  - name: "B:Foo_Bar"
    template: t
  - name: A
    template: t
  - name: B
    template: t
"""
        )


PER = {"name": "PER", "description": "a person"}
ROLE_X = {"name": "x", "types": ["PER"]}


def _event(**fields):
    return {"name": "A", "template": "t", **fields}


# case -> (an ontology document, the exit code of ``validate`` on it, what it writes to stderr)
VALIDATE_ONTOLOGY = {
    "parent-a-number": (
        {"entities": [PER], "events": [_event(parent=3)]},
        2, "error: invalid ontology:\n  event 'A': parent must be a string\n",
    ),
    "own-parent": (
        {"entities": [PER], "events": [_event(parent="A")]},
        2, "error: invalid ontology:\n  event 'A' is its own parent\n",
    ),
    "keywords-empty-or-a-number": (
        {"entities": [PER], "events": [_event(keywords=["", 1])]},
        2, "error: invalid ontology:\n  event 'A': keywords must be non-empty strings\n",
    ),
    "keywords-a-string": (
        {"entities": [PER], "events": [_event(keywords="abc")]},
        2, "error: invalid ontology:\n  event 'A': keywords must be non-empty strings\n",
    ),
    "roles-a-mapping": (
        {"entities": [PER], "events": [_event(roles={"x": ["PER"]})]},
        2, "error: event 'A': roles must be a list\n",
    ),
    "role-a-string": (
        {"entities": [PER], "events": [_event(roles=["x"])]},
        2, "error: event 'A': each role must be a mapping\n",
    ),
    "role-description-a-number": (
        {"entities": [PER], "events": [_event(roles=[{**ROLE_X, "description": 3}])]},
        2, "error: invalid ontology:\n  event 'A': role 'x' description must be text\n",
    ),
    "entities-not-a-list": ({"entities": "PER"}, 2, "error: 'entities' must be a list\n"),
    "events-not-a-list": ({"events": "A"}, 2, "error: 'events' must be a list\n"),
    "entity-not-a-mapping": ({"entities": ["PER"]}, 2, "error: entities[0] must be a mapping\n"),
    "event-not-a-mapping": ({"events": ["A"]}, 2, "error: events[0] must be a mapping\n"),
    "event-name-empty": (
        {"events": [_event(name="")]},
        2, "error: invalid ontology:\n  events[0] has no usable name\n",
    ),
    "event-name-a-list": (
        {"events": [_event(name=["A"])]},
        2, "error: invalid ontology:\n  events[0] has no usable name\n",
    ),
    "document-a-list": ([PER], 2, "error: ontology document must be a mapping\n"),
    # an empty document is an ontology with no types, and null roles or a null
    # role description are none
    "empty-document": (None, 0, ""),
    "roles-null": ({"events": [_event(roles=None)]}, 0, ""),
    "role-description-null": (
        {"entities": [PER], "events": [_event(roles=[{**ROLE_X, "description": None}])]}, 0, ""
    ),
}


@pytest.mark.parametrize("case", VALIDATE_ONTOLOGY)
def test_validate_rejects_a_malformed_ontology_with_its_message(tmp_path, capsys, case):
    document, code, err = VALIDATE_ONTOLOGY[case]
    path = tmp_path / "ontology.yaml"
    path.write_text("" if document is None else json.dumps(document), encoding="utf-8")
    assert main(["validate", "--ontology", str(path)]) == code
    assert capsys.readouterr().err == err


HUGE = "x" * 300_000
# case -> an ontology document quoting a 300,000-character value in its error
HUGE_ONTOLOGY_VALUES = {
    "entity-name": {"entities": [{"name": HUGE + "!", "description": "d"}]},
    "class-name-collision": {"events": [_event(name="A:" + HUGE), _event(name="B:" + HUGE)]},
    "parent": {"events": [_event(parent=HUGE)]},
    "role-name": {"entities": [PER], "events": [_event(roles=[{"name": HUGE + "!"}])]},
    "role-type": {"entities": [PER], "events": [_event(roles=[{**ROLE_X, "types": [HUGE]}])]},
    "template-placeholder": {"events": [_event(template="{" + HUGE + "}")]},
}


@pytest.mark.parametrize("case", HUGE_ONTOLOGY_VALUES)
def test_a_huge_value_in_an_ontology_error_is_quoted_short(tmp_path, capsys, case):
    path = tmp_path / "ontology.yaml"
    path.write_text(json.dumps(HUGE_ONTOLOGY_VALUES[case]), encoding="utf-8")
    assert main(["validate", "--ontology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid ontology:\n  ")
    assert "xxx...xxx" in err and len(err) < 500
