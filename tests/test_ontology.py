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
