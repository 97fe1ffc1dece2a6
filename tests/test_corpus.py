"""Loading, validation and statistics of dialogs, documents and the database."""

import json

import pytest

from hybridkm import (
    DsvTriple,
    DuplicateIdError,
    ParseError,
    SchemaError,
    TurnKind,
    UnknownDomainError,
    UnknownSlotError,
    build_context,
    corpus_stats,
    load_corpus,
    load_database,
    load_document_base,
    load_ontology,
    save_corpus,
    unresolvable_doc_refs,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def minimal_dialog(dialog_id="d1", split="test", turns=None):
    if turns is None:
        turns = [
            {
                "index": 1,
                "user": "hi",
                "response": "hello",
                "kind": "original",
                "state": {"triples": {}},
            }
        ]
    return {"id": dialog_id, "split": split, "goal": {}, "turns": turns}


def test_load_synthetic_corpus(corpus):
    assert len(corpus) == 8
    dialog = corpus.dialogs["tst-001"]
    assert dialog.split == "test"
    assert dialog.turns[1].kind is TurnKind.INSERTED
    assert dialog.turns[1].doc_id == "rest-alpha-dogs"
    assert DsvTriple("restaurant", "food", "italian") in dialog.turns[0].state.triples
    assert dialog.goal.domains["restaurant"].requests == ("phone",)


def test_save_load_round_trip(corpus, tmp_path):
    out = tmp_path / "saved.json"
    save_corpus(corpus, out)
    reloaded = load_corpus(out)
    assert set(reloaded.dialogs) == set(corpus.dialogs)
    for dialog_id, dialog in corpus.dialogs.items():
        assert reloaded.dialogs[dialog_id].turns == dialog.turns
        assert reloaded.dialogs[dialog_id].goal == dialog.goal


def test_corpus_rejects_wrong_schema_version(tmp_path):
    path = write_json(tmp_path / "c.json", {"schema_version": "0", "dialogs": []})
    with pytest.raises(SchemaError):
        load_corpus(path)


@pytest.mark.parametrize("dialogs", [{"d1": {}}, "d1", None])
def test_corpus_dialogs_must_be_a_list(tmp_path, dialogs):
    path = write_json(tmp_path / "c.json", {"schema_version": "1", "dialogs": dialogs})
    with pytest.raises(SchemaError, match="dialogs must be a JSON list"):
        load_corpus(path)


def test_corpus_keeps_file_order_of_dialogs(tmp_path):
    ids = ["d3", "d1", "d2"]
    path = write_json(tmp_path / "c.json", {"schema_version": "1", "dialogs": [minimal_dialog(i) for i in ids]})
    assert list(load_corpus(path).dialogs) == ids


def test_corpus_rejects_duplicate_dialog_ids(tmp_path):
    obj = {"schema_version": "1", "dialogs": [minimal_dialog(), minimal_dialog()]}
    path = write_json(tmp_path / "c.json", obj)
    with pytest.raises(DuplicateIdError):
        load_corpus(path)


def test_corpus_rejects_unknown_split(tmp_path):
    obj = {"schema_version": "1", "dialogs": [minimal_dialog(split="validation")]}
    path = write_json(tmp_path / "c.json", obj)
    with pytest.raises(SchemaError):
        load_corpus(path)


def test_corpus_rejects_gapped_turn_indices(tmp_path):
    turns = [
        {"index": 1, "user": "a", "response": "b", "kind": "original", "state": {"triples": {}}},
        {"index": 3, "user": "c", "response": "d", "kind": "original", "state": {"triples": {}}},
    ]
    path = write_json(
        tmp_path / "c.json", {"schema_version": "1", "dialogs": [minimal_dialog(turns=turns)]}
    )
    with pytest.raises(SchemaError):
        load_corpus(path)


def test_inserted_turn_requires_doc_id(tmp_path):
    turns = [
        {"index": 1, "user": "a", "response": "b", "kind": "inserted", "state": {"triples": {}}},
    ]
    path = write_json(
        tmp_path / "c.json", {"schema_version": "1", "dialogs": [minimal_dialog(turns=turns)]}
    )
    with pytest.raises(SchemaError):
        load_corpus(path)


def test_original_turn_must_not_carry_doc_id(tmp_path):
    turns = [
        {
            "index": 1,
            "user": "a",
            "response": "b",
            "kind": "original",
            "state": {"triples": {}},
            "doc_id": "x",
        },
    ]
    path = write_json(
        tmp_path / "c.json", {"schema_version": "1", "dialogs": [minimal_dialog(turns=turns)]}
    )
    with pytest.raises(SchemaError):
        load_corpus(path)


def test_corpus_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_corpus(path)


def test_goal_domain_checked_against_ontology(tmp_path, ontology):
    dialog = minimal_dialog()
    dialog["goal"] = {"attraction": {"constraints": {}, "requests": []}}
    path = write_json(tmp_path / "c.json", {"schema_version": "1", "dialogs": [dialog]})
    with pytest.raises(SchemaError):
        load_corpus(path, ontology=ontology)
    # without an ontology the same corpus loads
    assert len(load_corpus(path)) == 1


@pytest.mark.parametrize(
    "goal, message",
    [
        ({"hotel": ["x"]}, "goal for domain 'hotel' must be an object"),
        ({"hotel": "cheap"}, "goal for domain 'hotel' must be an object"),
        ({"hotel": {"constraints": ["area", "north"]}}, "goal constraints for domain 'hotel' must be an object"),
        ({"hotel": {"constraints": {}, "requests": "phone"}}, "goal requests for domain 'hotel' must be a list"),
        ({"hotel": {"requests": ["phone", 3]}}, "goal requests for domain 'hotel' must be a list"),
    ],
)
def test_goal_of_the_wrong_shape_is_a_schema_error(tmp_path, goal, message):
    dialog = minimal_dialog(dialog_id="d7")
    dialog["goal"] = goal
    path = write_json(tmp_path / "c.json", {"schema_version": "1", "dialogs": [dialog]})
    with pytest.raises(SchemaError, match=message) as exc:
        load_corpus(path)
    assert "dialog 'd7'" in str(exc.value)


def test_document_base_grouping(base):
    assert len(base) == 14
    assert base.domains() == ("hotel", "restaurant", "taxi", "train")
    assert base.entities("restaurant") == ("alpha bistro", "beta curry house")
    alpha = base.group("restaurant", "alpha bistro")
    assert [d.id for d in alpha] == ["rest-alpha-dogs", "rest-alpha-vegan", "rest-alpha-wifi"]
    assert base.entities("taxi") == ()
    assert len(base.group("taxi", None)) == 2


def test_document_base_rejects_duplicates(tmp_path):
    docs = {
        "documents": [
            {"id": "d", "domain": "taxi", "body": "x"},
            {"id": "d", "domain": "train", "body": "y"},
        ]
    }
    path = write_json(tmp_path / "docs.json", docs)
    with pytest.raises(DuplicateIdError):
        load_document_base(path)


def test_document_base_rejects_unknown_domain(tmp_path):
    docs = {"documents": [{"id": "d", "domain": "attraction", "body": "x"}]}
    path = write_json(tmp_path / "docs.json", docs)
    with pytest.raises(UnknownDomainError):
        load_document_base(path)


def test_database_entries_and_identity(db):
    rows = db.tables["restaurant"]
    assert len(rows) == 3
    assert rows[0].identity() == "alpha bistro"
    assert rows[0].bookable
    assert db.tables["train"][0].identity() == "tr1234"


def test_database_slot_validation(tmp_path, ontology):
    data = {"restaurant": [{"slots": {"stars": "5"}, "bookable": False}]}
    path = write_json(tmp_path / "db.json", data)
    with pytest.raises(UnknownSlotError):
        load_database(path, ontology=ontology)
    # unvalidated load accepts any slot names
    assert load_database(path).tables["restaurant"][0].slots["stars"] == "5"


def test_ontology_shape(ontology):
    assert ontology.domains == ("restaurant", "hotel", "taxi", "train")
    assert "italian" in ontology.slots["restaurant-food"]


def test_corpus_stats_from_ontology(corpus):
    stats = corpus_stats(corpus)
    assert stats.dialogs_per_split == {"train": 2, "dev": 2, "test": 4}
    assert stats.avg_turns == pytest.approx(18 / 8)
    # ruk slots are excluded from both counts
    assert stats.slot_types == 15
    assert stats.slot_values == 31


def test_corpus_stats_observed_fallback(data_dir):
    corpus = load_corpus(data_dir / "corpus.json")  # no ontology attached
    stats = corpus_stats(corpus)
    observed_types = {
        (t.domain, t.slot)
        for dialog in corpus
        for turn in dialog.turns
        for t in turn.state.triples
        if not t.is_ruk
    }
    assert stats.slot_types == len(observed_types)
    assert stats.slot_values >= stats.slot_types


def test_build_context_first_and_later_turns(corpus):
    dialog = corpus.dialogs["tst-001"]
    assert build_context(dialog, 1) == [dialog.turns[0].user]
    assert build_context(dialog, 2) == [dialog.turns[0].response, dialog.turns[1].user]
    with pytest.raises(IndexError):
        build_context(dialog, 4)
    with pytest.raises(IndexError):
        build_context(dialog, 0)


def test_unresolvable_doc_refs(corpus, base, tmp_path):
    assert unresolvable_doc_refs(corpus, base) == []
    docs = {"documents": [{"id": "only-doc", "domain": "taxi", "body": "x"}]}
    thin = load_document_base(write_json(tmp_path / "docs.json", docs))
    missing = unresolvable_doc_refs(corpus, thin)
    assert ("tst-001", 2, "rest-alpha-dogs") in missing
    assert len(missing) == 6
