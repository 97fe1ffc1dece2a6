"""Loading, validation and statistics of dialogs, documents and the database."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkm import (
    DsvTriple,
    ExtendedBeliefState,
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


@pytest.mark.parametrize(
    "turn_patch, message",
    [
        ({"state": {"triples": {"hotel-ruk": "alpha"}, "topic": "cheap"}}, "topic must be a list of strings"),
        ({"state": {"triples": {"hotel-ruk": "alpha"}, "topic": [["cheap"]]}}, "topic must be a list of strings"),
        ({"state": {"triples": {"hotel-area": None}}}, "value of triple 'hotel-area' must be a string"),
        ({"state": {"triples": {"hotel-area": ["north"]}}}, "value of triple 'hotel-area' must be a string"),
        ({"state": {"triples": [["hotel-area", "north"]]}}, "state triples must be an object"),
        ({"user": None}, "user must be a string"),
        ({"response": 5}, "response must be a string"),
    ],
)
def test_turn_of_the_wrong_shape_is_a_schema_error(tmp_path, turn_patch, message):
    turn = {"index": 1, "user": "hi", "response": "hello", "kind": "original", "state": {"triples": {}}}
    turn.update(turn_patch)
    path = write_json(tmp_path / "c.json", {"schema_version": "1", "dialogs": [minimal_dialog("d7", turns=[turn])]})
    with pytest.raises(SchemaError, match=message) as exc:
        load_corpus(path)
    assert "dialog 'd7' turn 1" in str(exc.value)


# ---------------------------------------------------------------------------
# one shared state object per distinct state within a load


def _turn(index, state):
    return {"index": index, "user": "u", "response": "r", "kind": "original", "state": state}


def test_equal_states_in_one_load_are_one_object(tmp_path):
    a = {"triples": {"hotel-area": "north", "hotel-price": "cheap"}}
    b = {"triples": {"hotel-area": "south"}}
    dialogs = [
        minimal_dialog("d1", turns=[_turn(1, a), _turn(2, b), _turn(3, a)]),
        minimal_dialog("d2", turns=[_turn(1, b), _turn(2, a)]),
    ]
    path = write_json(tmp_path / "c.json", {"schema_version": "1", "dialogs": dialogs})
    corpus = load_corpus(path)
    d1, d2 = corpus.dialogs["d1"].turns, corpus.dialogs["d2"].turns
    assert d1[0].state is d1[2].state is d2[1].state
    assert d1[1].state is d2[0].state
    assert d1[0].state is not d1[1].state
    # a second load builds its own objects: the memo lives for one call
    again = load_corpus(path).dialogs["d1"].turns
    assert again[0].state == d1[0].state
    assert again[0].state is not d1[0].state


def test_loaded_records_are_slotted(corpus):
    turn = corpus.dialogs["tst-001"].turns[1]
    for record in (turn, turn.state, turn.state.triples[0]):
        assert not hasattr(record, "__dict__")


# The parent commit's per-turn state parser, kept as the reference that the
# shared-state loader must equal.
def _oracle_state(obj, context):
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: state must be an object")
    triples = []
    for key, value in obj["triples"].items():
        domain, dash, slot = key.partition("-")
        if not dash or not domain or not slot:
            raise SchemaError(f"{context}: bad triple key {key!r} (expected domain-slot)")
        triples.append(DsvTriple(domain, slot, str(value)))
    topic = tuple(obj.get("topic", ()))
    return ExtendedBeliefState(triples=tuple(triples), topic=topic)


_PAIRS = [("hotel-area", "north"), ("hotel-price", "cheap"), ("restaurant-food", "thai"), ("train-day", "monday")]
_MALFORMED = [
    {"triples": {"hotelarea": "north"}},  # key without a dash
    {"triples": {"hotel-area": "north"}, "topic": ["parking"]},  # topic without a ruk triple
    {"triples": {"hotel-area": "  "}},  # empty value once normalized
    {"triples": {"hotel-ruk": "alpha"}, "topic": ["free parking"]},  # topic word with a space
]


@st.composite
def json_states(draw):
    pairs = draw(st.lists(st.sampled_from(_PAIRS), unique=True, max_size=4))
    state = {"triples": dict(draw(st.permutations(pairs)))}
    if draw(st.booleans()):
        state["triples"]["hotel-ruk"] = draw(st.sampled_from(["alpha", "none"]))
        topic = draw(st.lists(st.sampled_from(["parking", "wifi", "dogs"]), max_size=3))
        if topic or draw(st.booleans()):
            state["topic"] = topic
    return state


@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(json_states(), min_size=1, max_size=5),
    picks=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=5), min_size=1, max_size=4),
    malformed=st.none() | st.tuples(st.sampled_from(_MALFORMED), st.integers(0, 3), st.integers(0, 4)),
)
def test_shared_states_equal_the_per_turn_oracle(tmp_path_factory, pool, picks, malformed):
    # Each turn reuses a state of the pool, so states repeat, with triple keys
    # in different orders and the same triples with and without a topic.
    dialogs = [
        minimal_dialog(f"d{i}", turns=[_turn(t, pool[p % len(pool)]) for t, p in enumerate(row, start=1)])
        for i, row in enumerate(picks)
    ]
    if malformed is not None:
        state, d, t = malformed
        turns = dialogs[d % len(dialogs)]["turns"]
        turns[t % len(turns)]["state"] = state
    expected = []
    error = None
    for dialog in dialogs:
        for turn in dialog["turns"]:
            try:
                expected.append(_oracle_state(turn["state"], f"dialog {dialog['id']!r} turn {turn['index']}"))
            except Exception as exc:
                error = error or exc
    path = write_json(tmp_path_factory.getbasetemp() / "shared_states_corpus.json", {"schema_version": "1", "dialogs": dialogs})
    if error is not None:
        with pytest.raises(type(error)) as exc:
            load_corpus(path)
        assert str(exc.value) == str(error)
        return
    loaded = load_corpus(path)
    states = [turn.state for dialog in loaded for turn in dialog.turns]
    assert states == expected
    shared = {}
    for raw, state in zip((t["state"] for d in dialogs for t in d["turns"]), states):
        assert shared.setdefault(json.dumps(raw), state) is state


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
