"""Belief state construction, extension, serialization and normalization."""

import random

import pytest

from hybridkm import (
    NO_ENTITY,
    ConflictError,
    Document,
    DsvTriple,
    ExtendedBeliefState,
    FormatError,
    InvariantError,
    extend_label,
    normalize_state,
    normalize_text,
    parse_state,
    serialize_state,
    state_vocabularies,
)


def make_state(*triples, topic=()):
    return ExtendedBeliefState(
        triples=tuple(DsvTriple(*t) for t in triples), topic=tuple(topic)
    )


def test_normalize_text_collapses_whitespace_and_case():
    assert normalize_text("  Alpha   BISTRO\t ") == "alpha bistro"
    assert normalize_text("") == ""


def test_triples_are_sorted_on_construction():
    state = make_state(("hotel", "area", "west"), ("hotel", "parking", "yes"))
    swapped = make_state(("hotel", "parking", "yes"), ("hotel", "area", "west"))
    assert state == swapped
    assert [t.slot for t in state.triples] == ["area", "parking"]


def test_duplicate_domain_slot_rejected():
    with pytest.raises(InvariantError):
        make_state(("hotel", "area", "west"), ("hotel", "area", "centre"))


def test_two_ruk_triples_rejected():
    with pytest.raises(InvariantError):
        make_state(("hotel", "ruk", "city lodge"), ("train", "ruk", "none"))


def test_ruk_domain_must_have_documents():
    with pytest.raises(InvariantError):
        make_state(("attraction", "ruk", "museum"))


def test_topic_requires_ruk():
    with pytest.raises(InvariantError):
        ExtendedBeliefState(triples=(), topic=("dogs",))


def test_topic_tokens_must_be_words():
    with pytest.raises(InvariantError):
        make_state(("hotel", "ruk", "city lodge"), topic=("two words",))


def test_empty_component_rejected():
    with pytest.raises(InvariantError):
        make_state(("hotel", "area", "   "))


def test_ruk_accessors():
    state = make_state(("hotel", "area", "west"), ("hotel", "ruk", "river inn"), topic=("pets",))
    assert state.ruk_triple == DsvTriple("hotel", "ruk", "river inn")
    assert state.non_ruk_triples == (DsvTriple("hotel", "area", "west"),)


def test_extend_label_with_entity_document():
    doc = Document(id="d1", domain="hotel", entity="City  Lodge", body="x")
    state = make_state(("hotel", "area", "centre"))
    extended = extend_label(state, (doc, ("breakfast",)))
    assert extended.ruk_triple == DsvTriple("hotel", "ruk", "city lodge")
    assert extended.topic == ("breakfast",)
    assert extended.non_ruk_triples == state.triples


def test_extend_label_entity_less_document_uses_none():
    doc = Document(id="d2", domain="taxi", entity=None, body="x")
    extended = extend_label(make_state(), (doc, ("luggage",)))
    assert extended.ruk_triple.value == NO_ENTITY


def test_extend_label_without_document_is_identity_on_triples():
    state = make_state(("train", "day", "monday"))
    assert extend_label(state).triples == state.triples


def test_extend_label_refuses_double_extension():
    doc = Document(id="d3", domain="train", entity=None, body="x")
    extended = extend_label(make_state(), (doc, ("refund",)))
    with pytest.raises(ConflictError):
        extend_label(extended, (doc, ("refund",)))


def test_normalize_state_lowercases_and_canonicalizes():
    state = make_state(("Hotel", "Area", "  WEST  "))
    normalized = normalize_state(state, {"west": "w."})
    assert normalized.triples == (DsvTriple("hotel", "area", "w."),)


def test_normalize_state_follows_canon_chains():
    state = make_state(("hotel", "area", "a"))
    normalized = normalize_state(state, {"a": "b", "b": "c"})
    assert normalized.triples[0].value == "c"
    # cycles terminate rather than hanging
    cyclic = normalize_state(state, {"a": "b", "b": "a"})
    assert cyclic.triples[0].value in {"a", "b"}


def test_normalize_state_collision_keeps_least_value():
    state = make_state(("hotel", "area", "West"), ("HOTEL", "AREA", "centre"))
    normalized = normalize_state(state)
    assert normalized.triples == (DsvTriple("hotel", "area", "centre"),)


def test_normalize_state_idempotent():
    rng = random.Random(7)
    values = ["West", " CENTRE ", "b&b", "09:00"]
    canon = {"centre": "center"}
    for _ in range(50):
        state = make_state(
            ("hotel", "area", rng.choice(values)),
            ("train", "leaveat", rng.choice(values)),
        )
        once = normalize_state(state, canon)
        assert normalize_state(once, canon) == once


def test_serialize_flat_format():
    state = make_state(
        ("restaurant", "food", "italian"),
        ("restaurant", "ruk", "alpha bistro"),
        topic=("dogs",),
    )
    assert serialize_state(state) == (
        "restaurant-food: italian; restaurant-ruk: alpha bistro | topic: dogs"
    )


def test_serialize_empty_state():
    assert serialize_state(ExtendedBeliefState()) == ""
    assert parse_state("") == ExtendedBeliefState()
    assert parse_state("   ") == ExtendedBeliefState()


def test_serialize_omits_topic_section_when_empty():
    state = make_state(("train", "ruk", "none"))
    assert "|" not in serialize_state(state)


def test_parse_round_trip_random_states():
    rng = random.Random(21)
    domains = ["restaurant", "hotel", "train", "taxi"]
    slots = ["area", "food", "day", "leaveat"]
    values = ["centre", "italian", "monday", "09:00", "north london"]
    for _ in range(200):
        picks = rng.sample([(d, s) for d in domains for s in slots], k=rng.randint(0, 4))
        triples = [DsvTriple(d, s, rng.choice(values)) for d, s in picks]
        topic = ()
        if rng.random() < 0.5:
            ruk_domain = rng.choice(domains)
            if all(t.domain != ruk_domain or t.slot != "ruk" for t in triples):
                triples.append(DsvTriple(ruk_domain, "ruk", rng.choice(values + ["none"])))
                topic = tuple(rng.sample(["dogs", "parking", "fee", "wifi"], k=rng.randint(1, 3)))
        state = ExtendedBeliefState(triples=tuple(triples), topic=topic)
        assert parse_state(serialize_state(state)) == state


def test_parse_reports_byte_offset_of_bad_segment():
    with pytest.raises(FormatError) as exc_info:
        parse_state("hotel-area: west; hotel-parking yes")
    assert exc_info.value.offset == len("hotel-area: west;")
    # multi-byte characters before the bad segment count as bytes, not chars
    with pytest.raises(FormatError) as exc_info:
        parse_state("hotel-area: café; hotel-parking yes")
    assert exc_info.value.offset == len("hotel-area: café;".encode("utf-8"))


@pytest.mark.parametrize(
    "text",
    [
        "hotel-area west",  # missing colon
        "hotelarea: west",  # key without dash
        "hotel-area: ",  # empty value
        "hotel-area: west;; hotel-parking: yes",  # empty segment
        "hotel-ruk: x | topic: a | topic: b",  # two topic sections
        "hotel-area: west | words: a",  # bad section name
        "attraction-ruk: museum",  # invariant violation surfaces as FormatError
        "hotel-area: west | topic: a",  # topic without ruk
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(FormatError):
        parse_state(text)


def test_state_vocabularies_union():
    states = [
        make_state(("restaurant", "food", "italian")),
        make_state(("restaurant", "ruk", "alpha bistro"), topic=("dogs", "terrace")),
    ]
    dsv, topic, combined = state_vocabularies(states, tokenizer=str.split)
    assert "restaurant-food:" in dsv
    assert topic == {"dogs", "terrace"}
    assert combined == dsv | topic
    assert len(combined) <= len(dsv) + len(topic)
