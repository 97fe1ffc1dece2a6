"""Extended belief state: domain-slot-value triples, the ruk slot and the turn topic.

The state of a turn grounded on structured knowledge is a plain set of
domain-slot-value (DSV) triples.  Turns grounded on unstructured knowledge
additionally carry one triple whose slot is ``ruk`` (its domain names the
involved domain, its value the involved entity) plus a short topic word
sequence abstracting what the user asks about.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ConflictError, FormatError, InvariantError

if TYPE_CHECKING:
    from .corpus import Document

RUK_SLOT = "ruk"
RUK_DOMAINS = frozenset({"restaurant", "hotel", "taxi", "train"})

#: ruk value used for domains whose documents have no entity (taxi, train).
NO_ENTITY = "none"

#: Slot value that imposes no constraint in database queries.
DONTCARE = "dontcare"

#: A topic is an ordered sequence of lowercase tokens; may be empty.
Topic = tuple[str, ...]

_WS_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase, strip and collapse internal whitespace runs."""
    return _WS_RE.sub(" ", text.strip()).lower()


@dataclass(frozen=True, order=True)
class DsvTriple:
    domain: str
    slot: str
    value: str

    @property
    def is_ruk(self) -> bool:
        return self.slot == RUK_SLOT


@dataclass(frozen=True)
class ExtendedBeliefState:
    """Immutable belief state: DSV triples plus an optional topic word sequence.

    Invariants enforced on construction:
      * (domain, slot) is unique among the triples,
      * at most one triple has the ruk slot, and its domain is one of the
        four document-base domains,
      * a non-empty topic requires the ruk triple to be present,
      * every component is non-empty once normalized, topic words contain
        no whitespace.

    Triples are kept sorted by (domain, slot) so that structurally equal
    states compare equal.
    """

    triples: tuple[DsvTriple, ...] = ()
    topic: Topic = ()

    def __post_init__(self):
        triples = tuple(sorted(self.triples))
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "topic", tuple(self.topic))
        self._validate()

    def _validate(self):
        seen: set[tuple[str, str]] = set()
        ruk_count = 0
        for t in self.triples:
            if not normalize_text(t.domain) or not normalize_text(t.slot) or not normalize_text(t.value):
                raise InvariantError(f"triple {t!r} has an empty component after normalization")
            key = (t.domain, t.slot)
            if key in seen:
                raise InvariantError(f"duplicate (domain, slot) pair {key!r} in state")
            seen.add(key)
            if t.is_ruk:
                ruk_count += 1
                if normalize_text(t.domain) not in RUK_DOMAINS:
                    raise InvariantError(f"ruk domain {t.domain!r} not in {sorted(RUK_DOMAINS)}")
        if ruk_count > 1:
            raise InvariantError("state contains more than one ruk triple")
        for w in self.topic:
            if not w or _WS_RE.search(w):
                raise InvariantError(f"bad topic token {w!r}")
        if self.topic and ruk_count == 0:
            raise InvariantError("non-empty topic requires a ruk triple")

    @property
    def ruk_triple(self) -> DsvTriple | None:
        for t in self.triples:
            if t.is_ruk:
                return t
        return None

    @property
    def non_ruk_triples(self) -> tuple[DsvTriple, ...]:
        return tuple(t for t in self.triples if not t.is_ruk)


def extend_label(
    original_state: ExtendedBeliefState,
    doc: "tuple[Document, Sequence[str]] | None" = None,
) -> ExtendedBeliefState:
    """Extend a plain DSV state with the gold document's domain, entity and topic.

    ``doc`` pairs the relevant document with its indexed topic words.  When
    present, a ruk triple (document domain, ruk, entity or the literal
    ``none`` for entity-less domains) is added and the topic is set to the
    document's topic words.  When absent the state is returned unchanged
    with an empty topic.  Non-ruk triples are never modified.
    """
    triples = original_state.triples
    for t in triples:
        if t.is_ruk:
            raise ConflictError(f"state already contains a ruk triple: {t!r}")
    if doc is None:
        return ExtendedBeliefState(triples=triples)
    document, topic_words = doc
    entity = normalize_text(document.entity) if document.entity else NO_ENTITY
    ruk = DsvTriple(domain=document.domain, slot=RUK_SLOT, value=entity)
    return ExtendedBeliefState(triples=triples + (ruk,), topic=tuple(topic_words))


def _canonical_value(value: str, canon_map: Mapping[str, str]) -> str:
    # Follow substitution chains to a fixpoint so normalize stays idempotent
    # even for maps like {"a": "b", "b": "c"}; cycles stop at first revisit.
    seen = {value}
    while value in canon_map:
        value = canon_map[value]
        if value in seen:
            break
        seen.add(value)
    return value


def normalize_state(
    state: ExtendedBeliefState, canon_map: Mapping[str, str] | None = None
) -> ExtendedBeliefState:
    """Normalize every component and apply the value-canonicalization table.

    Lowercases, trims and collapses whitespace in domains, slots, values and
    topic words, then maps values through ``canon_map``.  Idempotent.  If two
    triples collide on (domain, slot) after normalization, the
    lexicographically least value wins (keeps the operation total).
    """
    canon = canon_map or {}
    by_key: dict[tuple[str, str], str] = {}
    for t in state.triples:
        d, s = normalize_text(t.domain), normalize_text(t.slot)
        v = _canonical_value(normalize_text(t.value), canon)
        prev = by_key.get((d, s))
        if prev is None or v < prev:
            by_key[(d, s)] = v
    triples = tuple(DsvTriple(d, s, v) for (d, s), v in by_key.items())
    topic = tuple(w.lower() for w in state.topic)
    return ExtendedBeliefState(triples=triples, topic=topic)


def serialize_state(state: ExtendedBeliefState) -> str:
    """Render the flat interchange format ``domain-slot: value; ... | topic: w1 w2``.

    Triples appear in lexicographic (domain, slot) order; the topic section
    is omitted when the topic is empty; the empty state serializes to "".
    """
    parts = [f"{t.domain}-{t.slot}: {t.value}" for t in state.triples]
    text = "; ".join(parts)
    if state.topic:
        text += f" | topic: {' '.join(state.topic)}"
    return text


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def parse_state(text: str) -> ExtendedBeliefState:
    """Parse the flat interchange format produced by :func:`serialize_state`.

    Raises FormatError (with the byte offset of the offending segment) on
    malformed input, including states that violate the type invariants.
    """
    if not text.strip():
        return ExtendedBeliefState()

    head, sep, tail = text.partition("|")
    topic: tuple[str, ...] = ()
    if sep:
        tail_offset = len(head) + 1
        if "|" in tail:
            raise FormatError("more than one '|' section", _byte_offset(text, tail_offset + tail.index("|")))
        stripped = tail.strip()
        if not stripped.startswith("topic:"):
            raise FormatError("expected 'topic:' after '|'", _byte_offset(text, tail_offset))
        topic = tuple(stripped[len("topic:"):].split())

    triples = []
    pos = 0
    for segment in head.split(";"):
        seg_offset = pos
        pos += len(segment) + 1
        if not segment.strip():
            if not head.strip() and not triples:
                break  # "| topic: ..." with no triples is caught by invariants below
            raise FormatError("empty triple segment", _byte_offset(text, seg_offset))
        key, colon, value = segment.partition(":")
        if not colon:
            raise FormatError("triple segment is missing ':'", _byte_offset(text, seg_offset))
        domain, dash, slot = key.strip().partition("-")
        if not dash or not domain.strip() or not slot.strip():
            raise FormatError("triple key is not of the form domain-slot", _byte_offset(text, seg_offset))
        if not value.strip():
            raise FormatError("triple has an empty value", _byte_offset(text, seg_offset))
        triples.append(DsvTriple(domain.strip(), slot.strip(), value.strip()))

    try:
        return ExtendedBeliefState(triples=tuple(triples), topic=topic)
    except InvariantError as exc:
        raise FormatError(str(exc), 0) from exc


def state_vocabularies(
    states: Iterable[ExtendedBeliefState], tokenizer
) -> tuple[set[str], set[str], set[str]]:
    """Token vocabularies of the DSV part, the topic part and their combination.

    The DSV part of every state is serialized flat and run through
    ``tokenizer``; topic words are tokens already.  Returns (dsv_vocab,
    topic_vocab, combined_vocab) where combined is the union, so
    ``|dsv| + |topic| >= |combined|`` always holds.
    """
    dsv_vocab: set[str] = set()
    topic_vocab: set[str] = set()
    for state in states:
        dsv_only = ExtendedBeliefState(triples=state.triples)
        dsv_vocab.update(tokenizer(serialize_state(dsv_only)))
        topic_vocab.update(state.topic)
    return dsv_vocab, topic_vocab, dsv_vocab | topic_vocab
