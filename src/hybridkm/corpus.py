"""Loading and validation of dialogs, documents, database and ontology.

All files are UTF-8 JSON in the canonical schemas documented in the README:

  corpus    {"schema_version": "1", "dialogs": [Dialog...]}
  Dialog    {"id", "split", "goal": {domain: {"constraints": {...},
             "requests": [...]}}, "turns": [Turn...]}
  Turn      {"index", "user", "response", "kind",
             "state": {"triples": {"domain-slot": value}, "topic": [w...]},
             "doc_id"?}
  documents {"documents": [{"id", "domain", "entity"?, "body"}...]}
  database  {domain: [{"slots": {...}, "bookable": bool}...]}
  ontology  {"domains": [...], "slots": {"domain-slot": [values...]}}

Text is stored verbatim; normalization happens downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .belief import RUK_SLOT, DsvTriple, ExtendedBeliefState, normalize_text
from .errors import (
    DuplicateIdError,
    ParseError,
    SchemaError,
    UnknownDomainError,
    UnknownSlotError,
)

CORPUS_SCHEMA_VERSION = "1"
SPLITS = ("train", "dev", "test")
DOC_DOMAINS = ("restaurant", "hotel", "taxi", "train")


class TurnKind(str, Enum):
    ORIGINAL = "original"
    INSERTED = "inserted"


@dataclass(frozen=True, slots=True)
class Turn:
    index: int
    user: str
    response: str
    kind: TurnKind
    state: ExtendedBeliefState
    doc_id: str | None = None


@dataclass(frozen=True)
class DomainGoal:
    constraints: Mapping[str, str]
    requests: tuple[str, ...]


@dataclass(frozen=True)
class GoalSpec:
    domains: Mapping[str, DomainGoal]


@dataclass(frozen=True)
class Dialog:
    id: str
    split: str
    turns: tuple[Turn, ...]
    goal: GoalSpec


@dataclass(frozen=True)
class Ontology:
    domains: tuple[str, ...]
    #: "domain-slot" -> tuple of known values
    slots: Mapping[str, tuple[str, ...]]


@dataclass
class DialogCorpus:
    dialogs: dict[str, Dialog]
    schema_version: str = CORPUS_SCHEMA_VERSION
    ontology: Ontology | None = None

    def __iter__(self):
        return iter(self.dialogs.values())

    def __len__(self) -> int:
        return len(self.dialogs)


@dataclass(frozen=True)
class Document:
    id: str
    domain: str
    entity: str | None
    body: str


class DocumentBase:
    """Documents grouped by (domain, normalized entity); entity-less domains
    group by domain alone.  Iteration everywhere is sorted by document id."""

    def __init__(self, documents: Iterable[Document]):
        docs = sorted(documents, key=lambda d: d.id)
        self.documents: dict[str, Document] = {}
        self.groups: dict[tuple[str, str | None], tuple[Document, ...]] = {}
        grouping: dict[tuple[str, str | None], list[Document]] = {}
        for doc in docs:
            if doc.id in self.documents:
                raise DuplicateIdError(f"duplicate document id {doc.id!r}")
            self.documents[doc.id] = doc
            key = (doc.domain, normalize_text(doc.entity) if doc.entity else None)
            grouping.setdefault(key, []).append(doc)
        self.groups = {k: tuple(v) for k, v in grouping.items()}

    def __len__(self) -> int:
        return len(self.documents)

    def domain_documents(self, domain: str) -> tuple[Document, ...]:
        return tuple(d for d in self.documents.values() if d.domain == domain)

    def domains(self) -> tuple[str, ...]:
        return tuple(sorted({d.domain for d in self.documents.values()}))

    def entities(self, domain: str) -> tuple[str, ...]:
        """Normalized entity names present in a domain (excludes entity-less docs)."""
        return tuple(sorted({e for (d, e) in self.groups if d == domain and e is not None}))

    def group(self, domain: str, entity: str | None) -> tuple[Document, ...]:
        return self.groups.get((domain, entity), ())


@dataclass(frozen=True)
class DbEntry:
    index: int
    slots: Mapping[str, str]
    bookable: bool

    def identity(self) -> str:
        """Entity reference: the name slot, else the id slot, else the row index."""
        name = self.slots.get("name") or self.slots.get("id")
        return normalize_text(name) if name else f"#{self.index}"


@dataclass
class Database:
    tables: dict[str, tuple[DbEntry, ...]]


@dataclass(frozen=True)
class CorpusStats:
    dialogs_per_split: Mapping[str, int]
    avg_turns: float
    slot_types: int
    slot_values: int


def read_json(path, kind: type, what: str):
    """The JSON value in the file at ``path``, whose top level must be a
    ``kind``: ``dict``, ``list``, or ``object`` for any value.  Malformed or
    too deeply nested JSON is a ``ParseError``."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, kind):
        raise SchemaError(f"{path}: {what} must be a JSON {'object' if kind is dict else 'list'}")
    return data


def _require(obj: Mapping, key: str, context: str):
    if key not in obj:
        raise SchemaError(f"{context}: missing field {key!r}")
    return obj[key]


#: A JSON state by its content: its triples as (key, value) pairs in file
#: order, then its topic words.
_StateKey = tuple[tuple[tuple[str, str], ...], tuple[str, ...]]


def _parse_state_obj(obj, context: str, states: dict[_StateKey, ExtendedBeliefState]) -> ExtendedBeliefState:
    """Validate a JSON state and return its state object.

    ``states`` is the memo of one loader call: equal JSON states get one
    shared (immutable) object, parsed at their first occurrence.  A state
    that fails is never stored, so each occurrence raises with its own
    context.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: state must be an object")
    raw_triples = _require(obj, "triples", context)
    if not isinstance(raw_triples, dict):
        raise SchemaError(f"{context}: state triples must be an object")
    for key, value in raw_triples.items():
        if not isinstance(value, str):
            raise SchemaError(f"{context}: value of triple {key!r} must be a string, got {value!r}")
    topic = obj.get("topic", [])
    if not isinstance(topic, list) or not all(isinstance(w, str) for w in topic):
        raise SchemaError(f"{context}: state topic must be a list of strings, got {topic!r}")
    state_key = (tuple(raw_triples.items()), tuple(topic))
    state = states.get(state_key)
    if state is not None:
        return state
    triples = []
    for key, value in raw_triples.items():
        domain, dash, slot = key.partition("-")
        if not dash or not domain or not slot:
            raise SchemaError(f"{context}: bad triple key {key!r} (expected domain-slot)")
        triples.append(DsvTriple(domain, slot, value))
    state = states[state_key] = ExtendedBeliefState(triples=tuple(triples), topic=tuple(topic))
    return state


def _state_to_obj(state: ExtendedBeliefState) -> dict:
    obj: dict = {"triples": {f"{t.domain}-{t.slot}": t.value for t in state.triples}}
    if state.topic:
        obj["topic"] = list(state.topic)
    return obj


def _parse_turn(obj, dialog_id: str, states: dict[_StateKey, ExtendedBeliefState]) -> Turn:
    ctx = f"dialog {dialog_id!r}"
    index = _require(obj, "index", ctx)
    if isinstance(index, bool) or not isinstance(index, int) or index < 1:
        raise SchemaError(f"{ctx}: turn index must be a positive integer, got {index!r}")
    kind_raw = _require(obj, "kind", ctx)
    try:
        kind = TurnKind(kind_raw)
    except ValueError:
        raise SchemaError(f"{ctx}: unknown turn kind {kind_raw!r}") from None
    doc_id = obj.get("doc_id")
    if kind is TurnKind.INSERTED and not doc_id:
        raise SchemaError(f"{ctx}: inserted turn {index} has no doc_id")
    if kind is TurnKind.ORIGINAL and doc_id is not None:
        raise SchemaError(f"{ctx}: original turn {index} must not carry doc_id")
    if doc_id is not None and not isinstance(doc_id, str):
        raise SchemaError(f"{ctx} turn {index}: doc_id must be a string, got {doc_id!r}")
    for name in ("user", "response"):
        text = _require(obj, name, ctx)
        if not isinstance(text, str):
            raise SchemaError(f"{ctx} turn {index}: {name} must be a string, got {text!r}")
    return Turn(
        index=index,
        user=obj["user"],
        response=obj["response"],
        kind=kind,
        state=_parse_state_obj(_require(obj, "state", ctx), f"{ctx} turn {index}", states),
        doc_id=doc_id,
    )


def _parse_goal(obj, dialog_id: str, ontology: Ontology | None) -> GoalSpec:
    ctx = f"dialog {dialog_id!r}"
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx}: goal must be an object")
    domains = {}
    for domain, spec in obj.items():
        if ontology is not None and domain not in ontology.domains:
            raise SchemaError(f"{ctx}: goal domain {domain!r} not in ontology")
        if not isinstance(spec, dict):
            raise SchemaError(f"{ctx}: goal for domain {domain!r} must be an object")
        constraints = spec.get("constraints", {})
        if not isinstance(constraints, dict) or not all(isinstance(v, str) for v in constraints.values()):
            raise SchemaError(f"{ctx}: goal constraints for domain {domain!r} must be an object of strings")
        requests = spec.get("requests", [])
        if not isinstance(requests, list) or not all(isinstance(r, str) for r in requests):
            raise SchemaError(f"{ctx}: goal requests for domain {domain!r} must be a list of strings")
        domains[domain] = DomainGoal(constraints=dict(constraints), requests=tuple(requests))
    return GoalSpec(domains=domains)


def load_corpus(path, schema_version: str = CORPUS_SCHEMA_VERSION, ontology: Ontology | None = None) -> DialogCorpus:
    """Load and validate a dialog corpus file.

    Rejects duplicate dialog ids and any turn sequence whose indices are not
    consecutive from 1.  An ontology, when given, is attached to the corpus
    and used to validate goal domains.
    """
    data = read_json(path, dict, "corpus file")
    found = data.get("schema_version")
    if found != schema_version:
        raise SchemaError(f"{path}: schema_version {found!r} != expected {schema_version!r}")
    raw_dialogs = _require(data, "dialogs", str(path))
    if not isinstance(raw_dialogs, list):
        raise SchemaError(f"{path}: dialogs must be a JSON list")
    # Take the parsed dialogs off the list front to back, so that each one's
    # JSON is freed once converted: the peak stays near the size of the
    # result instead of the result plus the whole parse tree.
    raw_dialogs.reverse()
    dialogs: dict[str, Dialog] = {}
    states: dict[_StateKey, ExtendedBeliefState] = {}
    while raw_dialogs:
        obj = raw_dialogs.pop()
        dialog_id = str(_require(obj, "id", str(path)))
        if dialog_id in dialogs:
            raise DuplicateIdError(f"duplicate dialog id {dialog_id!r}")
        split = _require(obj, "split", f"dialog {dialog_id!r}")
        if split not in SPLITS:
            raise SchemaError(f"dialog {dialog_id!r}: unknown split {split!r}")
        turns = tuple(_parse_turn(t, dialog_id, states) for t in _require(obj, "turns", f"dialog {dialog_id!r}"))
        if not turns:
            raise SchemaError(f"dialog {dialog_id!r}: turns must be non-empty")
        for i, turn in enumerate(turns, start=1):
            if turn.index != i:
                raise SchemaError(
                    f"dialog {dialog_id!r}: turn indices must be consecutive from 1, "
                    f"got {turn.index} at position {i}"
                )
        goal = _parse_goal(_require(obj, "goal", f"dialog {dialog_id!r}"), dialog_id, ontology)
        dialogs[dialog_id] = Dialog(id=dialog_id, split=split, turns=turns, goal=goal)
    return DialogCorpus(dialogs=dialogs, schema_version=schema_version, ontology=ontology)


def corpus_to_obj(corpus: DialogCorpus) -> dict:
    """Canonical JSON object for a corpus (dialogs sorted by id)."""
    dialogs = []
    for dialog in sorted(corpus.dialogs.values(), key=lambda d: d.id):
        turns = []
        for t in dialog.turns:
            obj = {
                "index": t.index,
                "user": t.user,
                "response": t.response,
                "kind": t.kind.value,
                "state": _state_to_obj(t.state),
            }
            if t.doc_id is not None:
                obj["doc_id"] = t.doc_id
            turns.append(obj)
        goal = {
            domain: {"constraints": dict(g.constraints), "requests": list(g.requests)}
            for domain, g in dialog.goal.domains.items()
        }
        dialogs.append({"id": dialog.id, "split": dialog.split, "goal": goal, "turns": turns})
    return {"schema_version": corpus.schema_version, "dialogs": dialogs}


def save_corpus(corpus: DialogCorpus, path, manifest: Mapping | None = None) -> None:
    obj = corpus_to_obj(corpus)
    if manifest is not None:
        obj["manifest"] = dict(manifest)
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def load_document_base(path) -> DocumentBase:
    """Load the document base, grouping documents by (domain, entity)."""
    data = read_json(path, dict, "document file")
    raw_documents = _require(data, "documents", str(path))
    if not isinstance(raw_documents, list):
        raise SchemaError(f"{path}: documents must be a JSON list")
    documents = []
    for i, obj in enumerate(raw_documents):
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}: document {i} must be an object")
        doc_id = str(_require(obj, "id", str(path)))
        domain = _require(obj, "domain", f"document {doc_id!r}")
        if domain not in DOC_DOMAINS:
            raise UnknownDomainError(f"document {doc_id!r}: domain {domain!r} not in {list(DOC_DOMAINS)}")
        body = _require(obj, "body", f"document {doc_id!r}")
        if not body:
            raise SchemaError(f"document {doc_id!r}: body must be non-empty")
        if not isinstance(body, str):
            raise SchemaError(f"document {doc_id!r}: body must be a string, got {body!r}")
        entity = obj.get("entity")
        if entity is not None and not isinstance(entity, str):
            raise SchemaError(f"document {doc_id!r}: entity must be a string or null, got {entity!r}")
        documents.append(Document(id=doc_id, domain=domain, entity=entity, body=body))
    return DocumentBase(documents)


def load_database(path, ontology: Ontology | None = None) -> Database:
    """Load the per-domain entry tables; slot names are validated against the
    ontology when one is given."""
    data = read_json(path, dict, "database file")
    tables: dict[str, tuple[DbEntry, ...]] = {}
    for domain, rows in data.items():
        if not isinstance(rows, list):
            raise SchemaError(f"db {domain}: table must be a list of rows")
        entries = []
        for i, row in enumerate(rows):
            ctx = f"db {domain}[{i}]"
            if not isinstance(row, dict):
                raise SchemaError(f"{ctx}: row must be an object")
            raw_slots = _require(row, "slots", ctx)
            if not isinstance(raw_slots, dict):
                raise SchemaError(f"{ctx}: slots must be an object")
            slots = {str(k): str(v) for k, v in raw_slots.items()}
            if ontology is not None:
                for slot in slots:
                    if f"{domain}-{slot}" not in ontology.slots:
                        raise UnknownSlotError(f"{ctx}: slot {slot!r} not in ontology")
            bookable = row.get("bookable", False)
            if not isinstance(bookable, bool):
                raise SchemaError(f"{ctx}: bookable must be true or false, got {bookable!r}")
            entries.append(DbEntry(index=i, slots=slots, bookable=bookable))
        tables[domain] = tuple(entries)
    return Database(tables=tables)


def load_ontology(path) -> Ontology:
    data = read_json(path, dict, "ontology file")
    domains = _require(data, "domains", str(path))
    if not isinstance(domains, list) or not all(isinstance(d, str) for d in domains):
        raise SchemaError(f"{path}: ontology domains must be a list of strings, got {domains!r}")
    raw_slots = _require(data, "slots", str(path))
    if not isinstance(raw_slots, dict) or not all(isinstance(vs, list) for vs in raw_slots.values()):
        raise SchemaError(f"{path}: ontology slots must be an object of value lists")
    slots = {str(k): tuple(str(v) for v in vs) for k, vs in raw_slots.items()}
    return Ontology(domains=tuple(domains), slots=slots)


def corpus_stats(corpus: DialogCorpus) -> CorpusStats:
    """Dialog counts per split, mean turns per dialog, and slot type/value counts.

    Slot counts come from the attached ontology when present (that is what
    the dataset statistics describe); otherwise they are the distinct
    domain-qualified slot types and (slot, value) pairs observed in the gold
    states.  The ruk slot is excluded either way.
    """
    per_split = {split: 0 for split in SPLITS}
    total_turns = 0
    for dialog in corpus:
        per_split[dialog.split] += 1
        total_turns += len(dialog.turns)
    avg = total_turns / len(corpus) if len(corpus) else 0.0

    if corpus.ontology is not None:
        keys = [k for k in corpus.ontology.slots if k.partition("-")[2] != RUK_SLOT]
        slot_types = len(keys)
        slot_values = sum(len(corpus.ontology.slots[k]) for k in keys)
    else:
        types: set[tuple[str, str]] = set()
        values: set[tuple[str, str, str]] = set()
        for dialog in corpus:
            for turn in dialog.turns:
                for t in turn.state.triples:
                    if t.is_ruk:
                        continue
                    types.add((t.domain, t.slot))
                    values.add((t.domain, t.slot, t.value))
        slot_types = len(types)
        slot_values = len(values)
    return CorpusStats(
        dialogs_per_split=per_split, avg_turns=avg, slot_types=slot_types, slot_values=slot_values
    )


def build_context(dialog: Dialog, t: int) -> list[str]:
    """Dialog context for turn ``t``: [U_1] for the first turn, otherwise
    [R_{t-1}, U_t]."""
    if not 1 <= t <= len(dialog.turns):
        raise IndexError(f"turn {t} out of range 1..{len(dialog.turns)}")
    turn = dialog.turns[t - 1]
    if t == 1:
        return [turn.user]
    return [dialog.turns[t - 2].response, turn.user]


def unresolvable_doc_refs(corpus: DialogCorpus, base: DocumentBase) -> list[tuple[str, int, str]]:
    """(dialog id, turn index, doc id) for every inserted turn whose gold
    document id is not present in the base."""
    missing = []
    for dialog in corpus:
        for turn in dialog.turns:
            if turn.kind is TurnKind.INSERTED and turn.doc_id not in base.documents:
                missing.append((dialog.id, turn.index, turn.doc_id))
    return missing
