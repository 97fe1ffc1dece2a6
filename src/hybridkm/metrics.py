"""Evaluation metrics: response quality (BLEU, METEOR, ROUGE-L), task
completion (Inform, Success, Combined), belief tracking (Joint Goal) and
retrieval quality (MRR@5, R@1).

Conventions, fixed here and relied on by the tests:

  * Metric tokenization is plain whitespace splitting of lowercased text,
    so delexicalized placeholders like "[value_name]" survive as tokens.
  * bleu() is corpus-level BLEU-4 on the 0-100 scale.  Higher-order n-gram
    precisions with a zero count get 1 added to numerator and denominator;
    the unigram precision is never smoothed.
  * meteor() and rouge_l() are per-pair scores in [0, 1]; the aggregate
    report averages them over turns and reports them on the 0-100 scale.
  * Each report group (overall, a split, a turn kind) keeps running totals:
    integer counts and BLEU statistics, and one float ``+=`` from 0.0 per
    turn for METEOR, ROUGE-L and MRR@5, in dialog-id and turn order.  sum()
    would compensate from Python 3.12 on; this gives equal bytes on all.
  * Joint Goal compares normalized non-ruk triples on original turns only.
  * Inform/Success follow the delexicalized-placeholder convention; a
    lexical mode matches entity names and slot values from the database
    instead.
  * MRR@5 and R@1 are computed on inserted turns and stay on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

from ._porter import stem
from .belief import (
    DsvTriple,
    ExtendedBeliefState,
    normalize_state,
    normalize_text,
    parse_state,
)
from .corpus import Database, DbEntry, DialogCorpus, GoalSpec, Ontology, Turn, TurnKind, read_json
from .errors import (
    DuplicateDocError,
    DuplicateIdError,
    FormatError,
    LengthMismatchError,
    MissingPredictionError,
    SchemaError,
    UnknownDomainError,
)
from .kb_structured import query
from .retrieval import lcs_length

METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5
ROUGE_BETA = 1.2
BLEU_MAX_ORDER = 4

#: Placeholders that count as offering an entity in delexicalized responses.
ENTITY_PLACEHOLDERS = ("[value_name]", "[value_id]")


def metric_tokenize(text: str) -> list[str]:
    return normalize_text(text).split()


@dataclass(frozen=True, slots=True)
class TurnPrediction:
    dialog_id: str
    turn_index: int
    state: ExtendedBeliefState
    ranked_docs: tuple[str, ...] = ()
    response: str = ""


def load_predictions(path) -> list[TurnPrediction]:
    """Parse a prediction file: a JSON list of per-turn records with the
    state in the flat serialization format.

    Records whose state texts are equal share one (immutable) state
    object, parsed at the text's first occurrence in this file.
    """
    data = read_json(path, list, "prediction file")
    predictions = []
    seen: set[tuple[str, int]] = set()
    states: dict[str, ExtendedBeliefState] = {}
    # Take the records off the list front to back, so that each one's JSON
    # is freed once converted.
    data.reverse()
    for i in range(len(data)):
        obj = data.pop()
        if not isinstance(obj, dict) or "dialog_id" not in obj or "turn_index" not in obj:
            raise SchemaError(f"{path}: record {i} must carry dialog_id and turn_index")
        dialog_id = obj["dialog_id"]
        if not isinstance(dialog_id, str):
            raise SchemaError(f"{path}: record {i}: dialog_id must be a string, got {dialog_id!r}")
        turn_index = obj["turn_index"]
        if isinstance(turn_index, bool) or not isinstance(turn_index, int):
            raise SchemaError(f"{path}: record {i}: turn_index must be an integer, got {turn_index!r}")
        key = (dialog_id, turn_index)
        if key in seen:
            raise DuplicateIdError(f"{path}: duplicate prediction for {dialog_id} turn {turn_index}")
        seen.add(key)
        text = obj.get("state", "")
        if not isinstance(text, str):
            raise SchemaError(
                f"{path}: record {i} ({dialog_id} turn {turn_index}): state must be a string, got {text!r}"
            )
        state = states.get(text)
        if state is None:
            try:
                state = states[text] = parse_state(text)
            except FormatError as exc:
                raise FormatError(
                    f"{path}: record {i} ({dialog_id} turn {turn_index}): {exc}", exc.offset
                ) from exc
        ranked_docs = obj.get("ranked_docs", [])
        if not isinstance(ranked_docs, list) or not all(isinstance(d, str) for d in ranked_docs):
            raise SchemaError(
                f"{path}: record {i} ({dialog_id} turn {turn_index}): "
                "ranked_docs must be a list of document ids"
            )
        response = obj.get("response", "")
        if not isinstance(response, str):
            raise SchemaError(
                f"{path}: record {i} ({dialog_id} turn {turn_index}): response must be a string, got {response!r}"
            )
        predictions.append(
            TurnPrediction(
                dialog_id=dialog_id,
                turn_index=turn_index,
                state=state,
                ranked_docs=tuple(ranked_docs),
                response=response,
            )
        )
    return predictions


def _ngram_counts(tokens: Sequence[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


#: One pair's BLEU statistics: clipped n-gram matches for orders 1..4,
#: candidate n-gram totals for orders 1..4, then the candidate and reference
#: lengths.  All integers, so their sum over any set of pairs is exact.
_BleuStats = tuple[int, ...]
_BLEU_FIELDS = 2 * BLEU_MAX_ORDER + 2


def _bleu_stats(candidate: str, reference: str) -> _BleuStats:
    cand = metric_tokenize(candidate)
    ref = metric_tokenize(reference)
    clipped = []
    totals = []
    for n in range(1, BLEU_MAX_ORDER + 1):
        ref_grams = _ngram_counts(ref, n)
        clipped.append(sum(min(c, ref_grams.get(g, 0)) for g, c in _ngram_counts(cand, n).items()))
        totals.append(max(len(cand) - n + 1, 0))
    return (*clipped, *totals, len(cand), len(ref))


def _bleu_score(summed: Sequence[int], smoothing: bool) -> float:
    """Corpus BLEU-4 from the statistics of its pairs, summed."""
    clipped = summed[:BLEU_MAX_ORDER]
    totals = summed[BLEU_MAX_ORDER : 2 * BLEU_MAX_ORDER]
    cand_len, ref_len = summed[-2:]
    if cand_len == 0 or clipped[0] == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_MAX_ORDER + 1):
        num, den = clipped[n - 1], totals[n - 1]
        if n >= 2 and num == 0:
            if not smoothing:
                return 0.0
            num, den = num + 1, den + 1
        log_sum += math.log(num / den)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_sum / BLEU_MAX_ORDER)


def bleu(candidates: Sequence[str], references: Sequence[str], smoothing: bool = True) -> float:
    """Corpus-level BLEU-4 in [0, 100] with brevity penalty.

    For orders 2..4 a zero clipped count is smoothed by adding one to both
    numerator and denominator; a zero unigram count makes the score 0.
    With smoothing off, any zero precision zeroes the score.
    """
    if len(candidates) != len(references):
        raise LengthMismatchError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    stats = [_bleu_stats(c, r) for c, r in zip(candidates, references)]
    return _bleu_score([sum(column) for column in zip(*stats)] or [0] * _BLEU_FIELDS, smoothing)


def _meteor_align(cand: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int]]:
    # Two greedy stages: exact token matches first, then Porter-stem
    # matches on whatever is left; each stage takes the first available
    # reference position.
    ref_used = [False] * len(ref)
    alignment: dict[int, int] = {}
    for i, token in enumerate(cand):
        for j, other in enumerate(ref):
            if not ref_used[j] and token == other:
                alignment[i] = j
                ref_used[j] = True
                break
    cand_stems = [stem(t) for t in cand]
    ref_stems = [stem(t) for t in ref]
    for i in range(len(cand)):
        if i in alignment:
            continue
        for j in range(len(ref)):
            if not ref_used[j] and cand_stems[i] == ref_stems[j]:
                alignment[i] = j
                ref_used[j] = True
                break
    return sorted(alignment.items())


def _chunk_count(alignment: Sequence[tuple[int, int]]) -> int:
    chunks = 0
    prev = None
    for i, j in alignment:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def meteor(candidate: str, reference: str) -> float:
    """Single-pair METEOR in [0, 1]: harmonic mean of precision and recall
    (recall-weighted, alpha=0.9) times a fragmentation penalty."""
    cand = metric_tokenize(candidate)
    ref = metric_tokenize(reference)
    if not cand or not ref:
        return 0.0
    alignment = _meteor_align(cand, ref)
    m = len(alignment)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    f_mean = precision * recall / (METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall)
    penalty = METEOR_GAMMA * (_chunk_count(alignment) / m) ** METEOR_BETA
    return f_mean * (1.0 - penalty)


def rouge_l(candidate: str, reference: str) -> float:
    """Single-pair ROUGE-L F-measure (beta=1.2) in [0, 1]."""
    cand = metric_tokenize(candidate)
    ref = metric_tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = lcs_length(cand, ref)
    recall = lcs / len(ref)
    precision = lcs / len(cand)
    denom = recall + ROUGE_BETA**2 * precision
    if denom == 0.0:
        return 0.0
    return (1 + ROUGE_BETA**2) * recall * precision / denom


def _normalized_triples(
    state: ExtendedBeliefState, canon_map: Mapping[str, str] | None = None
) -> frozenset[tuple[str, str, str]]:
    normalized = normalize_state(state, canon_map)
    return frozenset((t.domain, t.slot, t.value) for t in normalized.non_ruk_triples)


def _take_prediction(
    pred_map: dict[tuple[str, int], TurnPrediction], dialog_id: str, turn: Turn
) -> TurnPrediction:
    pred = pred_map.pop((dialog_id, turn.index), None)
    if pred is None:
        raise MissingPredictionError(f"no prediction for {dialog_id} turn {turn.index}")
    return pred


def _goal_hit(pred: TurnPrediction, turn: Turn, canon_map: Mapping[str, str] | None) -> bool:
    """Joint Goal for one original turn: the normalized non-ruk triples of
    the predicted and gold states are equal."""
    return _normalized_triples(pred.state, canon_map) == _normalized_triples(turn.state, canon_map)


def joint_goal(
    predictions: Sequence[TurnPrediction],
    corpus: DialogCorpus,
    canon_map: Mapping[str, str] | None = None,
) -> float:
    """Percentage of original turns whose normalized non-ruk triples match
    the gold state exactly."""
    pred_map = {(p.dialog_id, p.turn_index): p for p in predictions}
    hits = [
        _goal_hit(_take_prediction(pred_map, dialog.id, turn), turn, canon_map)
        for dialog in corpus
        for turn in dialog.turns
        if turn.kind is TurnKind.ORIGINAL
    ]
    return _average(100.0 * sum(hits), len(hits))


def _has_entity_slot(entries: Sequence[DbEntry]) -> bool:
    return any("name" in e.slots or "id" in e.slots for e in entries)


def _goal_matches(db: Database, domain: str, constraints: Mapping[str, str]) -> set[str]:
    state = ExtendedBeliefState(
        triples=tuple(DsvTriple(domain, slot, value) for slot, value in constraints.items())
    )
    return {e.identity() for e in query(db, state, domain).entries}


def inform_success(
    predictions: Sequence[TurnPrediction],
    goal: GoalSpec,
    db: Database,
    ontology: Ontology,
    delex: bool = True,
) -> tuple[bool, bool]:
    """Task-completion verdict for one dialog.

    Inform: for every informable goal domain (present in the database with
    a name or id slot), some entity offered by the system satisfies the
    goal constraints.  In delexicalized mode an entity is offered at a
    turn whose response carries an entity placeholder, and the offer set
    is the database result for the predicted state's constraints in that
    domain at that turn.  In lexical mode entity names from the database
    are matched against the response text directly.

    Success: inform holds and every requested slot is answered, i.e. its
    placeholder occurs in some response (delexicalized), or a matched
    entity's value for that slot occurs in the text (lexical).
    """
    for domain in goal.domains:
        if domain not in ontology.domains:
            raise UnknownDomainError(f"goal domain {domain!r} not in ontology")
    texts = [normalize_text(p.response) for p in predictions]
    joined = " ".join(texts)

    informable = [
        d for d in goal.domains if d in db.tables and _has_entity_slot(db.tables[d])
    ]
    matched: dict[str, set[str]] = {}
    inform = True
    for domain in informable:
        goal_ok = _goal_matches(db, domain, goal.domains[domain].constraints)
        offered: set[str] = set()
        if delex:
            for pred, text in zip(predictions, texts):
                if not any(ph in text for ph in ENTITY_PLACEHOLDERS):
                    continue
                if not any(t.domain == domain for t in pred.state.non_ruk_triples):
                    continue
                offered |= {e.identity() for e in query(db, pred.state, domain).entries}
        else:
            for entry in db.tables[domain]:
                name = entry.identity()
                if not name.startswith("#") and name in joined:
                    offered.add(name)
        matched[domain] = offered & goal_ok
        if not matched[domain]:
            inform = False

    answered = True
    for domain, domain_goal in goal.domains.items():
        for slot in domain_goal.requests:
            if f"[value_{slot}]" in joined:
                continue
            if not delex and _lexical_slot_answer(db, domain, slot, matched.get(domain, set()), joined):
                continue
            answered = False
    return inform, inform and answered


def _lexical_slot_answer(
    db: Database, domain: str, slot: str, entities: set[str], joined: str
) -> bool:
    rows = {e.identity(): e for e in db.tables.get(domain, ())}
    for name in entities:
        row = rows.get(name)
        if row is not None and slot in row.slots and normalize_text(row.slots[slot]) in joined:
            return True
    return False


def mrr_at_k(ranked: Sequence[str], gold: str, k: int = 5) -> float:
    """Reciprocal rank of the gold document within the top k, else 0."""
    if len(set(ranked)) != len(ranked):
        raise DuplicateDocError(f"ranked list has duplicates: {list(ranked)!r}")
    for rank, doc_id in enumerate(ranked[:k], start=1):
        if doc_id == gold:
            return 1.0 / rank
    return 0.0


def r_at_1(ranked: Sequence[str], gold: str) -> int:
    if len(set(ranked)) != len(ranked):
        raise DuplicateDocError(f"ranked list has duplicates: {list(ranked)!r}")
    return 1 if ranked and ranked[0] == gold else 0


@dataclass
class EvalReport:
    inform: float
    success: float
    bleu: float
    meteor: float
    rouge_l: float
    combined: float
    joint_goal: float
    mrr5: float
    r1: float
    n_dialogs: int
    n_turns: int
    n_original: int
    n_inserted: int
    by_split: dict[str, dict] = field(default_factory=dict)
    by_kind: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def combined_score(inform: float, success: float, bleu_value: float) -> float:
    return (inform + success) * 0.5 + bleu_value


def _average(total: float, count: int) -> float:
    return total / count if count else 0.0


class _Group:
    """Running totals of one report group, as the module docstring says."""

    __slots__ = ("dialogs", "informs", "successes", "bleu_stats", "meteor", "rouge_l",
                 "original", "goal_hits", "inserted", "mrr5", "r1")

    def __init__(self) -> None:
        self.dialogs = self.informs = self.successes = 0
        self.original = self.goal_hits = self.inserted = self.r1 = 0
        self.meteor = self.rouge_l = self.mrr5 = 0.0
        self.bleu_stats = [0] * _BLEU_FIELDS

    def add_dialog(self, inform: bool, success: bool) -> None:
        self.dialogs += 1
        self.informs += inform
        self.successes += success

    def add_turn(self, original: bool, stats: _BleuStats, meteor_value: float, rouge_value: float,
                 goal_hit: bool, mrr5: float, r1: int) -> None:
        self.bleu_stats = [a + b for a, b in zip(self.bleu_stats, stats)]
        self.meteor += meteor_value
        self.rouge_l += rouge_value
        if original:
            self.original += 1
            self.goal_hits += goal_hit
        else:
            self.inserted += 1
            self.mrr5 += mrr5
            self.r1 += r1

    def summary(self, smoothing: bool) -> dict:
        n_turns = self.original + self.inserted
        inform = _average(100.0 * self.informs, self.dialogs)
        success = _average(100.0 * self.successes, self.dialogs)
        bleu_value = _bleu_score(self.bleu_stats, smoothing)
        return {
            "inform": inform,
            "success": success,
            "bleu": bleu_value,
            "meteor": _average(100.0 * self.meteor, n_turns),
            "rouge_l": _average(100.0 * self.rouge_l, n_turns),
            "combined": combined_score(inform, success, bleu_value),
            "joint_goal": _average(100.0 * self.goal_hits, self.original),
            "mrr5": _average(self.mrr5, self.inserted),
            "r1": _average(self.r1, self.inserted),
            "n_dialogs": self.dialogs,
            "n_turns": n_turns,
            "n_original": self.original,
            "n_inserted": self.inserted,
        }


def evaluate(
    corpus: DialogCorpus,
    predictions: Sequence[TurnPrediction],
    db: Database | None = None,
    ontology: Ontology | None = None,
    delex: bool = True,
    bleu_smoothing: bool = True,
    canon_map: Mapping[str, str] | None = None,
) -> EvalReport:
    """Full evaluation report over a corpus.

    Every turn of every dialog must have a prediction, and every prediction
    must be for a turn of the corpus.  Joint Goal is computed on original
    turns, MRR@5 and R@1 on inserted turns, the response-quality metrics on
    all turns, and Inform/Success per dialog (they stay 0 when no
    database/ontology is supplied).  METEOR and ROUGE-L are averaged over
    turns and reported on the 0-100 scale; MRR@5 and R@1 stay on [0, 1].

    Dialogs are scored once, in id order, and each turn's results are added
    to its three groups: overall, its split and its kind.
    """
    pred_map = {(p.dialog_id, p.turn_index): p for p in predictions}
    overall = _Group()
    by_split: dict[str, _Group] = {}
    by_kind = {kind: _Group() for kind in TurnKind}
    for dialog in sorted(corpus, key=lambda d: d.id):
        split = by_split.setdefault(dialog.split, _Group())
        turn_preds = [_take_prediction(pred_map, dialog.id, turn) for turn in dialog.turns]
        for turn, pred in zip(dialog.turns, turn_preds):
            original = turn.kind is TurnKind.ORIGINAL
            scores = (
                original,
                _bleu_stats(pred.response, turn.response),
                meteor(pred.response, turn.response),
                rouge_l(pred.response, turn.response),
                original and _goal_hit(pred, turn, canon_map),
                0.0 if original else mrr_at_k(pred.ranked_docs, turn.doc_id),
                0 if original else r_at_1(pred.ranked_docs, turn.doc_id),
            )
            for group in (overall, split, by_kind[turn.kind]):
                group.add_turn(*scores)
        inform = success = False
        if db is not None and ontology is not None:
            inform, success = inform_success(turn_preds, dialog.goal, db, ontology, delex=delex)
        overall.add_dialog(inform, success)
        split.add_dialog(inform, success)
    if pred_map:
        first = min(pred_map)
        raise SchemaError(f"{len(pred_map)} prediction(s) match no corpus turn, first {first[0]} turn {first[1]}")

    kinds = {}
    for kind, group in by_kind.items():
        if group.original + group.inserted:
            summary = group.summary(bleu_smoothing)
            kinds[kind.value] = {key: summary[key] for key in ("n_turns", "bleu", "meteor", "rouge_l")}
    return EvalReport(
        by_split={name: by_split[name].summary(bleu_smoothing) for name in sorted(by_split)},
        by_kind=kinds,
        **overall.summary(bleu_smoothing),
    )
