"""Document retrieval: topic matching against the index, plus TF-IDF and
BM25 ranking baselines over raw document text.

Topic matching first narrows the document base to the entity referenced by
the belief state (exact entity name, then fuzzy, then the whole domain) and
then scores each candidate document by the best fuzzy match between the
state's topic words and the document's indexed topics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .belief import NO_ENTITY, ExtendedBeliefState, normalize_text
from .corpus import Document, DocumentBase
from .kb_unstructured import TfIdfModel, TopicIndex, fit_tfidf, tokenize

#: Minimum fuzzy ratio for an entity-name match when no exact group exists.
FUZZY_ENTITY_THRESHOLD = 0.8

BM25_K1 = 1.5
BM25_B = 0.75
DEFAULT_TOP_N = 5


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest common subsequence length of two sequences of hashable items
    (characters of a string, tokens of a sentence).

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): bit i of ``row`` stands
    for position i of ``a``, so each item of ``b`` costs a few big-int
    operations and the runtime is O(|a| * |b| / wordsize).
    """
    if not a or not b:
        return 0
    masks: dict = {}
    for i, item in enumerate(a):
        masks[item] = masks.get(item, 0) | (1 << i)
    row = 0
    for item in b:
        t = row | masks.get(item, 0)
        row = t & ~(t - ((row << 1) | 1))
    return row.bit_count()


def fuzzy_ratio(a: str, b: str) -> float:
    """Similarity in [0, 1]: twice the LCS length over the summed lengths.

    Equivalent to 1 - indel_distance(a, b) / (len(a) + len(b)).  Two empty
    strings are identical, hence 1.0.
    """
    if not a and not b:
        return 1.0
    return 2.0 * lcs_length(a, b) / (len(a) + len(b))


@dataclass(frozen=True)
class RetrievalQuery:
    domain: str
    entity: str | None
    topic: tuple[str, ...]

    @classmethod
    def from_state(cls, state: ExtendedBeliefState) -> "RetrievalQuery | None":
        """Query for the state's ruk triple, or None when there is none.

        A ruk value of "none" means the domain has no named entities and
        maps to an entity-less query.
        """
        ruk = state.ruk_triple
        if ruk is None:
            return None
        entity = None if ruk.value == NO_ENTITY else normalize_text(ruk.value)
        return cls(domain=ruk.domain, entity=entity, topic=state.topic)


@dataclass(frozen=True)
class RankedRetrieval:
    query: RetrievalQuery | None
    ranking: tuple[tuple[str, float], ...]

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(doc_id for doc_id, _ in self.ranking)


def locate_documents(
    base: DocumentBase,
    query: RetrievalQuery,
    fuzzy_threshold: float = FUZZY_ENTITY_THRESHOLD,
) -> tuple[Document, ...]:
    """Candidate documents for a query.

    Entity-less queries return the whole domain.  Otherwise the exact
    entity group wins; failing that, the best fuzzy entity-name match at or
    above ``fuzzy_threshold`` (ties alphabetical); failing that too, the
    whole domain.
    """
    if query.entity is None:
        return base.domain_documents(query.domain)
    exact = base.group(query.domain, query.entity)
    if exact:
        return exact
    names = base.entities(query.domain)
    best_name = None
    best_score = fuzzy_threshold
    for name in names:
        score = fuzzy_ratio(query.entity, name)
        if score > best_score or (score == best_score and best_name is None):
            best_name = name
            best_score = score
    if best_name is not None:
        return base.group(query.domain, best_name)
    return base.domain_documents(query.domain)


def topic_match_retrieve(
    base: DocumentBase,
    index: TopicIndex,
    state: ExtendedBeliefState,
    k: int = DEFAULT_TOP_N,
    fuzzy_threshold: float = FUZZY_ENTITY_THRESHOLD,
) -> RankedRetrieval | None:
    """Rank documents by fuzzy similarity between the state's topic and
    their indexed topic words.

    Returns None when the state asks for no unstructured knowledge (no ruk
    triple or an empty topic).  A document's score is its best-matching
    topic word; ties are broken by document id.
    """
    query = RetrievalQuery.from_state(state)
    if query is None or not query.topic:
        return None
    text = " ".join(query.topic)
    scored = []
    for doc in locate_documents(base, query, fuzzy_threshold):
        words = index.topic(doc.id)
        score = max((fuzzy_ratio(text, w) for w in words), default=0.0)
        scored.append((doc.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return RankedRetrieval(query=query, ranking=tuple(scored[:k]))


def _candidate_docs(base: DocumentBase, domain: str | None) -> tuple[Document, ...]:
    if domain is None:
        return tuple(base.documents.values())
    return base.domain_documents(domain)


def _context_tokens(context: "Sequence[str] | str") -> list[str]:
    if isinstance(context, str):
        context = [context]
    tokens: list[str] = []
    for utterance in context:
        tokens.extend(tokenize(utterance))
    return tokens


def tfidf_retrieve(
    base: DocumentBase,
    context: "Sequence[str] | str",
    domain: str | None = None,
    k: int = DEFAULT_TOP_N,
) -> RankedRetrieval:
    """TF-IDF cosine similarity between the dialog context and each document."""
    docs = _candidate_docs(base, domain)
    doc_tokens = [tokenize(d.body) for d in docs]
    model = fit_tfidf(doc_tokens)
    query = _context_tokens(context)
    q_vec = _tfidf_vector(query, model)
    q_norm = math.sqrt(sum(v * v for v in q_vec.values()))
    scored = []
    for doc, tokens in zip(docs, doc_tokens):
        d_vec = _tfidf_vector(tokens, model)
        d_norm = math.sqrt(sum(v * v for v in d_vec.values()))
        if q_norm == 0.0 or d_norm == 0.0:
            score = 0.0
        else:
            dot = sum(v * d_vec[w] for w, v in q_vec.items() if w in d_vec)
            score = dot / (q_norm * d_norm)
        scored.append((doc.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return RankedRetrieval(query=None, ranking=tuple(scored[:k]))


def _tfidf_vector(tokens: Sequence[str], model: TfIdfModel) -> dict[str, float]:
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    return {w: c * model.idf(w) for w, c in counts.items() if model.idf(w) > 0.0}


def bm25_retrieve(
    base: DocumentBase,
    context: "Sequence[str] | str",
    domain: str | None = None,
    k: int = DEFAULT_TOP_N,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> RankedRetrieval:
    """Okapi BM25 over document bodies, summed across context tokens.

    Uses the non-negative idf variant ln(1 + (N - df + 0.5) / (df + 0.5));
    repeated query tokens contribute once per occurrence.
    """
    docs = _candidate_docs(base, domain)
    doc_tokens = [tokenize(d.body) for d in docs]
    n = len(docs)
    df: dict[str, int] = {}
    for tokens in doc_tokens:
        for w in set(tokens):
            df[w] = df.get(w, 0) + 1
    avg_len = sum(len(t) for t in doc_tokens) / n if n else 0.0
    query = _context_tokens(context)
    scored = []
    for doc, tokens in zip(docs, doc_tokens):
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        length_norm = k1 * (1 - b + b * (len(tokens) / avg_len)) if avg_len else k1
        score = 0.0
        for w in query:
            tf = counts.get(w, 0)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n - df[w] + 0.5) / (df[w] + 0.5))
            score += idf * tf * (k1 + 1) / (tf + length_norm)
        scored.append((doc.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return RankedRetrieval(query=None, ranking=tuple(scored[:k]))
