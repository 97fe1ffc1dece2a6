"""Document retrieval: topic matching against the index, plus TF-IDF and
BM25 ranking baselines over raw document text.

Topic matching first narrows the document base to the entity referenced by
the belief state (exact entity name, then fuzzy, then the whole domain) and
then scores each candidate document by the best fuzzy match between the
state's topic words and the document's indexed topics.

The baselines score through one term index per document base and domain
(``kb_unstructured.TermIndex``), built on the first query and dropped with
the base; only documents in the postings of the context's words are scored.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from typing import Sequence

from .belief import NO_ENTITY, ExtendedBeliefState, normalize_text
from .corpus import Document, DocumentBase
from .kb_unstructured import (
    TermIndex,
    TopicIndex,
    build_term_index,
    term_counts,
    tfidf_weights,
    tokenize,
    vector_norm,
)

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
    _check_k(k)
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


#: Term index of each document base and domain, built on first use and
#: dropped with its base.
_term_indexes: "weakref.WeakKeyDictionary[DocumentBase, dict[str | None, TermIndex]]" = (
    weakref.WeakKeyDictionary()
)


def _term_index(base: DocumentBase, domain: str | None) -> TermIndex:
    per_domain = _term_indexes.get(base)
    if per_domain is None:
        per_domain = _term_indexes[base] = {}
    index = per_domain.get(domain)
    if index is None:
        index = per_domain[domain] = build_term_index(_candidate_docs(base, domain))
    return index


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _top_k(index: TermIndex, scores: dict[int, float], k: int) -> tuple[tuple[str, float], ...]:
    """The ``k`` best (doc id, score) pairs, score descending, ties by doc id;
    documents without a score fill up the rest with 0.0 in id order."""
    ids = index.doc_ids
    best = heapq.nsmallest(k, zip(map(operator.neg, scores.values()), scores))
    ranking = [(ids[pos], -neg) for neg, pos in best]
    if len(ranking) < k:
        unscored = (pos for pos in range(len(ids)) if pos not in scores)
        ranking.extend((ids[pos], 0.0) for pos in itertools.islice(unscored, k - len(ranking)))
    return tuple(ranking)


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
    """TF-IDF cosine similarity between the dialog context and each document.

    Only documents that share a word of non-zero idf with the context are
    scored; every other document scores 0.0.
    """
    _check_k(k)
    index = _term_index(base, domain)
    model = index.model
    q_vec = tfidf_weights(term_counts(_context_tokens(context)), model)
    q_norm = vector_norm(q_vec)
    # One addition per context word, in context-word order, from 0.0: the
    # same float as a dot product over the whole vectors.
    dots: dict[int, float] = {}
    for w, v in q_vec.items():
        idf = model.idf(w)
        for pos, c in zip(*index.postings[w]):
            dots[pos] = dots.get(pos, 0.0) + v * (c * idf)
    norms = index.norms
    scores = {pos: dot / (q_norm * norms[pos]) for pos, dot in dots.items()}
    return RankedRetrieval(query=None, ranking=_top_k(index, scores, k))


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
    repeated query tokens contribute once per occurrence.  Documents that
    contain no context token score 0.0.
    """
    _check_k(k)
    index = _term_index(base, domain)
    n = index.model.n_docs
    df = index.model.df
    length_norms = index.length_norms(k1, b)
    # One addition per context token, in context order, from 0.0: the same
    # float as summing over the context for each document.
    scores: dict[int, float] = {}
    for w in _context_tokens(context):
        entry = index.postings.get(w)
        if entry is None:
            continue
        idf = math.log(1.0 + (n - df[w] + 0.5) / (df[w] + 0.5))
        for pos, tf in zip(*entry):
            scores[pos] = scores.get(pos, 0.0) + idf * tf * (k1 + 1) / (tf + length_norms[pos])
    return RankedRetrieval(query=None, ranking=_top_k(index, scores, k))
