"""Topic extraction over the document base.

Topics are picked per document in three steps, all within a single domain:

  1. TF-IDF over the domain's documents scores each word of a document as
     raw term frequency times ln(N / df).
  2. The top three words of each document (score descending, ties broken
     alphabetically) become its topic candidates.
  3. Each candidate word gets a corpus-adjusted score: the sum of its
     TF-IDF scores over every document where it is a candidate, divided by
     the number of entity groups in the domain.  Candidates below the
     domain threshold are dropped, except that a document whose candidates
     all fall below keeps its single best one.

Every document therefore ends up with one to three topic words.  The
resulting index is written as versioned, canonically ordered JSON so that
rebuilding from the same inputs yields a byte-identical file.

``TermIndex`` holds the postings and document statistics that the TF-IDF
and BM25 retrieval baselines score through; it lives in memory only.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Document, DocumentBase, read_json
from .errors import EmptyCorpusError, InvariantError, SchemaError, UnknownDomainError, VersionError

INDEX_VERSION = "1"
DEFAULT_TOP_K = 3

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class DomainThresholds:
    """Per-domain cutoffs on the corpus-adjusted candidate score."""

    restaurant: float = 2.3
    hotel: float = 2.7
    taxi: float = 6.9
    train: float = 7.3

    def for_domain(self, domain: str) -> float:
        try:
            return getattr(self, domain)
        except AttributeError:
            raise UnknownDomainError(f"no topic threshold for domain {domain!r}") from None


def load_stopwords(path=None) -> frozenset[str]:
    """Stopword set from ``path``, or the bundled English list by default."""
    if path is None:
        text = resources.files("hybridkm").joinpath("data/stopwords_en.txt").read_text("utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stopwords if given."""
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


@dataclass(frozen=True)
class TfIdfModel:
    n_docs: int
    df: Mapping[str, int]

    def idf(self, word: str) -> float:
        df = self.df.get(word, 0)
        return math.log(self.n_docs / df) if df else 0.0


def fit_tfidf(token_lists: Sequence[Sequence[str]]) -> TfIdfModel:
    """Document frequencies over the given tokenized documents."""
    df: dict[str, int] = {}
    for tokens in token_lists:
        for word in set(tokens):
            df[word] = df.get(word, 0) + 1
    return TfIdfModel(n_docs=len(token_lists), df=df)


def term_counts(tokens: Iterable[str]) -> dict[str, int]:
    """Occurrences of each word, in first-occurrence order."""
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    return counts


def tfidf_weights(counts: Mapping[str, int], model: TfIdfModel) -> dict[str, float]:
    """Count times idf for each word with a non-zero idf, in ``counts`` order."""
    return {w: c * model.idf(w) for w, c in counts.items() if model.idf(w) > 0.0}


def vector_norm(weights: Mapping[str, float]) -> float:
    """Euclidean norm, added left to right in ``weights`` order."""
    total = 0.0
    for v in weights.values():
        total += v * v
    return math.sqrt(total)


@dataclass(frozen=True)
class TermIndex:
    """Term statistics of a fixed sequence of documents, for the TF-IDF and
    BM25 baselines.

    Documents are known by their position in ``doc_ids``.  ``postings`` maps
    each word to two parallel lists: the positions of the documents that
    contain it, ascending, and its count in each.
    """

    doc_ids: tuple[str, ...]
    postings: Mapping[str, tuple[list[int], list[int]]]
    model: TfIdfModel
    lengths: list[int]
    avg_len: float
    #: Euclidean norm of each document's TF-IDF weights.
    norms: list[float]
    _length_norms: dict = field(default_factory=dict, compare=False, repr=False)

    def length_norms(self, k1: float, b: float) -> list[float]:
        """BM25's ``k1 * (1 - b + b * len / avg_len)`` for each document."""
        norms = self._length_norms.get((k1, b))
        if norms is None:
            avg_len = self.avg_len
            norms = [k1 * (1 - b + b * (n / avg_len)) if avg_len else k1 for n in self.lengths]
            self._length_norms[k1, b] = norms
        return norms


def build_term_index(docs: Sequence[Document]) -> TermIndex:
    """Tokenize each document once and collect its postings, lengths and norm."""
    postings: dict[str, tuple[list[int], list[int]]] = {}
    lengths: list[int] = []
    doc_counts: list[dict[str, int]] = []
    for pos, doc in enumerate(docs):
        tokens = tokenize(doc.body)
        lengths.append(len(tokens))
        counts = term_counts(tokens)
        for word, count in counts.items():
            entry = postings.get(word)
            if entry is None:
                entry = postings[word] = ([], [])
            entry[0].append(pos)
            entry[1].append(count)
        doc_counts.append(counts)
    n = len(docs)
    model = TfIdfModel(n_docs=n, df={w: len(entry[0]) for w, entry in postings.items()})
    return TermIndex(
        doc_ids=tuple(d.id for d in docs),
        postings=postings,
        model=model,
        lengths=lengths,
        avg_len=sum(lengths) / n if n else 0.0,
        norms=[vector_norm(tfidf_weights(counts, model)) for counts in doc_counts],
    )


def tfidf(word: str, tokens: Sequence[str], model: TfIdfModel) -> float:
    """Raw term frequency in ``tokens`` times ln(N / df); 0 for unseen words."""
    tf = sum(1 for t in tokens if t == word)
    return tf * model.idf(word)


@dataclass(frozen=True)
class TopicCandidate:
    word: str
    score: float


def top_candidates(tokens: Sequence[str], model: TfIdfModel, k: int = DEFAULT_TOP_K) -> list[TopicCandidate]:
    """The document's ``k`` best-scoring distinct words, ties alphabetical."""
    scored = [TopicCandidate(word=w, score=tfidf(w, tokens, model)) for w in sorted(set(tokens))]
    scored.sort(key=lambda c: (-c.score, c.word))
    return scored[:k]


def _ca_scores(candidates_per_doc: Iterable[Sequence[TopicCandidate]], entity_count: int) -> dict[str, float]:
    """Corpus-adjusted score of every candidate word in a domain: its
    TF-IDF summed over every document where it is a candidate, divided by
    the domain's entity group count."""
    if entity_count < 1:
        raise ValueError(f"entity_count must be >= 1, got {entity_count}")
    totals: dict[str, float] = {}
    for cands in candidates_per_doc:
        for c in cands:
            totals[c.word] = totals.get(c.word, 0.0) + c.score
    return {w: total / entity_count for w, total in totals.items()}


def ca_tfidf(word: str, candidates_per_doc: Iterable[Sequence[TopicCandidate]], entity_count: int) -> float:
    """Corpus-adjusted score of one word; 0 when it is no candidate."""
    return _ca_scores(candidates_per_doc, entity_count).get(word, 0.0)


@dataclass
class TopicIndex:
    version: str
    config_fingerprint: str
    thresholds: dict[str, float]
    topics: dict[str, tuple[str, ...]]

    def topic(self, doc_id: str) -> tuple[str, ...]:
        return self.topics.get(doc_id, ())


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, raw unicode."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_fingerprint(
    thresholds: DomainThresholds, top_k: int, stopwords: frozenset[str]
) -> str:
    stop_digest = hashlib.sha256("\n".join(sorted(stopwords)).encode("utf-8")).hexdigest()
    payload = canonical_dumps(
        {"thresholds": asdict(thresholds), "top_k": top_k, "stopwords_sha256": stop_digest}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_index(
    base: DocumentBase,
    thresholds: DomainThresholds | None = None,
    stopwords: frozenset[str] | None = None,
    top_k: int = DEFAULT_TOP_K,
) -> TopicIndex:
    """Extract topic words for every document in the base.

    Documents whose tokens are all stopwords fall back to their unfiltered
    tokens so that the keep-one floor always has a candidate to keep.
    """
    if len(base) == 0:
        raise EmptyCorpusError("document base is empty")
    if thresholds is None:
        thresholds = DomainThresholds()
    if stopwords is None:
        stopwords = load_stopwords()

    topics: dict[str, tuple[str, ...]] = {}
    for domain in base.domains():
        docs = base.domain_documents(domain)
        token_lists = []
        for doc in docs:
            tokens = tokenize(doc.body, stopwords)
            if not tokens:
                tokens = tokenize(doc.body)
            if not tokens:
                raise InvariantError(f"document {doc.id!r} has no extractable tokens")
            token_lists.append(tokens)
        model = fit_tfidf(token_lists)
        cands = [top_candidates(tokens, model, top_k) for tokens in token_lists]

        group_count = max(1, sum(1 for d, _ in base.groups if d == domain))
        scores = _ca_scores(cands, group_count)

        cutoff = thresholds.for_domain(domain)
        for doc, per_doc in zip(docs, cands):
            kept = [c.word for c in per_doc if scores[c.word] >= cutoff]
            if not kept:
                best = min(per_doc, key=lambda c: (-scores[c.word], c.word))
                kept = [best.word]
            kept.sort(key=lambda w: (-scores[w], w))
            topics[doc.id] = tuple(kept)

    return TopicIndex(
        version=INDEX_VERSION,
        config_fingerprint=config_fingerprint(thresholds, top_k, stopwords),
        thresholds=asdict(thresholds),
        topics=topics,
    )


def save_index(index: TopicIndex, path, manifest: Mapping | None = None) -> None:
    obj = {
        "version": index.version,
        "config_fingerprint": index.config_fingerprint,
        "thresholds": index.thresholds,
        "topics": {doc_id: list(words) for doc_id, words in index.topics.items()},
    }
    if manifest is not None:
        obj["manifest"] = dict(manifest)
    Path(path).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")


def load_index(path) -> TopicIndex:
    obj = read_json(path, dict, "index file")
    version = obj.get("version")
    if version != INDEX_VERSION:
        raise VersionError(f"{path}: index version {version!r} != supported {INDEX_VERSION!r}")
    thresholds = obj.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise SchemaError(f"{path}: thresholds must be an object")
    topics = obj.get("topics", {})
    if not isinstance(topics, dict) or not all(
        isinstance(words, list) and all(isinstance(w, str) for w in words) for words in topics.values()
    ):
        raise SchemaError(f"{path}: topics must be an object of word lists")
    return TopicIndex(
        version=version,
        config_fingerprint=obj.get("config_fingerprint", ""),
        thresholds=dict(thresholds),
        topics={doc_id: tuple(words) for doc_id, words in topics.items()},
    )


def fingerprint_matches(
    index: TopicIndex,
    thresholds: DomainThresholds,
    top_k: int = DEFAULT_TOP_K,
    stopwords: frozenset[str] | None = None,
) -> bool:
    """Whether the index was built under the given configuration."""
    if stopwords is None:
        stopwords = load_stopwords()
    return index.config_fingerprint == config_fingerprint(thresholds, top_k, stopwords)
