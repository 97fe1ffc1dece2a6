"""Hybrid knowledge management engine and evaluation harness for
task-oriented dialog: belief states extended with an unstructured-knowledge
slot, topic indexing over a document base, database matching, document
retrieval, and the full evaluation metric suite."""

from .belief import (
    DONTCARE,
    NO_ENTITY,
    RUK_DOMAINS,
    RUK_SLOT,
    DsvTriple,
    ExtendedBeliefState,
    extend_label,
    normalize_state,
    normalize_text,
    parse_state,
    serialize_state,
    state_vocabularies,
)
from .corpus import (
    Database,
    DbEntry,
    Dialog,
    DialogCorpus,
    Document,
    DocumentBase,
    DomainGoal,
    GoalSpec,
    Ontology,
    Turn,
    TurnKind,
    corpus_stats,
    build_context,
    load_corpus,
    load_database,
    load_document_base,
    load_ontology,
    save_corpus,
    unresolvable_doc_refs,
)
from .errors import (
    ConflictError,
    DuplicateDocError,
    DuplicateIdError,
    EmptyCorpusError,
    FormatError,
    HybridKmError,
    InvariantError,
    LengthMismatchError,
    MissingIndexError,
    MissingPredictionError,
    ParseError,
    SchemaError,
    UnknownDomainError,
    UnknownSlotError,
    VersionError,
)
from .kb_structured import MatchResult, MatchVector, encode_match, query
from .kb_unstructured import (
    DomainThresholds,
    TfIdfModel,
    TopicIndex,
    build_index,
    ca_tfidf,
    fit_tfidf,
    load_index,
    load_stopwords,
    save_index,
    tfidf,
    tokenize,
    top_candidates,
)
from .metrics import (
    EvalReport,
    TurnPrediction,
    bleu,
    evaluate,
    inform_success,
    joint_goal,
    lcs_length,
    load_predictions,
    meteor,
    mrr_at_k,
    r_at_1,
    rouge_l,
)
from .retrieval import (
    RankedRetrieval,
    RetrievalQuery,
    bm25_retrieve,
    fuzzy_ratio,
    locate_documents,
    tfidf_retrieve,
    topic_match_retrieve,
)

__version__ = "0.1.0"
