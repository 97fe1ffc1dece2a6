"""The shared term index behind the TF-IDF and BM25 baselines.

The rankings are checked for exact equality (ids and float scores) against
an oracle that rebuilds every statistic from the raw documents on each
call, as the baselines did before the index existed.
"""

import gc
import math
import operator
import weakref
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkm import kb_unstructured, retrieval
from hybridkm.belief import DsvTriple, ExtendedBeliefState
from hybridkm.corpus import Document, DocumentBase, build_context
from hybridkm.kb_unstructured import build_term_index, fit_tfidf, tokenize
from hybridkm.retrieval import bm25_retrieve, tfidf_retrieve, topic_match_retrieve

# ---------------------------------------------------------------------------
# oracle: statistics rebuilt from the documents on every call


def _oracle_docs(base, domain):
    if domain is None:
        return tuple(base.documents.values())
    return base.domain_documents(domain)


def _oracle_context_tokens(context):
    if isinstance(context, str):
        context = [context]
    tokens = []
    for utterance in context:
        tokens.extend(tokenize(utterance))
    return tokens


def _oracle_tfidf_vector(tokens, model):
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    return {w: c * model.idf(w) for w, c in counts.items() if model.idf(w) > 0.0}


def _left_to_right(values):
    """Float sum added one by one from 0.0, as the baselines add (sum()
    compensates from Python 3.12 on)."""
    return reduce(operator.add, values, 0.0)


def oracle_tfidf(base, context, domain=None, k=5):
    docs = _oracle_docs(base, domain)
    doc_tokens = [tokenize(d.body) for d in docs]
    model = fit_tfidf(doc_tokens)
    query = _oracle_context_tokens(context)
    q_vec = _oracle_tfidf_vector(query, model)
    q_norm = math.sqrt(_left_to_right(v * v for v in q_vec.values()))
    scored = []
    for doc, tokens in zip(docs, doc_tokens):
        d_vec = _oracle_tfidf_vector(tokens, model)
        d_norm = math.sqrt(_left_to_right(v * v for v in d_vec.values()))
        if q_norm == 0.0 or d_norm == 0.0:
            score = 0.0
        else:
            dot = _left_to_right(v * d_vec[w] for w, v in q_vec.items() if w in d_vec)
            score = dot / (q_norm * d_norm)
        scored.append((doc.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return tuple(scored[:k])


def oracle_bm25(base, context, domain=None, k=5, k1=1.5, b=0.75):
    docs = _oracle_docs(base, domain)
    doc_tokens = [tokenize(d.body) for d in docs]
    n = len(docs)
    df = {}
    for tokens in doc_tokens:
        for w in set(tokens):
            df[w] = df.get(w, 0) + 1
    avg_len = sum(len(t) for t in doc_tokens) / n if n else 0.0
    query = _oracle_context_tokens(context)
    scored = []
    for doc, tokens in zip(docs, doc_tokens):
        counts = {}
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
    return tuple(scored[:k])


def assert_same_as_oracle(base, context, domain, k, k1=1.5, b=0.75):
    assert tfidf_retrieve(base, context, domain=domain, k=k).ranking == oracle_tfidf(base, context, domain, k)
    assert bm25_retrieve(base, context, domain=domain, k=k, k1=k1, b=b).ranking == oracle_bm25(
        base, context, domain, k, k1, b
    )


# ---------------------------------------------------------------------------
# exact agreement with the oracle


def test_synthetic_rankings_equal_the_oracle(base, corpus):
    contexts = [build_context(dialog, turn.index) for dialog in corpus for turn in dialog.turns]
    contexts += ["can i bring my bicycle on the train", "zzz qqq", "the the the parking parking"]
    domains = (None, *base.domains(), "nowhere")
    for context in contexts:
        for domain in domains:
            for k in (1, 5, len(base) + 2):
                assert_same_as_oracle(base, context, domain, k)


@pytest.fixture()
def overlap_base():
    """Three hotel documents that all contain "sauna" (zero TF-IDF idf) and
    one taxi document."""
    return DocumentBase(
        [
            Document(id="h3", domain="hotel", entity="x", body="Sauna, pool and pool towels."),
            Document(id="h1", domain="hotel", entity="y", body="sauna"),
            Document(id="h2", domain="hotel", entity=None, body="The sauna opens at 7; parking is free."),
            Document(id="t1", domain="taxi", entity=None, body="!!!"),
        ]
    )


@pytest.mark.parametrize(
    "context",
    [
        "pool pool pool towels",  # repeated query tokens
        ["unknown words", "only here"],  # no query word in any document
        "sauna",  # zero idf within the hotel domain
        "",
        ["parking", "", "pool sauna parking"],
    ],
)
@pytest.mark.parametrize("domain", [None, "hotel", "taxi", "nowhere"])
@pytest.mark.parametrize("k", [1, 2, 4, 10])
def test_edge_cases_equal_the_oracle(overlap_base, context, domain, k):
    assert_same_as_oracle(overlap_base, context, domain, k)


def test_unknown_domain_ranks_nothing(overlap_base):
    assert tfidf_retrieve(overlap_base, "pool", domain="nowhere").ranking == ()
    assert bm25_retrieve(overlap_base, "pool", domain="nowhere").ranking == ()


def test_unscored_documents_fill_up_in_id_order(overlap_base):
    ranked = tfidf_retrieve(overlap_base, "parking", k=4).ranking
    assert ranked[0][0] == "h2"
    assert ranked[1:] == (("h1", 0.0), ("h3", 0.0), ("t1", 0.0))


WORDS = ("pool", "sauna", "the", "wifi", "dogs", "parking", "a1", "late")
DOMAINS = ("hotel", "restaurant", "taxi")


@st.composite
def random_bases(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    ids = draw(st.permutations([f"d{i:02d}" for i in range(n)]))
    docs = []
    for doc_id in ids:
        words = draw(st.lists(st.sampled_from(WORDS + ("!", "Pool,")), min_size=1, max_size=10))
        docs.append(Document(id=doc_id, domain=draw(st.sampled_from(DOMAINS)), entity=None, body=" ".join(words)))
    return DocumentBase(docs)


contexts = st.lists(
    st.lists(st.sampled_from(WORDS + ("zzz", "POOL")), max_size=8).map(" ".join), min_size=1, max_size=3
)


@settings(max_examples=200, deadline=None)
@given(
    base=random_bases(),
    queries=st.lists(
        st.tuples(
            contexts,
            st.sampled_from((None, *DOMAINS, "train")),
            st.integers(min_value=1, max_value=15),
            st.sampled_from(((1.5, 0.75), (1.2, 0.0), (2.0, 1.0), (0.0, 0.5))),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_random_bases_equal_the_oracle(base, queries):
    # Several queries on one base: later ones reuse the index built by the first.
    for context, domain, k, (k1, b) in queries:
        assert_same_as_oracle(base, context, domain, k, k1, b)


# ---------------------------------------------------------------------------
# one index per base and domain, built on first use, freed with the base


def test_second_query_tokenizes_only_the_context(monkeypatch, overlap_base):
    calls = []
    original = kb_unstructured.tokenize

    def counting(text, stopwords=None):
        calls.append(text)
        return original(text, stopwords)

    monkeypatch.setattr(kb_unstructured, "tokenize", counting)
    monkeypatch.setattr(retrieval, "tokenize", counting)
    context = ["is there a pool", "yes there is"]

    tfidf_retrieve(overlap_base, context, domain="hotel")
    assert len(calls) == 3 + len(context)  # the three hotel documents, then the context
    calls.clear()
    bm25_retrieve(overlap_base, context, domain="hotel")
    tfidf_retrieve(overlap_base, context, domain="hotel")
    assert calls == context + context
    calls.clear()
    bm25_retrieve(overlap_base, context)  # another domain filter: another index
    assert len(calls) == len(overlap_base) + len(context)


def test_index_is_freed_with_its_base():
    base = DocumentBase([Document(id="a", domain="hotel", entity=None, body="pool")])
    bm25_retrieve(base, "pool")
    per_domain = retrieval._term_indexes[base]
    index = weakref.ref(per_domain[None])
    del per_domain
    assert index() is not None
    del base
    gc.collect()
    assert index() is None


def test_index_statistics(overlap_base):
    index = build_term_index(overlap_base.domain_documents("hotel"))
    assert index.doc_ids == ("h1", "h2", "h3")
    assert index.postings["pool"] == ([2], [2])
    assert index.postings["sauna"] == ([0, 1, 2], [1, 1, 1])
    assert index.model.df["sauna"] == 3
    assert index.lengths == [1, 8, 5]
    assert index.avg_len == 14 / 3
    assert index.norms[0] == 0.0  # "sauna" alone has idf 0
    assert index.length_norms(1.5, 0.75) is index.length_norms(1.5, 0.75)


# ---------------------------------------------------------------------------
# k must be at least 1


@pytest.mark.parametrize("k", [0, -1])
def test_baselines_reject_k_below_one(overlap_base, k):
    with pytest.raises(ValueError):
        tfidf_retrieve(overlap_base, "pool", k=k)
    with pytest.raises(ValueError):
        bm25_retrieve(overlap_base, "pool", k=k)


@pytest.mark.parametrize("k", [0, -1])
def test_topic_retrieve_rejects_k_below_one(base, index, k):
    state = ExtendedBeliefState(triples=(DsvTriple("restaurant", "ruk", "alpha bistro"),), topic=("dogs",))
    with pytest.raises(ValueError):
        topic_match_retrieve(base, index, state, k=k)
