"""Print, as one JSON document, the outputs that must be the same bytes on
every supported Python: the delexicalized and lexical evaluate reports on
the synthetic data, and TF-IDF and BM25 rankings on a seeded document base.

Stdlib only, so that an interpreter without pytest can run it:

    python tests/same_bytes.py

``tests/test_same_bytes.py`` runs it under each interpreter named in
``HYBRIDKM_EXTRA_PYTHONS`` and compares the output byte for byte.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hybridkm import Document, DocumentBase, load_corpus, load_database, load_ontology  # noqa: E402
from hybridkm.metrics import evaluate, load_predictions  # noqa: E402
from hybridkm.retrieval import bm25_retrieve, tfidf_retrieve  # noqa: E402

DATA = ROOT / "tests" / "data" / "synthetic"


def reports() -> dict[str, str]:
    """The evaluate report text for each mode, as the golden files hold it."""
    ontology = load_ontology(DATA / "ontology.json")
    corpus = load_corpus(DATA / "corpus.json", ontology=ontology)
    db = load_database(DATA / "db.json", ontology=ontology)
    predictions = load_predictions(DATA / "predictions_imperfect.json")
    out = {}
    for mode in ("delex", "lexical"):
        report = evaluate(corpus, predictions, db=db, ontology=ontology, delex=mode == "delex")
        out[mode] = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return out


def _text(rng: random.Random, vocab: list[str], low: int, high: int) -> str:
    # Squaring skews the draw towards the first words, so some words occur
    # in many documents and a context shares several words with a document.
    return " ".join(vocab[int(len(vocab) * rng.random() ** 2)] for _ in range(rng.randint(low, high)))


def rankings(seed: int = 1, n_docs: int = 400, n_contexts: int = 60, k: int = 10) -> dict[str, list]:
    """TF-IDF and BM25 rankings of seeded contexts over a seeded base."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(500)]
    domains = ("hotel", "restaurant")
    base = DocumentBase(
        Document(id=f"d{i:04d}", domain=domains[i % 2], entity=None, body=_text(rng, vocab, 5, 60))
        for i in range(n_docs)
    )
    contexts = [[_text(rng, vocab, 2, 20) for _ in range(rng.randint(1, 2))] for _ in range(n_contexts)]
    out: dict[str, list] = {"tfidf": [], "bm25": []}
    for domain in (None, *domains):
        for context in contexts:
            out["tfidf"].append(tfidf_retrieve(base, context, domain=domain, k=k).ranking)
            out["bm25"].append(bm25_retrieve(base, context, domain=domain, k=k).ranking)
    return out


def main() -> None:
    sys.stdout.write(json.dumps({"reports": reports(), "rankings": rankings()}, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
