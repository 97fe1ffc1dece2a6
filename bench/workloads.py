"""The three benchmark workloads over one generated dataset.

Each workload loads its inputs in ``setup`` (timed as set-up), lists its
operations, runs one operation per ``run_op`` call (the timed unit of the
closed loop), and checks outputs against oracles that read the generated
JSON directly, without the package's loaders.

The package is reached through module attributes at call time
(``metrics.evaluate(...)``), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from hybridkm import belief, corpus, kb_structured, kb_unstructured, metrics, retrieval

#: Dialogs scored per evaluate call in eval-test.
EVAL_CHUNK_DIALOGS = 10
#: Inserted test turns ranked by both baselines in one baseline-rank pass.
BASELINE_SAMPLE = 100
TOP_K = retrieval.DEFAULT_TOP_N


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _flat_state(text: str) -> tuple[dict[str, str], list[str]]:
    """Independent reading of the flat state format: ({domain-slot: value}, topic)."""
    head, _, tail = text.partition("|")
    topic = tail.strip()[len("topic:"):].split() if tail else []
    triples = {}
    for segment in head.split(";"):
        if segment.strip():
            key, _, value = segment.partition(":")
            triples[key.strip().lower()] = " ".join(value.split()).lower()
    return triples, topic


def _rank_quality(pairs) -> tuple[float, float]:
    """(R@1, MRR@5) over (ranked doc ids, gold doc id) pairs."""
    pairs = list(pairs)
    if not pairs:
        return 0.0, 0.0
    r1 = sum(1 for ranked, gold in pairs if ranked[:1] == [gold]) / len(pairs)
    mrr = sum(1.0 / (ranked.index(gold) + 1) for ranked, gold in pairs if gold in ranked[:5]) / len(pairs)
    return r1, mrr


def _ranking_ok(ranking, k: int, lo: float, hi: float) -> bool:
    ids = [doc_id for doc_id, _ in ranking]
    keys = [(-score, doc_id) for doc_id, score in ranking]
    return (
        len(ranking) <= k
        and len(set(ids)) == len(ids)
        and keys == sorted(keys)
        and all(lo <= score <= hi for _, score in ranking)
    )


class EvalTest:
    """metrics.evaluate over the whole test-split prediction file, in
    chunks of EVAL_CHUNK_DIALOGS dialogs, delexicalized, with DB and ontology."""

    name = "eval-test"
    item = "turn"

    def __init__(self, data: Path, seed: int):
        self.data = data

    def setup(self):
        d = self.data
        ontology = corpus.load_ontology(d / "ontology.json")
        db = corpus.load_database(d / "db.json", ontology=ontology)
        gold = corpus.load_corpus(d / "corpus.json", ontology=ontology)
        predictions = metrics.load_predictions(d / "predictions.json")
        by_dialog: dict[str, list] = {}
        for p in predictions:
            by_dialog.setdefault(p.dialog_id, []).append(p)
        dialogs = sorted(gold, key=lambda dg: dg.id)
        chunks = []
        for i in range(0, len(dialogs), EVAL_CHUNK_DIALOGS):
            part = dialogs[i : i + EVAL_CHUNK_DIALOGS]
            sub = corpus.DialogCorpus(dialogs={dg.id: dg for dg in part}, ontology=ontology)
            chunks.append((sub, [p for dg in part for p in by_dialog[dg.id]], sum(len(dg.turns) for dg in part)))
        whole = (gold, predictions, sum(len(dg.turns) for dg in dialogs))
        return {"db": db, "ontology": ontology, "chunks": chunks, "whole": whole}

    def ops(self, state):
        return state["chunks"]

    @staticmethod
    def whole(state):
        """The operation that scores the whole prediction file at once."""
        return state["whole"]

    @staticmethod
    def weight(op) -> int:
        return op[2]

    def run_op(self, state, op):
        report = metrics.evaluate(op[0], op[1], db=state["db"], ontology=state["ontology"])
        return report.to_dict()

    def check(self, ops, outputs) -> list[int]:
        """Indices of reports that disagree with the oracle."""
        d = self.data
        gold = {dg["id"]: dg for dg in _load_json(d / "corpus.json")["dialogs"]}
        preds = {(p["dialog_id"], p["turn_index"]): p for p in _load_json(d / "predictions.json")}
        bad = []
        for i, (op, report) in enumerate(zip(ops, outputs)):
            n_orig = n_ins = jg = 0
            ranked = []
            for dialog_id in sorted(op[0].dialogs):
                for turn in gold[dialog_id]["turns"]:
                    pred = preds[(dialog_id, turn["index"])]
                    if turn["kind"] == "original":
                        n_orig += 1
                        triples, _ = _flat_state(pred["state"])
                        jg += {k: v for k, v in triples.items() if not k.endswith("-ruk")} == turn["state"]["triples"]
                    else:
                        n_ins += 1
                        ranked.append((pred.get("ranked_docs", []), turn["doc_id"]))
            r1, mrr = _rank_quality(ranked)
            expect = {
                "n_dialogs": len(op[0].dialogs),
                "n_turns": n_orig + n_ins,
                "n_original": n_orig,
                "n_inserted": n_ins,
                "joint_goal": 100.0 * jg / n_orig if n_orig else 0.0,
                "r1": r1,
                "mrr5": mrr,
                "combined": (report["inform"] + report["success"]) * 0.5 + report["bleu"],
            }
            ok = isinstance(report, dict) and all(
                math.isclose(report[k], v, rel_tol=1e-9, abs_tol=1e-12) for k, v in expect.items()
            )
            ok = ok and all(0.0 <= report[k] <= 100.0 for k in ("inform", "success", "bleu", "meteor", "rouge_l"))
            ok = ok and report["success"] <= report["inform"]
            ok = ok and set(report["by_split"]) == {"test"} and report["by_split"]["test"]["n_turns"] == n_orig + n_ins
            if not ok:
                bad.append(i)
        return bad

    def quality(self, ops, outputs) -> dict:
        return {}


class EngineTurns:
    """The serving engine replays every test turn in order: parse the
    predicted state, query and encode the DB match for each constrained
    domain, and rank documents by topic when a ruk triple is present."""

    name = "engine-turns"
    item = "turn"

    def __init__(self, data: Path, seed: int):
        self.data = data

    def setup(self):
        d = self.data
        ontology = corpus.load_ontology(d / "ontology.json")
        db = corpus.load_database(d / "db.json", ontology=ontology)
        gold = corpus.load_corpus(d / "corpus.json", ontology=ontology)
        base = corpus.load_document_base(d / "docs.json")
        index_path = d / "index.json"
        kb_unstructured.save_index(kb_unstructured.build_index(base), index_path)
        index = kb_unstructured.load_index(index_path)
        extended = [
            belief.extend_label(turn.state, (base.documents[turn.doc_id], index.topic(turn.doc_id)))
            for dialog in gold
            for turn in dialog.turns
            if turn.kind is corpus.TurnKind.INSERTED
        ]
        requests = [p["state"] for p in _load_json(d / "predictions.json")]
        return {"db": db, "base": base, "index": index, "extended": extended, "requests": requests}

    def ops(self, state):
        return state["requests"]

    @staticmethod
    def weight(op) -> int:
        return 1

    def run_op(self, state, text):
        st = belief.parse_state(text)
        db = state["db"]
        matches = []
        for domain in sorted({t.domain for t in st.non_ruk_triples if t.domain in db.tables}):
            result = kb_structured.query(db, st, domain)
            matches.append((domain, result.count, kb_structured.encode_match(result).bits))
        ranked = None
        if st.ruk_triple is not None:
            result = retrieval.topic_match_retrieve(state["base"], state["index"], st)
            ranked = result.ranking if result is not None else None
        return tuple(matches), ranked

    def check(self, ops, outputs) -> list[int]:
        """Indices of turns whose match vectors or ranking fail the oracle."""
        d = self.data
        rows = {
            domain: [({s: " ".join(str(v).split()).lower() for s, v in r["slots"].items()}, r.get("bookable", False)) for r in table]
            for domain, table in _load_json(d / "db.json").items()
        }
        doc_domain = {doc["id"]: doc["domain"] for doc in _load_json(d / "docs.json")["documents"]}
        seen: dict = {}  # (domain, constraints) -> bookable flag of each matching row
        bad = []
        for i, (text, (matches, ranked)) in enumerate(zip(ops, outputs)):
            triples, topic = _flat_state(text)
            domains = sorted({k.partition("-")[0] for k in triples if not k.endswith("-ruk")} & set(rows))
            ok = [m[0] for m in matches] == domains
            for domain, count, bits in matches:
                cons = {k.partition("-")[2]: v for k, v in triples.items() if k.startswith(domain + "-") and not k.endswith("-ruk")}
                key = (domain, tuple(sorted(cons.items())))
                if key not in seen:
                    seen[key] = [
                        bookable for slots, bookable in rows[domain]
                        if all(v == "dontcare" or slots.get(s, "") == v for s, v in cons.items())
                    ]
                hits = seen[key]
                bucket = 0 if not hits else 1 if len(hits) == 1 else 2 if len(hits) <= 3 else 3
                want = [int(b == bucket) for b in range(4)] + [int(any(hits))]
                ok = ok and count == len(hits) and list(bits) == want
            ruk = next((k for k in triples if k.endswith("-ruk")), None)
            if ruk is None or not topic:
                ok = ok and ranked is None
            else:
                ruk_domain = ruk.partition("-")[0]
                ok = ok and ranked is not None and len(ranked) > 0 and _ranking_ok(ranked, TOP_K, 0.0, 1.0)
                ok = ok and all(doc_domain.get(doc_id) == ruk_domain for doc_id, _ in ranked or ())
            if not ok:
                bad.append(i)
        return bad

    def quality(self, ops, outputs) -> dict:
        d = self.data
        gold = {}
        for dialog in _load_json(d / "corpus.json")["dialogs"]:
            for turn in dialog["turns"]:
                gold[(dialog["id"], turn["index"])] = turn.get("doc_id")
        keys = [(p["dialog_id"], p["turn_index"]) for p in _load_json(d / "predictions.json")]
        pairs = [
            ([doc_id for doc_id, _ in ranked], gold[key])
            for key, (_, ranked) in zip(keys, outputs)
            if ranked is not None and gold[key] is not None
        ]
        r1, mrr = _rank_quality(pairs)
        return {"topic_r1": r1, "topic_mrr5": mrr, "topic_queries": len(pairs)}


class BaselineRank:
    """TF-IDF and BM25 over the whole document base, no domain filter, for
    the dialog context of a seeded sample of inserted test turns."""

    name = "baseline-rank"
    item = "context"

    def __init__(self, data: Path, seed: int):
        self.data = data
        self.seed = seed

    def setup(self):
        d = self.data
        gold = corpus.load_corpus(d / "corpus.json")
        base = corpus.load_document_base(d / "docs.json")
        inserted = [
            (dialog, turn.index, turn.doc_id)
            for dialog in sorted(gold, key=lambda dg: dg.id)
            for turn in dialog.turns
            if turn.kind is corpus.TurnKind.INSERTED
        ]
        sample = random.Random(self.seed).sample(inserted, min(BASELINE_SAMPLE, len(inserted)))
        return {"base": base, "sample": sample}

    def ops(self, state):
        return state["sample"]

    @staticmethod
    def weight(op) -> int:
        return 1

    def run_op(self, state, op):
        context = corpus.build_context(op[0], op[1])
        base = state["base"]
        return (
            retrieval.tfidf_retrieve(base, context).ranking,
            retrieval.bm25_retrieve(base, context).ranking,
        )

    def check(self, ops, outputs) -> list[int]:
        n_docs = len(_load_json(self.data / "docs.json")["documents"])
        k = min(TOP_K, n_docs)
        return [
            i
            for i, (tfidf, bm25) in enumerate(outputs)
            if not (
                len(tfidf) == k == len(bm25)
                and _ranking_ok(tfidf, k, 0.0, 1.0 + 1e-9)
                and _ranking_ok(bm25, k, 0.0, math.inf)
            )
        ]

    def quality(self, ops, outputs) -> dict:
        gold = [op[2] for op in ops]
        out = {}
        for m, method in enumerate(("tfidf", "bm25")):
            r1, mrr = _rank_quality(([doc_id for doc_id, _ in o[m]], g) for o, g in zip(outputs, gold))
            out[f"{method}_r1"], out[f"{method}_mrr5"] = r1, mrr
        out["contexts"] = len(gold)
        return out


WORKLOADS = {w.name: w for w in (EvalTest, EngineTurns, BaselineRank)}
