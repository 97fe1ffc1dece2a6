"""Command-line entry point.

One binary, six subcommands:

  stats          corpus statistics
  build-index    extract per-document topics and write the index file
  extend-labels  add ruk triples and topics to inserted turns' gold states
  retrieve       rank documents for a state (topic) or context (tfidf, bm25)
  query-db       run a belief state against the database
  evaluate       score a prediction file against a gold corpus

stdout carries exactly one JSON payload per invocation; all diagnostics go
to stderr.  Every payload embeds a run manifest: sha256 of each input file,
the effective configuration, and its fingerprint.  Errors print a
structured ``{"error": {...}}`` object and exit 1.

Configuration is a JSON file (flag --config, or the HYBRIDKM_CONFIG
environment variable) with four sections; unknown keys are rejected:

  paths       corpus, docs, db, ontology, canon_map, stopwords
  thresholds  restaurant, hotel, taxi, train
  retrieval   method, k, k1, b, entity_fuzzy_threshold
  metrics     delex, bleu_smoothing

Command-line flags override config values.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .belief import extend_label, parse_state
from .corpus import (
    DialogCorpus,
    TurnKind,
    corpus_stats,
    load_corpus,
    load_database,
    load_document_base,
    load_ontology,
    read_json,
    save_corpus,
    unresolvable_doc_refs,
)
from .errors import HybridKmError, MissingIndexError, SchemaError
from .kb_structured import encode_match, query
from .kb_unstructured import (
    DEFAULT_TOP_K,
    DomainThresholds,
    build_index,
    canonical_dumps,
    fingerprint_matches,
    load_index,
    load_stopwords,
    save_index,
)
from .metrics import evaluate, load_predictions
from .retrieval import BM25_B, BM25_K1, DEFAULT_TOP_N, FUZZY_ENTITY_THRESHOLD
from .retrieval import bm25_retrieve, tfidf_retrieve, topic_match_retrieve

ENV_CONFIG = "HYBRIDKM_CONFIG"

logger = logging.getLogger("hybridkm")

_DEFAULT_CONFIG: dict = {
    "paths": {
        "corpus": None,
        "docs": None,
        "db": None,
        "ontology": None,
        "canon_map": None,
        "stopwords": None,
    },
    "thresholds": asdict(DomainThresholds()),
    "retrieval": {
        "method": "topic",
        "k": DEFAULT_TOP_N,
        "k1": BM25_K1,
        "b": BM25_B,
        "entity_fuzzy_threshold": FUZZY_ENTITY_THRESHOLD,
    },
    "metrics": {"delex": True, "bleu_smoothing": True},
}

#: What a config value must be, by the type of its default.  retrieval.k,
#: the one integer, is checked where it is used, since it must also be >= 1.
_CONFIG_TYPES = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the config file, rejecting unknown keys and
    values whose type does not match their default's."""
    config = copy.deepcopy(_DEFAULT_CONFIG)
    if not path:
        return config
    data = read_json(path, dict, "config")
    for section, values in data.items():
        if section not in config:
            raise SchemaError(f"{path}: unknown config section {section!r}")
        if not isinstance(values, dict):
            raise SchemaError(f"{path}: config section {section!r} must be an object")
        for key, value in values.items():
            if key not in config[section]:
                raise SchemaError(f"{path}: unknown config key {section}.{key}")
            rule = _CONFIG_TYPES.get(type(config[section][key]))
            if rule is not None and not rule[1](value):
                raise SchemaError(f"{path}: config {section}.{key} must be {rule[0]}, got {value!r}")
            config[section][key] = value
    return config


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_manifest(config: dict, inputs: dict[str, object], seed: int | None = None) -> dict:
    manifest = {
        "inputs": {
            role: {"path": str(p), "sha256": _sha256(p)} for role, p in sorted(inputs.items())
        },
        "config": config,
        "config_fingerprint": hashlib.sha256(canonical_dumps(config).encode("utf-8")).hexdigest(),
    }
    if seed is not None:
        manifest["seed"] = seed
    return manifest


def _thresholds(config: dict) -> DomainThresholds:
    return DomainThresholds(**config["thresholds"])


def _load_canon_map(path) -> dict[str, str]:
    # Any top level passes read_json: the check below names the whole shape.
    data = read_json(path, object, "canon map")
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in data.items()
    ):
        raise SchemaError(f"{path}: canon map must be a JSON object of strings")
    return data


#: How each input file is loaded, given the inputs loaded before it.  The
#: loaders are looked up in this module's globals at call time, so that a
#: tracer that rebinds them sees every load.
_LOADERS = {
    "ontology": lambda path, got: load_ontology(path),
    "corpus": lambda path, got: load_corpus(path, ontology=got.get("ontology")),
    "db": lambda path, got: load_database(path, ontology=got.get("ontology")),
    "docs": lambda path, got: load_document_base(path),
    "index": lambda path, got: load_index(path),
    "predictions": lambda path, got: load_predictions(path),
    "canon_map": lambda path, got: _load_canon_map(path),
    "stopwords": lambda path, got: load_stopwords(path),
}


def _load_inputs(args, config: dict, roles) -> tuple[dict, dict]:
    """Load the inputs named by ``roles``, ``(role, required)`` pairs in
    load order, and return them and the paths the manifest records.

    Every path is resolved before anything is loaded: the role's flag, else
    config ``paths``.  A required input with no path is an error; an
    optional one with no or an empty path is left out of both results.
    """
    paths = {}
    for role, required in roles:
        path = getattr(args, role, None)
        if path is None:
            path = config["paths"].get(role)
        if path is None and required:
            raise SchemaError(f"no {role} path given (use --{role} or config paths.{role})")
        if role == "index" and not Path(path).exists():
            raise MissingIndexError(f"index file not found: {path} (run build-index first)")
        if path or required:
            paths[role] = path
    got: dict = {}
    for role, path in paths.items():
        got[role] = _LOADERS[role](path, got)
    return got, paths


def cmd_stats(args, config: dict) -> dict:
    got, paths = _load_inputs(args, config, [("ontology", False), ("corpus", True)])
    corpus = got["corpus"]
    stats = corpus_stats(corpus)
    return {
        "dialogs_per_split": dict(stats.dialogs_per_split),
        "n_dialogs": len(corpus),
        "avg_turns": stats.avg_turns,
        "slot_types": stats.slot_types,
        "slot_values": stats.slot_values,
        "manifest": make_manifest(config, paths, args.seed),
    }


def cmd_build_index(args, config: dict) -> dict:
    got, paths = _load_inputs(args, config, [("docs", True), ("stopwords", False)])
    base = got["docs"]
    index = build_index(base, thresholds=_thresholds(config), stopwords=got.get("stopwords"))
    manifest = make_manifest(config, paths, args.seed)
    save_index(index, args.out, manifest=manifest)
    logger.info("indexed %d documents -> %s", len(base), args.out)
    return {
        "documents": len(base),
        "indexed": len(index.topics),
        "config_fingerprint": index.config_fingerprint,
        "out": str(args.out),
        "manifest": manifest,
    }


def cmd_extend_labels(args, config: dict) -> dict:
    got, paths = _load_inputs(args, config, [("corpus", True), ("docs", True), ("index", True)])
    corpus, base, index = got["corpus"], got["docs"], got["index"]

    missing = unresolvable_doc_refs(corpus, base)
    if missing:
        offenders = ", ".join(f"{d}/turn {t} -> {doc!r}" for d, t, doc in missing)
        raise SchemaError(f"unresolvable document references: {offenders}")
    unindexed = sorted(
        {
            turn.doc_id
            for dialog in corpus
            for turn in dialog.turns
            if turn.kind is TurnKind.INSERTED and not index.topic(turn.doc_id)
        }
    )
    if unindexed:
        raise MissingIndexError(f"index has no topics for documents: {unindexed} (rebuild the index)")

    extended = 0
    new_dialogs = {}
    for dialog in corpus:
        turns = []
        for turn in dialog.turns:
            if turn.kind is TurnKind.INSERTED:
                doc = base.documents[turn.doc_id]
                state = extend_label(turn.state, (doc, index.topic(turn.doc_id)))
                turns.append(replace(turn, state=state))
                extended += 1
            else:
                turns.append(turn)
        new_dialogs[dialog.id] = replace(dialog, turns=tuple(turns))
    new_corpus = DialogCorpus(
        dialogs=new_dialogs, schema_version=corpus.schema_version, ontology=corpus.ontology
    )
    manifest = make_manifest(config, paths, args.seed)
    save_corpus(new_corpus, args.out, manifest=manifest)
    logger.info("extended %d inserted turns -> %s", extended, args.out)
    return {"extended_turns": extended, "out": str(args.out), "manifest": manifest}


def cmd_retrieve(args, config: dict) -> dict:
    got, paths = _load_inputs(args, config, [("docs", True)])
    base = got["docs"]
    method = args.method or config["retrieval"]["method"]
    k = args.k if args.k is not None else config["retrieval"]["k"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise SchemaError(f"retrieval k must be an integer >= 1, got {k!r}")

    if method == "topic":
        if args.state is None:
            raise SchemaError("retrieve --method topic needs --state")
        if args.index is None:
            raise SchemaError("retrieve --method topic needs --index")
        topic_inputs, topic_paths = _load_inputs(args, config, [("index", True), ("stopwords", False)])
        paths.update(topic_paths)
        index = topic_inputs["index"]
        if not fingerprint_matches(index, _thresholds(config), DEFAULT_TOP_K, topic_inputs.get("stopwords")):
            logger.warning(
                "index %s was built under a different configuration "
                "(fingerprint mismatch); results may be stale",
                args.index,
            )
        state = parse_state(args.state)
        result = topic_match_retrieve(
            base,
            index,
            state,
            k=k,
            fuzzy_threshold=config["retrieval"]["entity_fuzzy_threshold"],
        )
        ranking = list(result.ranking) if result is not None else []
    elif method in ("tfidf", "bm25"):
        if not args.context:
            raise SchemaError(f"retrieve --method {method} needs at least one --context")
        if method == "tfidf":
            result = tfidf_retrieve(base, args.context, domain=args.domain, k=k)
        else:
            result = bm25_retrieve(
                base,
                args.context,
                domain=args.domain,
                k=k,
                k1=config["retrieval"]["k1"],
                b=config["retrieval"]["b"],
            )
        ranking = list(result.ranking)
    else:
        raise SchemaError(f"unknown retrieval method {method!r}")

    return {
        "method": method,
        "best": ranking[0][0] if ranking else None,
        "ranking": [[doc_id, score] for doc_id, score in ranking],
        "manifest": make_manifest(config, paths, args.seed),
    }


def cmd_query_db(args, config: dict) -> dict:
    got, paths = _load_inputs(args, config, [("ontology", False), ("db", True)])
    state = parse_state(args.state)
    result = query(got["db"], state, args.domain)
    vector = encode_match(result)
    return {
        "domain": args.domain,
        "count": result.count,
        "booking_available": result.booking_available,
        "match_vector": list(vector.bits),
        "entities": sorted(e.identity() for e in result.entries),
        "manifest": make_manifest(config, paths, args.seed),
    }


def cmd_evaluate(args, config: dict) -> dict:
    roles = [("ontology", False), ("db", False), ("canon_map", False), ("corpus", True), ("predictions", True)]
    got, paths = _load_inputs(args, config, roles)
    if "db" in got and "ontology" not in got:
        logger.warning("database given without ontology; inform/success stay 0")
    delex = config["metrics"]["delex"]
    if args.delex:
        delex = True
    elif args.lexical:
        delex = False
    report = evaluate(
        got["corpus"],
        got["predictions"],
        db=got.get("db"),
        ontology=got.get("ontology"),
        delex=delex,
        bleu_smoothing=config["metrics"]["bleu_smoothing"],
        canon_map=got.get("canon_map"),
    )
    payload = report.to_dict()
    payload["manifest"] = make_manifest(config, paths, args.seed)
    if args.report:
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        logger.info("report written to %s", args.report)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridkm",
        description="Hybrid knowledge management and evaluation for task-oriented dialog",
    )
    parser.add_argument(
        "--config", default=None, help=f"config JSON path (default: ${ENV_CONFIG})"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="reserved; recorded in the run manifest"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress informational logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print corpus statistics")
    p.add_argument("--corpus")
    p.add_argument("--ontology")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("build-index", help="extract topics and write the index file")
    p.add_argument("--docs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("extend-labels", help="add ruk triples and topics to inserted turns")
    p.add_argument("--corpus")
    p.add_argument("--docs")
    p.add_argument("--index", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend_labels)

    p = sub.add_parser("retrieve", help="rank documents for a state or context")
    p.add_argument("--docs")
    p.add_argument("--index")
    p.add_argument("--state", help="flat belief state (topic method)")
    p.add_argument(
        "--context", action="append", help="context utterance (tfidf/bm25); repeatable"
    )
    p.add_argument("--method", choices=("topic", "tfidf", "bm25"))
    p.add_argument("--k", type=int)
    p.add_argument("--domain", help="restrict tfidf/bm25 to one domain")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("query-db", help="run a belief state against the database")
    p.add_argument("--db")
    p.add_argument("--ontology")
    p.add_argument("--state", required=True, help="flat belief state")
    p.add_argument("--domain", required=True)
    p.set_defaults(func=cmd_query_db)

    p = sub.add_parser("evaluate", help="score a prediction file against a gold corpus")
    p.add_argument("--corpus")
    p.add_argument("--predictions", required=True)
    p.add_argument("--db")
    p.add_argument("--ontology")
    p.add_argument("--report", help="also write the report JSON here")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--delex", action="store_true", default=False)
    group.add_argument("--lexical", action="store_true", default=False)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        config = load_config(args.config or os.environ.get(ENV_CONFIG))
        payload = args.func(args, config)
    except (HybridKmError, OSError, ValueError) as exc:
        logger.error("%s", exc)
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}, indent=2))
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
