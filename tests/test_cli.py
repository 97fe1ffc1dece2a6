"""End-to-end CLI tests driven through main(argv)."""

import json

import pytest

from hybridkm.belief import serialize_state
from hybridkm.cli import main
from hybridkm.corpus import TurnKind, load_corpus


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return rc, payload, captured.err


@pytest.fixture(scope="session")
def pred_path(tmp_path_factory, gold_predictions):
    p = tmp_path_factory.mktemp("preds") / "gold.json"
    records = [
        {
            "dialog_id": x.dialog_id,
            "turn_index": x.turn_index,
            "state": serialize_state(x.state),
            "ranked_docs": list(x.ranked_docs),
            "response": x.response,
        }
        for x in gold_predictions
    ]
    p.write_text(json.dumps(records, indent=2), encoding="utf-8")
    return p


@pytest.fixture()
def paths(data_dir):
    return {
        "corpus": str(data_dir / "corpus.json"),
        "docs": str(data_dir / "docs.json"),
        "db": str(data_dir / "db.json"),
        "ontology": str(data_dir / "ontology.json"),
    }


# ---------------------------------------------------------------------------
# stats


def test_stats_payload(capsys, paths):
    rc, payload, _ = run(
        capsys, "stats", "--corpus", paths["corpus"], "--ontology", paths["ontology"]
    )
    assert rc == 0
    assert payload["dialogs_per_split"] == {"train": 2, "dev": 2, "test": 4}
    assert payload["n_dialogs"] == 8
    assert payload["avg_turns"] == pytest.approx(2.25)
    assert payload["slot_types"] == 15
    assert payload["slot_values"] == 31
    manifest = payload["manifest"]
    assert set(manifest["inputs"]) == {"corpus", "ontology"}
    assert len(manifest["inputs"]["corpus"]["sha256"]) == 64
    assert len(manifest["config_fingerprint"]) == 64
    assert "seed" not in manifest


def test_stats_records_seed(capsys, paths):
    rc, payload, _ = run(capsys, "--seed", "7", "stats", "--corpus", paths["corpus"])
    assert rc == 0
    assert payload["manifest"]["seed"] == 7


def test_stats_missing_file(capsys, tmp_path):
    rc, payload, err = run(capsys, "stats", "--corpus", str(tmp_path / "nope.json"))
    assert rc == 1
    assert payload["error"]["type"] == "FileNotFoundError"
    assert "error" in err.lower() or "nope" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("topic", "cheap"),
        ("topic", [["cheap"]]),
        ("value", None),
        ("user", None),
        ("response", 5),
    ],
)
def test_stats_rejects_turn_of_the_wrong_shape(capsys, tmp_path, paths, field, value):
    with open(paths["corpus"], encoding="utf-8") as f:
        data = json.load(f)
    turn = data["dialogs"][0]["turns"][0]
    if field == "topic":
        turn["state"] = {"triples": {"hotel-ruk": "alpha"}, "topic": value}
    elif field == "value":
        turn["state"]["triples"]["hotel-area"] = value
    else:
        turn[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc, payload, _ = run(capsys, "stats", "--corpus", str(bad))
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"
    assert f"dialog {data['dialogs'][0]['id']!r} turn 1" in payload["error"]["message"]


def test_stats_requires_corpus_path(capsys):
    rc, payload, _ = run(capsys, "stats")
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"


# ---------------------------------------------------------------------------
# config handling


def test_config_file_supplies_paths(capsys, tmp_path, paths):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({"paths": {"corpus": paths["corpus"], "ontology": paths["ontology"]}}),
        encoding="utf-8",
    )
    rc, payload, _ = run(capsys, "--config", str(cfg), "stats")
    assert rc == 0
    assert payload["n_dialogs"] == 8
    assert payload["manifest"]["config"]["paths"]["corpus"] == paths["corpus"]


def test_config_env_var(capsys, tmp_path, paths, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"paths": {"corpus": paths["corpus"]}}), encoding="utf-8")
    monkeypatch.setenv("HYBRIDKM_CONFIG", str(cfg))
    rc, payload, _ = run(capsys, "stats")
    assert rc == 0
    assert payload["n_dialogs"] == 8


def test_config_flag_beats_env_var(capsys, tmp_path, paths, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": {}}), encoding="utf-8")
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"paths": {"corpus": paths["corpus"]}}), encoding="utf-8")
    monkeypatch.setenv("HYBRIDKM_CONFIG", str(bad))
    rc, payload, _ = run(capsys, "--config", str(good), "stats")
    assert rc == 0


def test_config_rejects_unknown_section(capsys, tmp_path, paths):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"nonsense": {"a": 1}}), encoding="utf-8")
    rc, payload, _ = run(capsys, "--config", str(cfg), "stats", "--corpus", paths["corpus"])
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"
    assert "nonsense" in payload["error"]["message"]


def test_config_rejects_unknown_key(capsys, tmp_path, paths):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"retrieval": {"kk1": 2.0}}), encoding="utf-8")
    rc, payload, _ = run(capsys, "--config", str(cfg), "stats", "--corpus", paths["corpus"])
    assert rc == 1
    assert "retrieval.kk1" in payload["error"]["message"]


@pytest.mark.parametrize(
    "section, key, value, command",
    [
        # each of these used to end in a TypeError traceback
        ("thresholds", "hotel", "x", ["build-index"]),
        ("paths", "stopwords", 5, ["build-index"]),
        ("retrieval", "k1", "x", ["retrieve", "--method", "bm25", "--context", "pool"]),
        ("retrieval", "entity_fuzzy_threshold", "x", ["retrieve", "--method", "topic", "--state", "hotel-ruk: alhpa"]),
        # each of these used to be read as true
        ("metrics", "delex", "no", ["evaluate"]),
        ("metrics", "bleu_smoothing", "no", ["evaluate"]),
    ],
)
def test_config_value_of_the_wrong_type_is_a_schema_error(
    capsys, tmp_path, paths, pred_path, index_path, section, key, value, command
):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    inputs = {
        "build-index": ["--docs", paths["docs"], "--out", str(tmp_path / "index.json")],
        "retrieve": ["--docs", paths["docs"], "--index", str(index_path)],
        "evaluate": ["--corpus", paths["corpus"], "--predictions", str(pred_path), "--db", paths["db"],
                     "--ontology", paths["ontology"]],
    }[command[0]]
    rc, payload, _ = run(capsys, "--config", str(cfg), *command, *inputs)
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"
    assert f"config {section}.{key} must be" in payload["error"]["message"]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("thresholds", "hotel", True),
        ("retrieval", "b", None),
        ("retrieval", "method", 5),
        ("metrics", "delex", 0),
        ("paths", "corpus", ["c.json"]),
    ],
)
def test_config_rejects_other_values_of_the_wrong_type(capsys, tmp_path, paths, section, key, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    rc, payload, _ = run(capsys, "--config", str(cfg), "stats", "--corpus", paths["corpus"])
    assert rc == 1
    assert f"config {section}.{key} must be" in payload["error"]["message"]


def test_config_accepts_values_of_the_declared_types(capsys, tmp_path, paths):
    cfg = tmp_path / "config.json"
    config = {
        "paths": {"corpus": paths["corpus"], "ontology": None},
        "thresholds": {"hotel": 3},
        "retrieval": {"method": "bm25", "k1": 1, "b": 0.5},
        "metrics": {"delex": False},
    }
    cfg.write_text(json.dumps(config), encoding="utf-8")
    rc, payload, _ = run(capsys, "--config", str(cfg), "stats")
    assert rc == 0
    assert payload["manifest"]["config"]["thresholds"]["hotel"] == 3


# ---------------------------------------------------------------------------
# build-index


def test_build_index_payload(capsys, tmp_path, paths):
    out = tmp_path / "index.json"
    rc, payload, _ = run(capsys, "build-index", "--docs", paths["docs"], "--out", str(out))
    assert rc == 0
    assert out.exists()
    assert payload["documents"] == 14
    assert payload["indexed"] == 14
    assert len(payload["config_fingerprint"]) == 64
    assert payload["out"] == str(out)


def test_build_index_is_byte_deterministic(capsys, tmp_path, paths):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(capsys, "build-index", "--docs", paths["docs"], "--out", str(out1))[0] == 0
    assert run(capsys, "build-index", "--docs", paths["docs"], "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_index_threshold_config_changes_fingerprint(capsys, tmp_path, paths):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"thresholds": {"restaurant": 9.9}}), encoding="utf-8")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    _, default_payload, _ = run(capsys, "build-index", "--docs", paths["docs"], "--out", str(out1))
    _, custom_payload, _ = run(
        capsys, "--config", str(cfg), "build-index", "--docs", paths["docs"], "--out", str(out2)
    )
    assert default_payload["config_fingerprint"] != custom_payload["config_fingerprint"]


def test_quiet_suppresses_info_logging(capsys, tmp_path, paths):
    out = tmp_path / "index.json"
    _, _, loud = run(capsys, "build-index", "--docs", paths["docs"], "--out", str(out))
    assert "indexed" in loud
    _, _, quiet = run(capsys, "--quiet", "build-index", "--docs", paths["docs"], "--out", str(out))
    assert "indexed" not in quiet


# ---------------------------------------------------------------------------
# extend-labels


@pytest.fixture()
def index_path(capsys, tmp_path, paths):
    out = tmp_path / "index.json"
    rc, _, _ = run(capsys, "build-index", "--docs", paths["docs"], "--out", str(out))
    assert rc == 0
    return out


def test_extend_labels_round_trip(capsys, tmp_path, paths, index_path):
    out = tmp_path / "extended.json"
    rc, payload, _ = run(
        capsys,
        "extend-labels",
        "--corpus",
        paths["corpus"],
        "--docs",
        paths["docs"],
        "--index",
        str(index_path),
        "--out",
        str(out),
    )
    assert rc == 0
    assert payload["extended_turns"] == 6
    extended = load_corpus(out)
    for dialog in extended:
        for turn in dialog.turns:
            if turn.kind is TurnKind.INSERTED:
                assert turn.state.ruk_triple is not None
                assert turn.state.topic
            else:
                assert turn.state.ruk_triple is None


def test_extend_labels_missing_index(capsys, tmp_path, paths):
    rc, payload, _ = run(
        capsys,
        "extend-labels",
        "--corpus",
        paths["corpus"],
        "--docs",
        paths["docs"],
        "--index",
        str(tmp_path / "missing.json"),
        "--out",
        str(tmp_path / "out.json"),
    )
    assert rc == 1
    assert payload["error"]["type"] == "MissingIndexError"


def test_extend_labels_unresolvable_refs(capsys, tmp_path, paths, index_path):
    docs = json.loads(open(paths["docs"], encoding="utf-8").read())
    thin = [d for d in docs["documents"] if d["domain"] == "restaurant"]
    thin_path = tmp_path / "thin.json"
    thin_path.write_text(json.dumps({"documents": thin}), encoding="utf-8")
    rc, payload, _ = run(
        capsys,
        "extend-labels",
        "--corpus",
        paths["corpus"],
        "--docs",
        str(thin_path),
        "--index",
        str(index_path),
        "--out",
        str(tmp_path / "out.json"),
    )
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"
    assert "tst-002" in payload["error"]["message"]
    assert "hotel-city-breakfast" in payload["error"]["message"]


# ---------------------------------------------------------------------------
# retrieve


def test_retrieve_topic(capsys, paths, index_path):
    rc, payload, _ = run(
        capsys,
        "retrieve",
        "--docs",
        paths["docs"],
        "--index",
        str(index_path),
        "--method",
        "topic",
        "--state",
        "restaurant-area: centre; restaurant-ruk: alpha bistro | topic: dogs",
    )
    assert rc == 0
    assert payload["method"] == "topic"
    assert payload["best"] == "rest-alpha-dogs"
    assert payload["ranking"][0] == ["rest-alpha-dogs", 1.0]


def test_retrieve_without_ruk_gives_null_best(capsys, paths, index_path):
    rc, payload, _ = run(
        capsys,
        "retrieve",
        "--docs",
        paths["docs"],
        "--index",
        str(index_path),
        "--method",
        "topic",
        "--state",
        "restaurant-area: centre",
    )
    assert rc == 0
    assert payload["best"] is None
    assert payload["ranking"] == []


def test_retrieve_topic_needs_index(capsys, paths):
    rc, payload, _ = run(
        capsys,
        "retrieve",
        "--docs",
        paths["docs"],
        "--method",
        "topic",
        "--state",
        "restaurant-ruk: alpha bistro | topic: dogs",
    )
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"


def test_retrieve_warns_on_fingerprint_mismatch(capsys, tmp_path, paths, index_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"thresholds": {"taxi": 1.0}}), encoding="utf-8")
    rc, _, err = run(
        capsys,
        "--config",
        str(cfg),
        "retrieve",
        "--docs",
        paths["docs"],
        "--index",
        str(index_path),
        "--method",
        "topic",
        "--state",
        "taxi-ruk: none | topic: luggage",
    )
    assert rc == 0
    assert "fingerprint" in err


def test_retrieve_bm25(capsys, paths):
    rc, payload, _ = run(
        capsys,
        "retrieve",
        "--docs",
        paths["docs"],
        "--method",
        "bm25",
        "--context",
        "can i bring my bicycle on the train",
        "--domain",
        "train",
    )
    assert rc == 0
    assert payload["best"] == "train-bicycle"


def test_retrieve_tfidf_needs_context(capsys, paths):
    rc, payload, _ = run(capsys, "retrieve", "--docs", paths["docs"], "--method", "tfidf")
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"


def test_retrieve_k_limits_ranking(capsys, paths, index_path):
    rc, payload, _ = run(
        capsys,
        "retrieve",
        "--docs",
        paths["docs"],
        "--index",
        str(index_path),
        "--method",
        "topic",
        "--k",
        "1",
        "--state",
        "restaurant-ruk: alpha bistro | topic: dogs",
    )
    assert rc == 0
    assert len(payload["ranking"]) == 1


@pytest.mark.parametrize("method", ["topic", "tfidf", "bm25"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_retrieve_rejects_k_below_one(capsys, paths, index_path, method, k):
    rc, payload, _ = run(
        capsys,
        "retrieve",
        "--docs",
        paths["docs"],
        "--index",
        str(index_path),
        "--method",
        method,
        "--k",
        k,
        "--state",
        "restaurant-ruk: alpha bistro | topic: dogs",
        "--context",
        "is there parking",
    )
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"
    assert f"got {k}" in payload["error"]["message"]


@pytest.mark.parametrize("k", [True, "5", 2.0, 0, None])
def test_retrieve_rejects_config_k_that_is_not_a_positive_integer(capsys, tmp_path, paths, k):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"retrieval": {"k": k}}), encoding="utf-8")
    rc, payload, _ = run(
        capsys, "--config", str(cfg), "retrieve", "--docs", paths["docs"], "--method", "bm25", "--context", "pool"
    )
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"
    assert "k must be an integer >= 1" in payload["error"]["message"]


def test_retrieve_flag_k_overrides_config_k(capsys, tmp_path, paths):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"retrieval": {"k": 0}}), encoding="utf-8")
    rc, payload, _ = run(
        capsys, "--config", str(cfg), "retrieve", "--docs", paths["docs"], "--method", "tfidf",
        "--context", "pool", "--k", "3",
    )
    assert rc == 0
    assert len(payload["ranking"]) == 3


# ---------------------------------------------------------------------------
# query-db


def test_query_db_payload(capsys, paths):
    rc, payload, _ = run(
        capsys,
        "query-db",
        "--db",
        paths["db"],
        "--domain",
        "restaurant",
        "--state",
        "restaurant-area: centre; restaurant-food: italian",
    )
    assert rc == 0
    assert payload["count"] == 1
    assert payload["booking_available"] is True
    assert payload["match_vector"] == [0, 1, 0, 0, 1]
    assert payload["entities"] == ["alpha bistro"]


def test_query_db_bad_state(capsys, paths):
    rc, payload, _ = run(
        capsys, "query-db", "--db", paths["db"], "--domain", "restaurant", "--state", "garbage"
    )
    assert rc == 1
    assert payload["error"]["type"] == "FormatError"


def test_query_db_unknown_domain(capsys, paths):
    rc, payload, _ = run(
        capsys, "query-db", "--db", paths["db"], "--domain", "spa", "--state", ""
    )
    assert rc == 1
    assert payload["error"]["type"] == "UnknownDomainError"


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_gold(capsys, paths, pred_path):
    rc, payload, _ = run(
        capsys,
        "evaluate",
        "--corpus",
        paths["corpus"],
        "--predictions",
        str(pred_path),
        "--db",
        paths["db"],
        "--ontology",
        paths["ontology"],
    )
    assert rc == 0
    assert payload["joint_goal"] == pytest.approx(100.0)
    assert payload["inform"] == pytest.approx(100.0)
    assert payload["success"] == pytest.approx(100.0)
    assert payload["mrr5"] == pytest.approx(1.0)
    assert payload["r1"] == pytest.approx(1.0)
    assert payload["combined"] == pytest.approx(200.0)
    assert payload["n_turns"] == 18
    assert sorted(payload["by_split"]) == ["dev", "test", "train"]
    assert "manifest" in payload


def test_evaluate_report_file_matches_stdout(capsys, tmp_path, paths, pred_path):
    report_path = tmp_path / "report.json"
    rc, payload, _ = run(
        capsys,
        "evaluate",
        "--corpus",
        paths["corpus"],
        "--predictions",
        str(pred_path),
        "--report",
        str(report_path),
    )
    assert rc == 0
    on_disk = json.loads(report_path.read_text(encoding="utf-8"))
    assert on_disk == payload


def test_evaluate_incomplete_predictions(capsys, tmp_path, paths, pred_path):
    records = json.loads(pred_path.read_text(encoding="utf-8"))
    short = tmp_path / "short.json"
    short.write_text(json.dumps(records[:-1]), encoding="utf-8")
    rc, payload, _ = run(
        capsys, "evaluate", "--corpus", paths["corpus"], "--predictions", str(short)
    )
    assert rc == 1
    assert payload["error"]["type"] == "MissingPredictionError"


def test_evaluate_rejects_predictions_for_turns_not_in_the_corpus(capsys, tmp_path, paths, pred_path):
    records = json.loads(pred_path.read_text(encoding="utf-8"))
    records.append(dict(records[0], dialog_id="zzz-999"))
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(records), encoding="utf-8")
    rc, payload, _ = run(
        capsys, "evaluate", "--corpus", paths["corpus"], "--predictions", str(extra)
    )
    assert rc == 1
    assert payload["error"] == {
        "type": "SchemaError",
        "message": f"1 prediction(s) match no corpus turn, first zzz-999 turn {records[0]['turn_index']}",
    }


def test_evaluate_rejects_ranked_docs_string(capsys, tmp_path, paths, pred_path):
    records = json.loads(pred_path.read_text(encoding="utf-8"))
    records[0]["ranked_docs"] = "abc"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(records), encoding="utf-8")
    rc, payload, _ = run(
        capsys, "evaluate", "--corpus", paths["corpus"], "--predictions", str(bad)
    )
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"
    assert "record 0" in payload["error"]["message"]


@pytest.mark.parametrize(
    "field, value",
    [("turn_index", 1.7), ("turn_index", True), ("turn_index", "one"), ("dialog_id", 7), ("state", 5)],
)
def test_evaluate_rejects_prediction_keys_of_the_wrong_type(capsys, tmp_path, paths, pred_path, field, value):
    records = json.loads(pred_path.read_text(encoding="utf-8"))
    records[0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(records), encoding="utf-8")
    rc, payload, _ = run(
        capsys, "evaluate", "--corpus", paths["corpus"], "--predictions", str(bad)
    )
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"
    assert "record 0" in payload["error"]["message"]
    assert field in payload["error"]["message"]


def test_evaluate_db_without_ontology_warns(capsys, paths, pred_path):
    rc, payload, err = run(
        capsys,
        "evaluate",
        "--corpus",
        paths["corpus"],
        "--predictions",
        str(pred_path),
        "--db",
        paths["db"],
    )
    assert rc == 0
    assert payload["inform"] == 0.0
    assert "ontology" in err
