"""Input files: every JSON input goes through one reader, and a malformed
shape gives a typed error; on the command line, the error envelope and
exit 1, never a traceback."""

import hashlib
import json
from pathlib import Path

import pytest

from hybridkm.cli import _load_canon_map, load_config, main
from hybridkm.corpus import TurnKind, load_corpus, load_database, load_document_base, load_ontology
from hybridkm.errors import ParseError, SchemaError
from hybridkm.kb_unstructured import build_index, canonical_dumps, load_index
from hybridkm.metrics import load_predictions

DATA = Path(__file__).parent / "data" / "synthetic"
CORPUS, DOCS, DB, ONTOLOGY = (str(DATA / f) for f in ("corpus.json", "docs.json", "db.json", "ontology.json"))
PREDICTIONS = str(DATA / "predictions_imperfect.json")
STATE = "hotel-pricerange: cheap; hotel-ruk: city lodge | topic: gym"


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out) if captured.out.strip() else None
    return rc, payload, captured.err


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def canon_map_argv(tmp_path, bad):
    cfg = write_json(tmp_path / "cfg.json", {"paths": {"canon_map": str(bad)}})
    return ["--config", cfg, "evaluate", "--corpus", CORPUS, "--predictions", PREDICTIONS]


#: role -> (loader, top-level JSON type it takes, CLI arguments that read a
#: file as that input)
INPUTS = {
    "corpus": (load_corpus, dict, lambda tmp, bad: ["stats", "--corpus", bad]),
    "docs": (load_document_base, dict, lambda tmp, bad: ["build-index", "--docs", bad, "--out", tmp / "i.json"]),
    "db": (load_database, dict, lambda tmp, bad: ["query-db", "--db", bad, "--state", STATE, "--domain", "hotel"]),
    "ontology": (load_ontology, dict, lambda tmp, bad: ["stats", "--corpus", CORPUS, "--ontology", bad]),
    "predictions": (load_predictions, list, lambda tmp, bad: ["evaluate", "--corpus", CORPUS, "--predictions", bad]),
    "index": (load_index, dict, lambda tmp, bad: ["retrieve", "--docs", DOCS, "--index", bad, "--state", STATE]),
    "config": (load_config, dict, lambda tmp, bad: ["--config", bad, "stats", "--corpus", CORPUS]),
    "canon_map": (_load_canon_map, dict, canon_map_argv),
}

DEEP = {"deep list": "[" * 200_000, "deep object": '{"a": ' * 200_000}
WRONG_TOP = {dict: ["[]", '"x"', "5", "null", "true"], list: ["{}", '"x"', "5", "null", "true"]}

CASES = [
    pytest.param(role, text, ParseError, id=f"{role}-{name}") for role in INPUTS for name, text in DEEP.items()
] + [
    pytest.param(role, text, SchemaError, id=f"{role}-{text}")
    for role, (_, kind, _) in INPUTS.items()
    for text in WRONG_TOP[kind]
]


@pytest.mark.parametrize("role, text, error", CASES)
def test_loader_rejects_deep_nesting_and_wrong_top_level_type(tmp_path, role, text, error):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(error, match="bad.json"):
        INPUTS[role][0](bad)


@pytest.mark.parametrize("role, text, error", CASES)
def test_cli_gives_an_envelope_for_deep_nesting_and_wrong_top_level_type(capsys, tmp_path, role, text, error):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    rc, payload, _ = run(capsys, *INPUTS[role][2](tmp_path, bad))
    assert rc == 1
    assert payload["error"]["type"] == error.__name__
    assert str(bad) in payload["error"]["message"]


def test_default_config_fingerprint_is_unchanged():
    # The defaults come from DomainThresholds and retrieval's constants; the
    # fingerprint below is the one the literal defaults gave.
    text = canonical_dumps(load_config(None))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "dd9abe4dcf82c282157f6c1b54bf7ffb6fc7b16df0ae705dbcec0c8ad2c967b7"
    )


# ---------------------------------------------------------------------------
# per-record shapes


def predictions_with(tmp_path, **fields):
    records = json.loads(Path(PREDICTIONS).read_text(encoding="utf-8"))
    for key, value in fields.items():
        if value is KeyError:
            del records[0][key]
        else:
            records[0][key] = value
    return write_json(tmp_path / "preds.json", records)


def test_prediction_response_must_be_a_string(capsys, tmp_path):
    bad = predictions_with(tmp_path, response=None)
    with pytest.raises(SchemaError, match=r"record 0 \(trn-001 turn 1\): response must be a string"):
        load_predictions(bad)
    rc, payload, _ = run(capsys, "evaluate", "--corpus", CORPUS, "--predictions", bad)
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"


def test_missing_prediction_response_is_empty(tmp_path):
    assert load_predictions(predictions_with(tmp_path, response=KeyError))[0].response == ""


def test_turn_doc_id_must_be_a_string(capsys, tmp_path):
    data = json.loads(Path(CORPUS).read_text(encoding="utf-8"))
    dialog, turn = next(
        (d, t) for d in data["dialogs"] for t in d["turns"] if t["kind"] == TurnKind.INSERTED.value
    )
    turn["doc_id"] = 5
    bad = write_json(tmp_path / "corpus.json", data)
    message = f"dialog {dialog['id']!r} turn {turn['index']}: doc_id must be a string, got 5"
    with pytest.raises(SchemaError, match=message):
        load_corpus(bad)
    rc, payload, _ = run(capsys, "evaluate", "--corpus", bad, "--predictions", PREDICTIONS)
    assert rc == 1
    assert payload["error"]["message"] == message


def edit_corpus(field, value):
    data = json.loads(Path(CORPUS).read_text(encoding="utf-8"))
    if field == "constraint":
        data["dialogs"][0]["goal"]["restaurant"]["constraints"]["food"] = value
    else:
        data["dialogs"][0]["turns"][0][field] = value
    return data


def edit_index(field, value):
    index = build_index(load_document_base(DOCS))
    data = {"version": index.version, "thresholds": index.thresholds, "topics": index.topics}
    data[field] = value
    return data


def edit_docs(field, value):
    data = json.loads(Path(DOCS).read_text(encoding="utf-8"))
    if field == "documents":
        data["documents"] = value
    else:
        data["documents"][0][field] = value
    return data


def edit_db(field, value):
    data = json.loads(Path(DB).read_text(encoding="utf-8"))
    if field == "table":
        data["hotel"] = value
    elif field == "row":
        data["hotel"][0] = value
    else:
        data["hotel"][0][field] = value
    return data


def edit_ontology(field, value):
    data = json.loads(Path(ONTOLOGY).read_text(encoding="utf-8"))
    if field == "slot values":
        data["slots"]["hotel-area"] = value
    else:
        data[field] = value
    return data


@pytest.mark.parametrize(
    "role, edit, field, value, message",
    [
        ("corpus", edit_corpus, "constraint", 5, "constraints for domain 'restaurant' must be an object of strings"),
        ("corpus", edit_corpus, "constraint", None, "constraints for domain 'restaurant' must be an object of strings"),
        ("corpus", edit_corpus, "index", True, "turn index must be a positive integer, got True"),
        ("index", edit_index, "topics", ["rest-alpha-wifi"], "topics must be an object of word lists"),
        ("index", edit_index, "topics", {"rest-alpha-wifi": "wifi"}, "topics must be an object of word lists"),
        ("index", edit_index, "topics", {"rest-alpha-wifi": ["wifi", 5]}, "topics must be an object of word lists"),
        ("index", edit_index, "thresholds", [0.5], "thresholds must be an object"),
        ("docs", edit_docs, "entity", 5, "entity must be a string or null, got 5"),
        ("docs", edit_docs, "entity", ["alpha bistro"], "entity must be a string or null"),
        ("docs", edit_docs, "body", 5, "body must be a string, got 5"),
        ("docs", edit_docs, "body", ["text"], "body must be a string"),
        ("docs", edit_docs, "documents", 5, "documents must be a JSON list"),
        ("docs", edit_docs, "documents", [5], "document 0 must be an object"),
        ("db", edit_db, "table", 5, "db hotel: table must be a list of rows"),
        ("db", edit_db, "table", {"slots": {}}, "db hotel: table must be a list of rows"),
        ("db", edit_db, "row", 5, r"db hotel\[0\]: row must be an object"),
        ("db", edit_db, "slots", ["area"], r"db hotel\[0\]: slots must be an object"),
        ("db", edit_db, "bookable", "false", r"db hotel\[0\]: bookable must be true or false, got 'false'"),
        ("db", edit_db, "bookable", 1, "bookable must be true or false, got 1"),
        ("ontology", edit_ontology, "domains", "hotel", "ontology domains must be a list of strings"),
        ("ontology", edit_ontology, "domains", ["hotel", 5], "ontology domains must be a list of strings"),
        ("ontology", edit_ontology, "slots", ["hotel-area"], "ontology slots must be an object of value lists"),
        ("ontology", edit_ontology, "slot values", "centre", "ontology slots must be an object of value lists"),
    ],
)
def test_nested_shapes_are_schema_errors(capsys, tmp_path, role, edit, field, value, message):
    bad = write_json(tmp_path / "bad.json", edit(field, value))
    loader, _, argv = INPUTS[role]
    with pytest.raises(SchemaError, match=message):
        loader(bad)
    rc, payload, _ = run(capsys, *argv(tmp_path, bad))
    assert rc == 1
    assert payload["error"]["type"] == "SchemaError"


# ---------------------------------------------------------------------------
# inputs named only in the config file


def test_canon_map_is_loaded_and_recorded(capsys, tmp_path):
    records = json.loads(Path(PREDICTIONS).read_text(encoding="utf-8"))
    for record in records:
        record["state"] = record["state"].replace("indian", "indiann")
    misspelt = write_json(tmp_path / "preds.json", records)
    canon = write_json(tmp_path / "canon.json", {"indiann": "indian"})
    cfg = write_json(tmp_path / "cfg.json", {"paths": {"canon_map": str(canon)}})
    argv = ["evaluate", "--corpus", CORPUS, "--ontology", ONTOLOGY]

    _, plain, _ = run(capsys, *argv, "--predictions", PREDICTIONS)
    _, uncanon, _ = run(capsys, *argv, "--predictions", misspelt)
    rc, fixed, _ = run(capsys, "--config", cfg, *argv, "--predictions", misspelt)
    assert rc == 0
    assert uncanon["joint_goal"] < plain["joint_goal"]
    assert fixed["joint_goal"] == plain["joint_goal"]
    assert fixed["manifest"]["inputs"]["canon_map"] == {
        "path": str(canon),
        "sha256": hashlib.sha256(canon.read_bytes()).hexdigest(),
    }
    assert "canon_map" not in plain["manifest"]["inputs"]


def test_canon_map_of_the_wrong_shape_is_an_envelope(capsys, tmp_path):
    bad = write_json(tmp_path / "canon.json", {"indiann": 5})
    rc, payload, _ = run(capsys, *canon_map_argv(tmp_path, bad))
    assert rc == 1
    assert payload["error"] == {"type": "SchemaError", "message": f"{bad}: canon map must be a JSON object of strings"}


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (["build-index", "--docs", DOCS, "--out", "{tmp}/i.json"], True),
        (["retrieve", "--docs", DOCS, "--index", "{tmp}/i.json", "--state", STATE], True),
        (["retrieve", "--method", "bm25", "--docs", DOCS, "--context", "is there a gym"], False),
    ],
)
def test_stopwords_file_is_recorded_in_the_manifest(capsys, tmp_path, argv, recorded):
    stop = tmp_path / "stop.txt"
    stop.write_text("the\nis\na\n", encoding="utf-8")
    cfg = write_json(tmp_path / "cfg.json", {"paths": {"stopwords": str(stop)}})
    argv = [a.format(tmp=tmp_path) for a in argv]
    run(capsys, "build-index", "--docs", DOCS, "--out", tmp_path / "i.json")

    _, plain, _ = run(capsys, *argv)
    rc, payload, _ = run(capsys, "--config", cfg, *argv)
    assert rc == 0
    assert "stopwords" not in plain["manifest"]["inputs"]
    if recorded:
        assert payload["manifest"]["inputs"]["stopwords"] == {
            "path": str(stop),
            "sha256": hashlib.sha256(stop.read_bytes()).hexdigest(),
        }
    else:
        assert "stopwords" not in payload["manifest"]["inputs"]
