"""Metric tests: response quality, state accuracy, task completion, ranking."""

import dataclasses
import json
import math
import random

import pytest

from hybridkm import metrics, retrieval
from hybridkm.belief import parse_state
from hybridkm.corpus import DialogCorpus, DomainGoal, GoalSpec
from hybridkm.errors import (
    DuplicateDocError,
    DuplicateIdError,
    FormatError,
    LengthMismatchError,
    MissingPredictionError,
    SchemaError,
    UnknownDomainError,
)
from hybridkm.metrics import (
    TurnPrediction,
    bleu,
    combined_score,
    evaluate,
    inform_success,
    joint_goal,
    lcs_length,
    load_predictions,
    meteor,
    metric_tokenize,
    mrr_at_k,
    r_at_1,
    rouge_l,
)


def preds_for(gold_predictions, dialog_id):
    out = [p for p in gold_predictions if p.dialog_id == dialog_id]
    return sorted(out, key=lambda p: p.turn_index)


# ---------------------------------------------------------------------------
# lcs_length / tokenization


def test_metric_tokenize_normalizes():
    assert metric_tokenize("The  CAT sat.") == ["the", "cat", "sat."]


def test_lcs_known_values():
    assert lcs_length("abcd", "acdé") == 3
    assert lcs_length([], "abc") == 0
    assert lcs_length(list("abc"), list("abc")) == 3


def test_lcs_matches_recursive_oracle():
    def oracle(a, b):
        if not a or not b:
            return 0
        if a[-1] == b[-1]:
            return oracle(a[:-1], b[:-1]) + 1
        return max(oracle(a[:-1], b), oracle(a, b[:-1]))

    rng = random.Random(7)
    for _ in range(60):
        a = [rng.choice("xyz") for _ in range(rng.randint(0, 7))]
        b = [rng.choice("xyz") for _ in range(rng.randint(0, 7))]
        assert lcs_length(a, b) == oracle(a, b)


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identical_corpus():
    sents = ["the cat sat on the mat", "a train to london"]
    assert bleu(sents, sents) == pytest.approx(100.0)


def test_bleu_disjoint_is_zero():
    assert bleu(["aa bb cc"], ["xx yy zz"]) == 0.0


def test_bleu_frozen_value():
    # unigram..trigram precisions are 1, the 4-gram order is smoothed to 1,
    # and the brevity penalty contributes exp(1 - 4/3)
    got = bleu(["the cat sat"], ["the cat sat down"])
    assert got == pytest.approx(100.0 * math.exp(-1.0 / 3.0))


def test_bleu_smoothing_off_zeroes_short_pairs():
    assert bleu(["the cat sat"], ["the cat sat down"], smoothing=False) == 0.0
    assert bleu(["a b c d"], ["a b c d"], smoothing=False) == pytest.approx(100.0)


def test_bleu_no_brevity_penalty_when_longer():
    got = bleu(["a b c d e"], ["a b c d"])
    # p1 = 4/5, p2 = 3/4, p3 = 2/3, p4 = 1/2, BP = 1
    expected = 100.0 * math.exp(
        (math.log(4 / 5) + math.log(3 / 4) + math.log(2 / 3) + math.log(1 / 2)) / 4
    )
    assert got == pytest.approx(expected)


def test_bleu_length_mismatch():
    with pytest.raises(LengthMismatchError):
        bleu(["a"], ["a", "b"])


def test_bleu_empty_corpus():
    assert bleu([], []) == 0.0


def test_bleu_empty_candidate_zero():
    assert bleu([""], ["hello there"]) == 0.0


def test_bleu_is_corpus_level_not_mean_of_pairs():
    cands = ["the cat sat", "a b c d e f"]
    refs = ["the cat sat down", "a b c d e f"]
    corpus = bleu(cands, refs)
    mean_pairs = (bleu(cands[:1], refs[:1]) + bleu(cands[1:], refs[1:])) / 2
    assert corpus != pytest.approx(mean_pairs)


# ---------------------------------------------------------------------------
# METEOR


def test_meteor_identical():
    # one chunk over three matches: penalty is 0.5 / 27
    got = meteor("the cat sat", "the cat sat")
    assert got == pytest.approx(1.0 - 0.5 / 27.0)


def test_meteor_disjoint():
    assert meteor("aa bb", "cc dd") == 0.0


def test_meteor_empty():
    assert meteor("", "anything") == 0.0
    assert meteor("anything", "") == 0.0


def test_meteor_stem_matches_count():
    # no exact matches, both pairs align on stems, single chunk
    assert meteor("cats sleeping", "cat sleeps") == pytest.approx(0.9375)


def test_meteor_fragmentation_penalty():
    # same matched words; scrambled order splits the alignment into chunks
    contiguous = meteor("a b c d", "a b c d")
    scrambled = meteor("d c b a", "a b c d")
    assert scrambled < contiguous


def test_meteor_recall_weighted():
    # both share one of the reference's two tokens; the shorter candidate
    # has higher precision and alpha=0.9 keeps recall dominant
    a = meteor("cat", "cat door")
    b = meteor("cat big fluffy thing", "cat door")
    assert a > b
    p, r = 1.0, 0.5
    expected = p * r / (0.9 * p + 0.1 * r) * (1 - 0.5 * 1.0)
    assert a == pytest.approx(expected)


# ---------------------------------------------------------------------------
# ROUGE-L


def test_rouge_identical():
    assert rouge_l("a b c", "a b c") == pytest.approx(1.0)


def test_rouge_disjoint():
    assert rouge_l("a b", "x y") == 0.0


def test_rouge_frozen_value():
    assert rouge_l("a b c d", "a c d e") == pytest.approx(0.75)


def test_rouge_empty():
    assert rouge_l("", "a") == 0.0


def test_rouge_beta_weighs_recall():
    # same LCS, swapped roles: recall and precision trade places, and the
    # beta=1.2 weighting makes the scores differ
    a = rouge_l("a b", "a b c d")
    b = rouge_l("a b c d", "a b")
    assert a != pytest.approx(b)


# ---------------------------------------------------------------------------
# Joint Goal


def test_joint_goal_gold_is_perfect(corpus, gold_predictions):
    assert joint_goal(gold_predictions, corpus) == pytest.approx(100.0)


def test_joint_goal_counts_original_turns_only(corpus, gold_predictions):
    wrong = parse_state("restaurant-food: sushi")
    preds = [
        dataclasses.replace(p, state=wrong) if p.dialog_id == "trn-002" and p.turn_index == 2 else p
        for p in gold_predictions
    ]
    # trn-002 turn 2 is inserted, so corrupting it changes nothing
    assert joint_goal(preds, corpus) == pytest.approx(100.0)


def test_joint_goal_fraction(corpus, gold_predictions):
    # 12 original turns; corrupting three gives 75%
    targets = {("trn-001", 1), ("dev-001", 1), ("tst-001", 3)}
    wrong = parse_state("restaurant-food: sushi")
    preds = [
        dataclasses.replace(p, state=wrong) if (p.dialog_id, p.turn_index) in targets else p
        for p in gold_predictions
    ]
    assert joint_goal(preds, corpus) == pytest.approx(75.0)


def test_joint_goal_missing_prediction(corpus, gold_predictions):
    preds = [p for p in gold_predictions if not (p.dialog_id == "trn-001" and p.turn_index == 1)]
    with pytest.raises(MissingPredictionError):
        joint_goal(preds, corpus)


def test_joint_goal_ignores_ruk(corpus, gold_predictions):
    # extended states carry a ruk triple and topic; they must not be compared
    extended = parse_state(
        "restaurant-food: indian; restaurant-ruk: beta curry house | topic: delivery"
    )
    preds = [
        dataclasses.replace(p, state=extended)
        if p.dialog_id == "trn-001" and p.turn_index == 2
        else p
        for p in gold_predictions
    ]
    assert joint_goal(preds, corpus) == pytest.approx(100.0)


def test_joint_goal_canon_map(corpus, gold_predictions):
    variant = parse_state("restaurant-food: indiann")
    preds = [
        dataclasses.replace(p, state=variant)
        if p.dialog_id == "trn-001" and p.turn_index == 2
        else p
        for p in gold_predictions
    ]
    assert joint_goal(preds, corpus) < 100.0
    assert joint_goal(preds, corpus, canon_map={"indiann": "indian"}) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Inform / Success


def test_inform_success_gold(corpus, db, ontology, gold_predictions):
    for dialog_id in ("tst-001", "tst-002", "tst-003", "tst-004"):
        dialog = corpus.dialogs[dialog_id]
        preds = preds_for(gold_predictions, dialog_id)
        assert inform_success(preds, dialog.goal, db, ontology) == (True, True), dialog_id


def test_inform_fails_without_entity_offer(corpus, db, ontology, gold_predictions):
    dialog = corpus.dialogs["tst-001"]
    preds = [
        dataclasses.replace(p, response=p.response.replace("[value_name]", "it"))
        for p in preds_for(gold_predictions, "tst-001")
    ]
    assert inform_success(preds, dialog.goal, db, ontology) == (False, False)


def test_success_fails_on_unanswered_request(corpus, db, ontology, gold_predictions):
    dialog = corpus.dialogs["tst-001"]
    preds = [
        dataclasses.replace(p, response=p.response.replace("[value_phone]", "unknown"))
        for p in preds_for(gold_predictions, "tst-001")
    ]
    assert inform_success(preds, dialog.goal, db, ontology) == (True, False)


def test_inform_offer_gated_on_predicted_state(corpus, db, ontology, gold_predictions):
    # placeholders alone do not count as an offer: the predicted state must
    # constrain the domain so the offered set is the db result
    dialog = corpus.dialogs["tst-001"]
    empty = parse_state("")
    preds = [
        dataclasses.replace(p, state=empty) for p in preds_for(gold_predictions, "tst-001")
    ]
    assert inform_success(preds, dialog.goal, db, ontology) == (False, False)


def test_inform_wrong_constraints_offer_wrong_entity(corpus, db, ontology, gold_predictions):
    # predicted state pointing at the wrong area offers entities that miss
    # the goal constraints
    dialog = corpus.dialogs["tst-001"]
    north = parse_state("restaurant-area: north; restaurant-food: italian")
    preds = [
        dataclasses.replace(p, state=north) for p in preds_for(gold_predictions, "tst-001")
    ]
    inform, success = inform_success(preds, dialog.goal, db, ontology)
    assert inform is False


def test_inform_success_vacuous_goal(db, ontology):
    preds = [TurnPrediction("x", 1, parse_state(""), response="hello")]
    assert inform_success(preds, GoalSpec(domains={}), db, ontology) == (True, True)


def test_inform_success_domain_without_db_table(corpus, db, ontology, gold_predictions):
    # taxi has no database table, so the goal is not informable and the
    # dialog passes on requests alone
    dialog = corpus.dialogs["tst-004"]
    preds = preds_for(gold_predictions, "tst-004")
    assert inform_success(preds, dialog.goal, db, ontology) == (True, True)


def test_inform_success_unknown_goal_domain(db, ontology):
    goal = GoalSpec(domains={"attraction": DomainGoal(constraints={}, requests=())})
    with pytest.raises(UnknownDomainError):
        inform_success([], goal, db, ontology)


def test_inform_success_lexical_mode(db, ontology):
    goal = GoalSpec(
        domains={"hotel": DomainGoal(constraints={"area": "centre", "parking": "yes"}, requests=("pricerange",))}
    )
    state = parse_state("hotel-area: centre; hotel-parking: yes")
    answered = [
        TurnPrediction("x", 1, state, response="city lodge is a cheap hotel in the centre .")
    ]
    assert inform_success(answered, goal, db, ontology, delex=False) == (True, True)

    unanswered = [
        TurnPrediction("x", 1, state, response="city lodge is a nice hotel in the centre .")
    ]
    assert inform_success(unanswered, goal, db, ontology, delex=False) == (True, False)

    wrong_entity = [
        TurnPrediction("x", 1, state, response="river inn is a cheap hotel .")
    ]
    assert inform_success(wrong_entity, goal, db, ontology, delex=False) == (False, False)


def test_lexical_mode_accepts_placeholder_answers(db, ontology):
    # delexicalized placeholders still count as answers in lexical mode
    goal = GoalSpec(
        domains={"hotel": DomainGoal(constraints={"area": "centre", "parking": "yes"}, requests=("address",))}
    )
    state = parse_state("hotel-area: centre; hotel-parking: yes")
    preds = [TurnPrediction("x", 1, state, response="city lodge is at [value_address] .")]
    assert inform_success(preds, goal, db, ontology, delex=False) == (True, True)


# ---------------------------------------------------------------------------
# Ranking metrics


@pytest.mark.parametrize(
    "ranked,gold,expected",
    [
        (["g", "a", "b"], "g", 1.0),
        (["a", "g", "b"], "g", 0.5),
        (["a", "b", "c", "d", "g"], "g", 0.2),
        (["a", "b", "c", "d", "e", "g"], "g", 0.0),
        ([], "g", 0.0),
        (["a", "b"], "g", 0.0),
    ],
)
def test_mrr_at_5(ranked, gold, expected):
    assert mrr_at_k(ranked, gold, k=5) == pytest.approx(expected)


def test_mrr_k_parameter():
    assert mrr_at_k(["a", "g"], "g", k=1) == 0.0
    assert mrr_at_k(["a", "g"], "g", k=2) == 0.5


def test_r_at_1():
    assert r_at_1(["g", "a"], "g") == 1
    assert r_at_1(["a", "g"], "g") == 0
    assert r_at_1([], "g") == 0


def test_ranking_rejects_duplicates():
    with pytest.raises(DuplicateDocError):
        mrr_at_k(["a", "a"], "g")
    with pytest.raises(DuplicateDocError):
        r_at_1(["a", "a"], "g")


def test_r1_implies_full_mrr():
    rng = random.Random(11)
    docs = [f"d{i}" for i in range(8)]
    for _ in range(50):
        ranked = rng.sample(docs, k=rng.randint(0, 8))
        gold = rng.choice(docs)
        if r_at_1(ranked, gold):
            assert mrr_at_k(ranked, gold) == 1.0
        else:
            assert mrr_at_k(ranked, gold) < 1.0


# ---------------------------------------------------------------------------
# Prediction files


def test_load_predictions_round_trip(tmp_path, gold_predictions):
    from hybridkm.belief import serialize_state

    p = tmp_path / "preds.json"
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
    p.write_text(json.dumps(records), encoding="utf-8")
    loaded = load_predictions(p)
    assert loaded == list(gold_predictions)


def test_load_predictions_defaults(tmp_path):
    p = tmp_path / "preds.json"
    p.write_text(json.dumps([{"dialog_id": "d", "turn_index": 1, "state": ""}]), encoding="utf-8")
    (pred,) = load_predictions(p)
    assert pred.ranked_docs == ()
    assert pred.response == ""
    assert pred.state.triples == ()


def test_load_predictions_duplicate_key(tmp_path):
    p = tmp_path / "preds.json"
    rec = {"dialog_id": "d", "turn_index": 1, "state": ""}
    p.write_text(json.dumps([rec, rec]), encoding="utf-8")
    with pytest.raises(DuplicateIdError):
        load_predictions(p)


def test_load_predictions_bad_state_keeps_context(tmp_path):
    p = tmp_path / "preds.json"
    p.write_text(
        json.dumps([{"dialog_id": "d", "turn_index": 3, "state": "no-colon-here"}]),
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as exc:
        load_predictions(p)
    assert "d" in str(exc.value)
    assert exc.value.offset >= 0


def test_load_predictions_rejects_non_list(tmp_path):
    p = tmp_path / "preds.json"
    p.write_text("{}", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_predictions(p)


# ---------------------------------------------------------------------------
# evaluate


def test_combined_score_frozen():
    assert combined_score(81.9, 68.3, 19.0) == pytest.approx(94.1)


def test_evaluate_gold_report(corpus, db, ontology, gold_predictions):
    report = evaluate(corpus, gold_predictions, db=db, ontology=ontology)
    assert report.inform == pytest.approx(100.0)
    assert report.success == pytest.approx(100.0)
    assert report.bleu == pytest.approx(100.0)
    assert report.rouge_l == pytest.approx(100.0)
    assert report.joint_goal == pytest.approx(100.0)
    assert report.mrr5 == pytest.approx(1.0)
    assert report.r1 == pytest.approx(1.0)
    assert report.combined == pytest.approx(200.0)
    assert report.n_dialogs == 8
    assert report.n_turns == 18
    assert report.n_original == 12
    assert report.n_inserted == 6
    # identical sentences keep the fragmentation penalty, so METEOR is
    # high but not exactly 100
    assert 99.0 < report.meteor < 100.0


def test_evaluate_combined_invariant(corpus, db, ontology, gold_predictions):
    report = evaluate(corpus, gold_predictions, db=db, ontology=ontology)
    assert abs(report.combined - ((report.inform + report.success) * 0.5 + report.bleu)) < 1e-9
    for sub in report.by_split.values():
        assert abs(sub["combined"] - ((sub["inform"] + sub["success"]) * 0.5 + sub["bleu"])) < 1e-9


def test_evaluate_permutation_invariant(corpus, db, ontology, gold_predictions):
    shuffled = list(gold_predictions)
    random.Random(3).shuffle(shuffled)
    a = evaluate(corpus, gold_predictions, db=db, ontology=ontology)
    b = evaluate(corpus, shuffled, db=db, ontology=ontology)
    assert a.to_dict() == b.to_dict()


def test_evaluate_is_pure(corpus, db, ontology, gold_predictions):
    a = evaluate(corpus, gold_predictions, db=db, ontology=ontology)
    b = evaluate(corpus, gold_predictions, db=db, ontology=ontology)
    assert a.to_dict() == b.to_dict()


def test_evaluate_by_split_and_kind(corpus, gold_predictions):
    report = evaluate(corpus, gold_predictions)
    assert sorted(report.by_split) == ["dev", "test", "train"]
    assert report.by_split["test"]["n_dialogs"] == 4
    assert report.by_split["train"]["n_dialogs"] == 2
    assert set(report.by_kind) == {"original", "inserted"}
    assert report.by_kind["original"]["n_turns"] == 12
    assert report.by_kind["inserted"]["n_turns"] == 6


def test_evaluate_without_db_zeroes_task_metrics(corpus, gold_predictions):
    report = evaluate(corpus, gold_predictions)
    assert report.inform == 0.0
    assert report.success == 0.0
    assert report.combined == pytest.approx(report.bleu)


def test_evaluate_requires_full_coverage(corpus, gold_predictions):
    with pytest.raises(MissingPredictionError):
        evaluate(corpus, gold_predictions[:-1])


def test_evaluate_mrr_reflects_rank(corpus, db, ontology, gold_predictions):
    # demote the gold doc to rank 2 for one of the six inserted turns
    def demote(p):
        if p.dialog_id == "tst-001" and p.turn_index == 2:
            return dataclasses.replace(p, ranked_docs=("rest-alpha-wifi",) + tuple(p.ranked_docs))
        return p

    preds = [demote(p) for p in gold_predictions]
    report = evaluate(corpus, preds, db=db, ontology=ontology)
    assert report.mrr5 == pytest.approx((5 * 1.0 + 0.5) / 6)
    assert report.r1 == pytest.approx(5 / 6)


# ---------------------------------------------------------------------------
# evaluate on imperfect predictions: golden reports and exact sub-aggregates


@pytest.fixture(scope="module")
def imperfect(data_dir):
    # Hand-written predictions with wrong states, responses and rankings.
    # The golden reports beside them were written by the earlier evaluate,
    # which rescored every turn per group, so they pin the report to the byte.
    return load_predictions(data_dir / "predictions_imperfect.json")


@pytest.mark.parametrize("mode", ["delex", "lexical"])
def test_evaluate_report_matches_golden(data_dir, corpus, db, ontology, imperfect, mode):
    report = evaluate(corpus, imperfect, db=db, ontology=ontology, delex=mode == "delex")
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert text == (data_dir / f"report_imperfect_{mode}.json").read_text(encoding="utf-8")


def test_evaluate_groups_equal_public_metrics_on_their_subset(corpus, db, ontology, imperfect):
    report = evaluate(corpus, imperfect, db=db, ontology=ontology)
    pred_map = {(p.dialog_id, p.turn_index): p for p in imperfect}
    dialogs = sorted(corpus, key=lambda d: d.id)

    def response_metrics(pairs):
        cands = [p.response for p, _ in pairs]
        refs = [t.response for _, t in pairs]
        return {
            "n_turns": len(pairs),
            "bleu": bleu(cands, refs),
            "meteor": 100.0 * sum(meteor(c, r) for c, r in zip(cands, refs)) / len(pairs),
            "rouge_l": 100.0 * sum(rouge_l(c, r) for c, r in zip(cands, refs)) / len(pairs),
        }

    for kind in ("original", "inserted"):
        pairs = [
            (pred_map[(d.id, t.index)], t) for d in dialogs for t in d.turns if t.kind.value == kind
        ]
        assert report.by_kind[kind] == response_metrics(pairs)

    for split, got in report.by_split.items():
        subset = [d for d in dialogs if d.split == split]
        pairs = [(pred_map[(d.id, t.index)], t) for d in subset for t in d.turns]
        inserted = [(p, t) for p, t in pairs if t.kind.value == "inserted"]
        verdicts = [
            inform_success([pred_map[(d.id, t.index)] for t in d.turns], d.goal, db, ontology)
            for d in subset
        ]
        inform = 100.0 * sum(i for i, _ in verdicts) / len(verdicts)
        success = 100.0 * sum(s for _, s in verdicts) / len(verdicts)
        expected = response_metrics(pairs)
        expected.update(
            inform=inform,
            success=success,
            combined=combined_score(inform, success, expected["bleu"]),
            joint_goal=joint_goal(imperfect, DialogCorpus({d.id: d for d in subset})),
            mrr5=sum(mrr_at_k(p.ranked_docs, t.doc_id) for p, t in inserted) / len(inserted),
            r1=sum(r_at_1(p.ranked_docs, t.doc_id) for p, t in inserted) / len(inserted),
            n_dialogs=len(subset),
            n_original=len(pairs) - len(inserted),
            n_inserted=len(inserted),
        )
        assert got == expected, split


def test_evaluate_scores_each_turn_once(monkeypatch, corpus, db, ontology, imperfect):
    calls = []
    real = metrics.meteor

    def counted(candidate, reference):
        calls.append(candidate)
        return real(candidate, reference)

    monkeypatch.setattr(metrics, "meteor", counted)
    report = evaluate(corpus, imperfect, db=db, ontology=ontology)
    assert len(calls) == report.n_turns == 18


def test_metrics_and_retrieval_share_one_lcs_routine():
    assert metrics.lcs_length is retrieval.lcs_length


@pytest.mark.parametrize("ranked_docs", ["abc", [1, 2], ["a", None], {"a": 1}, None])
def test_load_predictions_rejects_ranked_docs_that_are_not_a_list_of_ids(tmp_path, ranked_docs):
    p = tmp_path / "preds.json"
    records = [
        {"dialog_id": "d", "turn_index": 1, "state": "", "ranked_docs": ["x"]},
        {"dialog_id": "d", "turn_index": 2, "state": "", "ranked_docs": ranked_docs},
    ]
    p.write_text(json.dumps(records), encoding="utf-8")
    with pytest.raises(SchemaError, match=r"record 1 \(d turn 2\).*ranked_docs"):
        load_predictions(p)
