"""Seeded workload generator for the hybridkm benchmark (standard library only).

Writes, into one directory, the inputs the program under test reads:

  corpus.json       test-split dialogs with original and inserted turns
  docs.json         FAQ documents over restaurant/hotel entities plus
                    entity-less taxi/train documents
  db.json           restaurant and hotel rows, {"slots": {...}, "bookable": ...}
  ontology.json     domains and slot values
  predictions.json  a prediction for every turn; the predicted states carry
                    seeded noise and the ruk entities are sometimes misspelled
                    (fuzzy entity path) or unknown (whole-domain fallback)

and meta.json, which only the benchmark reads: the generator parameters and
the measured input properties.  The same seed and size give byte-identical
files.

    python3 bench/gen.py --seed 1 --out DIR [--size default|tiny]
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class GenParams:
    """Input properties the system's behaviour depends on.

    Dialog, turn, inserted-share, entity, document and DB-row counts and the
    fuzzy and unknown entity shares follow the paper's test split.  The
    fields under "Unverified" below have no cited source: they are
    assumptions that set response vocabulary, repetition and noise, and so
    the headroom of memo caches (porter.stem_distinct_ratio).  A gain that
    rests on them holds for this traffic, not necessarily for MultiWOZ.
    """

    dialogs: int = 1000
    #: mean turns per dialog, original and inserted together
    turns_per_dialog: int = 14
    #: share of turns that are inserted (grounded on a document)
    inserted_share: float = 0.125
    #: restaurant and hotel entities that have documents; equal counts give
    #: both domains the same whole-domain fallback cost, so the latency tail
    #: does not depend on which domain a seed's unknown entities fall in
    restaurants: int = 75
    hotels: int = 75
    docs_per_entity: int = 19
    #: documents of each entity-less domain (taxi, train)
    entityless_docs: int = 75
    #: database rows per entity domain that have no documents
    db_extra_rows: int = 12
    #: share of predicted ruk entities that are misspelled / unknown
    fuzzy_share: float = 0.20
    unknown_share: float = 0.03
    # -- Unverified ------------------------------------------------------------
    #: content words responses draw from (Zipf-distributed), before inflection
    vocab_size: int = 4000
    #: share of content words given one of SUFFIXES
    suffix_share: float = 0.30
    #: share of responses carrying a one-off token (reference codes)
    unique_token_share: float = 0.15
    #: share of original turns whose predicted state has one error
    state_noise: float = 0.30
    #: share of inserted-turn questions that paraphrase the topic keyword
    paraphrase_share: float = 0.30


SIZES = {
    "default": GenParams(),
    "tiny": GenParams(
        dialogs=12,
        restaurants=6,
        hotels=4,
        docs_per_entity=5,
        entityless_docs=8,
        db_extra_rows=2,
        vocab_size=300,
        inserted_share=0.2,
    ),
}

AREAS = ("centre", "north", "south", "east", "west")
PRICES = ("cheap", "moderate", "expensive")
FOODS = (
    "italian", "indian", "chinese", "thai", "french", "british", "mexican",
    "turkish", "korean", "japanese", "spanish", "greek", "lebanese",
    "vietnamese", "european", "african", "portuguese", "persian",
)
STARS = ("2", "3", "4", "5")
PLACES = ("cambridge", "ely", "london", "norwich", "stansted", "peterborough", "kings lynn")
DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
REQUESTABLE = ("phone", "postcode")
RESTAURANT_KINDS = ("bistro", "kitchen", "grill", "cafe", "house", "tavern", "diner", "brasserie")
HOTEL_KINDS = ("hotel", "inn", "lodge", "guesthouse", "suites")
FUNCTION_WORDS = (
    "the a an is are was i you we it this that for to of in on at with and or "
    "but can will would there here your my they be have has do not please"
).split()
SUFFIXES = ("s", "ed", "ing", "er", "ly", "ness", "ful", "ation", "ive", "ment")
TOPICS_PER_DOMAIN = 26
ENTITYLESS_TOPICS = 25


class _Words:
    """Unique pronounceable pseudo-words."""

    def __init__(self, rng: random.Random, reserved=()):
        self.rng = rng
        self.used = set(reserved)

    def new(self, min_syl: int = 2, max_syl: int = 3) -> str:
        rng = self.rng
        while True:
            syl = rng.randint(min_syl, max_syl)
            word = "".join(rng.choice("bcdfghjklmnprstvz") + rng.choice("aeiou") for _ in range(syl))
            if rng.random() < 0.5:
                word += rng.choice("nrstlm")
            if word not in self.used:
                self.used.add(word)
                return word


def indel_ratio(a: str, b: str) -> float:
    """2 * LCS / (len(a) + len(b)), by plain dynamic programming."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return 2.0 * prev[-1] / (len(a) + len(b)) if a or b else 1.0


def indel_ratio_bound(a: str, b: str) -> float:
    """An upper bound of indel_ratio from character counts alone: the LCS
    cannot be longer than the characters the strings share."""
    return 2.0 * sum((Counter(a) & Counter(b)).values()) / (len(a) + len(b)) if a or b else 1.0


class _Generator:
    def __init__(self, params: GenParams, seed: int):
        self.p = params
        self.rng = random.Random(seed)
        reserved = set(FUNCTION_WORDS) | set(AREAS) | set(PRICES) | set(FOODS) | set(PLACES) | set(DAYS)
        self.words = _Words(self.rng, reserved)
        self.vocab = [self.words.new(1, 3) for _ in range(params.vocab_size)]
        self.vocab_cum = list(itertools.accumulate(1.0 / r for r in range(1, params.vocab_size + 1)))
        self.unique_counter = 0

    # -- text ---------------------------------------------------------------

    def content_word(self) -> str:
        word = self.rng.choices(self.vocab, cum_weights=self.vocab_cum)[0]
        if self.rng.random() < self.p.suffix_share:
            word += self.rng.choice(SUFFIXES)
        return word

    def filler(self, n: int) -> list[str]:
        rng = self.rng
        return [rng.choice(FUNCTION_WORDS) if rng.random() < 0.45 else self.content_word() for _ in range(n)]

    def unique_token(self) -> str:
        self.unique_counter += 1
        return f"ref{self.rng.randrange(36 ** 4):05x}{self.unique_counter}"

    def response(self, placeholders: list[str]) -> str:
        tokens = self.filler(self.rng.randint(3, 8))
        for ph in placeholders:
            tokens.insert(self.rng.randrange(len(tokens) + 1), ph)
        if self.rng.random() < self.p.unique_token_share:
            tokens.append(self.unique_token())
        tokens.append(".")
        return " ".join(tokens)

    def noisy_response(self, gold: str) -> str:
        """The predicted response: each word kept (60%), inflected (10%),
        replaced (15%), dropped (10%) or followed by a function word (5%).
        The mix is unverified, like the Unverified fields of GenParams."""
        rng = self.rng
        out = []
        for token in gold.split():
            if token.startswith("[") or token == ".":
                if rng.random() < 0.9:
                    out.append(token)
                continue
            r = rng.random()
            if r < 0.6:
                out.append(token)
            elif r < 0.7:
                out.append(token + rng.choice(SUFFIXES))
            elif r < 0.85:
                out.append(self.content_word())
            elif r < 0.95:
                continue
            else:
                out.extend([token, rng.choice(FUNCTION_WORDS)])
        return " ".join(out) if out else "ok ."

    # -- knowledge ------------------------------------------------------------

    def entity_name(self, kinds, names: set) -> str:
        while True:
            name = f"{self.words.new(2, 3)} {self.rng.choice(kinds)}"
            if name not in names:
                names.add(name)
                return name

    def topics(self, n: int) -> list[dict]:
        return [{"key": self.words.new(2, 3), "answer": [self.words.new(2, 3) for _ in range(3)]} for _ in range(n)]

    def doc_body(self, topic: dict, entity: str | None) -> str:
        rng = self.rng
        key = topic["key"]
        where = f" at {entity}" if entity else ""
        question = rng.choice(
            (f"is there {key}{where}", f"can i get {key}{where}", f"what about {key}{where}", f"does {entity or 'it'} offer {key}")
        )
        answer = rng.sample(topic["answer"], 2)
        return (
            f"{question} ? {' '.join(self.filler(rng.randint(2, 5)))} {key} {answer[0]} "
            f"{' '.join(self.filler(rng.randint(2, 6)))} {answer[1]} ."
        )

    def misspell(self, name: str, names: set) -> str:
        rng = self.rng
        while True:
            chars = list(name)
            i = rng.randrange(len(chars))
            if chars[i] == " ":
                continue
            op = rng.randrange(3)
            if op == 0:
                chars[i] = rng.choice("abcdefghijklmnopqrstuvwxyz")
            elif op == 1:
                del chars[i]
            else:
                chars.insert(i, rng.choice("abcdefghijklmnopqrstuvwxyz"))
            out = "".join(chars)
            if out != name and out not in names and " " in out.strip():
                return out

    def unknown_entity(self, kinds, names: set) -> str:
        while True:
            cand = f"{self.words.new(3, 4)} {self.rng.choice(kinds)}"
            if cand not in names and all(indel_ratio_bound(cand, n) < 0.75 or indel_ratio(cand, n) < 0.75 for n in names):
                return cand

    def build_knowledge(self):
        p = self.p
        rng = self.rng
        names: set[str] = set()
        docs = []
        db = {"restaurant": [], "hotel": []}
        self.entities = {"restaurant": [], "hotel": []}
        self.topic_sets = {}
        for domain, count, kinds in (
            ("restaurant", p.restaurants, RESTAURANT_KINDS),
            ("hotel", p.hotels, HOTEL_KINDS),
        ):
            topics = self.topics(max(TOPICS_PER_DOMAIN, p.docs_per_entity))
            self.topic_sets[domain] = topics
            for e in range(count + p.db_extra_rows):
                name = self.entity_name(kinds, names)
                slots = {"name": name, "area": rng.choice(AREAS), "pricerange": rng.choice(PRICES)}
                if domain == "restaurant":
                    slots["food"] = rng.choice(FOODS)
                else:
                    slots["parking"] = rng.choice(("yes", "no"))
                    slots["stars"] = rng.choice(STARS)
                slots["phone"] = f"01223 {rng.randrange(10 ** 6):06d}"
                slots["postcode"] = f"cb{rng.randint(1, 5)} {rng.randint(1, 9)}{rng.choice('abdefghjlnpqrstuwxyz')}{rng.choice('abdefghjlnpqrstuwxyz')}"
                db[domain].append({"slots": slots, "bookable": rng.random() < 0.8})
                if e >= count:
                    continue
                chosen = sorted(rng.sample(range(len(topics)), p.docs_per_entity))
                ent_docs = []
                for t in chosen:
                    doc_id = f"{domain}-{e:03d}-{t:02d}"
                    docs.append({"id": doc_id, "domain": domain, "entity": name, "body": self.doc_body(topics[t], name)})
                    ent_docs.append((doc_id, t))
                self.entities[domain].append({"name": name, "docs": ent_docs})
        self.entityless = {}
        for domain in ("taxi", "train"):
            topics = self.topics(ENTITYLESS_TOPICS)
            self.topic_sets[domain] = topics
            self.entityless[domain] = []
            for i in range(p.entityless_docs):
                t = i % len(topics)
                doc_id = f"{domain}-{i:03d}"
                docs.append({"id": doc_id, "domain": domain, "body": self.doc_body(topics[t], None)})
                self.entityless[domain].append((doc_id, t))
        self.names = names
        self.docs = docs
        self.db = db

    def ontology(self) -> dict:
        slots = {
            "restaurant-area": list(AREAS),
            "restaurant-food": list(FOODS),
            "restaurant-pricerange": list(PRICES),
            "hotel-area": list(AREAS),
            "hotel-pricerange": list(PRICES),
            "hotel-parking": ["yes", "no"],
            "hotel-stars": list(STARS),
            "taxi-departure": list(PLACES),
            "taxi-destination": list(PLACES),
            "train-departure": list(PLACES),
            "train-destination": list(PLACES),
            "train-day": list(DAYS),
        }
        for domain in ("restaurant", "hotel"):
            rows = self.db[domain]
            slots[f"{domain}-name"] = [r["slots"]["name"] for r in rows]
            slots[f"{domain}-phone"] = [r["slots"]["phone"] for r in rows]
            slots[f"{domain}-postcode"] = [r["slots"]["postcode"] for r in rows]
            slots[f"{domain}-ruk"] = [e["name"] for e in self.entities[domain]]
        slots["taxi-ruk"] = ["none"]
        slots["train-ruk"] = ["none"]
        return {"domains": ["restaurant", "hotel", "taxi", "train"], "slots": slots}

    # -- dialogs --------------------------------------------------------------

    def goal(self) -> tuple[dict, list[tuple[str, str, str]]]:
        rng = self.rng
        domains = [rng.choice(("restaurant", "hotel"))]
        if rng.random() < 0.4:
            domains.append(rng.choice([d for d in ("restaurant", "hotel", "taxi", "train") if d != domains[0]]))
        goal = {}
        reveal = []
        for domain in domains:
            if domain in self.db:
                row = rng.choice(self.db[domain])["slots"]
                informable = [s for s in row if s not in ("name", "phone", "postcode")]
                constraints = {s: row[s] for s in sorted(rng.sample(informable, rng.randint(2, len(informable))))}
                requests = sorted(rng.sample(REQUESTABLE, rng.randint(0, 2)))
            else:
                dep, dest = rng.sample(PLACES, 2)
                constraints = {"departure": dep, "destination": dest}
                if domain == "train":
                    constraints["day"] = rng.choice(DAYS)
                requests = []
            goal[domain] = {"constraints": constraints, "requests": requests}
            reveal.extend((domain, s, v) for s, v in constraints.items())
        return goal, reveal

    def noisy_state(self, triples: dict) -> dict:
        rng = self.rng
        out = dict(triples)
        if rng.random() >= self.p.state_noise:
            return out
        op = rng.randrange(3)
        if op == 0 and out:
            del out[rng.choice(sorted(out))]
        elif op == 1 and out:
            key = rng.choice(sorted(out))
            values = self.ontology_slots.get(key, ())
            others = [v for v in values if v != out[key]]
            if others:
                out[key] = rng.choice(others)
            else:
                del out[key]
        else:
            key = rng.choice(("restaurant-area", "hotel-pricerange", "restaurant-pricerange", "hotel-area"))
            if key in out:
                del out[key]
            else:
                out[key] = rng.choice(self.ontology_slots[key])
        return out

    def inserted_target(self) -> tuple[str, str, str | None, dict]:
        """(domain, doc id, entity name or None, topic) for an inserted turn."""
        rng = self.rng
        domain = rng.choices(("restaurant", "hotel", "taxi", "train"), weights=(0.375, 0.375, 0.125, 0.125))[0]
        if domain in self.entities:
            entity = rng.choice(self.entities[domain])
            doc_id, t = rng.choice(entity["docs"])
            return domain, doc_id, entity["name"], self.topic_sets[domain][t]
        doc_id, t = rng.choice(self.entityless[domain])
        return domain, doc_id, None, self.topic_sets[domain][t]

    def ranked_docs(self, domain: str, gold: str) -> list[str]:
        rng = self.rng
        pool = [d for d in self.domain_doc_ids[domain] if d != gold]
        others = rng.sample(pool, 5)
        r = rng.random()
        if r < 0.6:
            pos = 0
        elif r < 0.9:
            pos = rng.randint(1, 4)
        else:
            return others
        others[pos] = gold
        return others

    @staticmethod
    def serialize(triples: dict, topic: list[str] | None = None) -> str:
        text = "; ".join(f"{k}: {v}" for k, v in sorted(triples.items()))
        if topic:
            text += f" | topic: {' '.join(topic)}"
        return text

    def dialog(self, n: int, stats: dict) -> tuple[dict, list[dict]]:
        p = self.p
        rng = self.rng
        dialog_id = f"tst-{n:05d}"
        goal, reveal = self.goal()
        total = max(4, round(rng.gauss(p.turns_per_dialog, 2)))
        n_ins = sum(1 for _ in range(total) if rng.random() < p.inserted_share)
        n_orig = max(2, total - n_ins)
        positions = set(rng.sample(range(1, n_orig + n_ins), n_ins)) if n_ins else set()
        turns, preds = [], []
        state: dict[str, str] = {}
        revealed = 0
        for i in range(n_orig + n_ins):
            index = i + 1
            if i in positions:
                domain, doc_id, entity, topic = self.inserted_target()
                say = entity
                r = rng.random()
                if entity is None:
                    ruk = "none"
                    stats["entityless"] += 1
                elif r < p.unknown_share:
                    ruk = self.unknown_entity(RESTAURANT_KINDS if domain == "restaurant" else HOTEL_KINDS, self.names)
                    stats["unknown"] += 1
                elif r < p.unknown_share + p.fuzzy_share:
                    ruk = say = self.misspell(entity, self.names)
                    stats["fuzzy"] += 1
                else:
                    ruk = entity
                    stats["exact"] += 1
                word = topic["key"]
                if rng.random() < p.paraphrase_share:
                    word = rng.choice(topic["answer"])
                    stats["paraphrased"] += 1
                about = f" at {say}" if say else ""
                user = rng.choice((f"is there {word}{about}", f"do you know if{about or ' they'} have {word}", f"i need {word}{about}"))
                user += " " + " ".join(self.filler(rng.randint(1, 4)))
                topic_words = [topic["key"] if rng.random() < 0.9 else rng.choice(topic["answer"])]
                response = f"{' '.join(self.filler(rng.randint(2, 5)))} {rng.choice(topic['answer'])} ."
                turns.append({"index": index, "user": user, "response": response, "kind": "inserted",
                              "state": {"triples": dict(state)}, "doc_id": doc_id})
                pred_triples = self.noisy_state(state)
                pred_triples[f"{domain}-ruk"] = ruk
                preds.append({"dialog_id": dialog_id, "turn_index": index,
                              "state": self.serialize(pred_triples, topic_words),
                              "ranked_docs": self.ranked_docs(domain, doc_id),
                              "response": self.noisy_response(response)})
                stats["inserted"] += 1
            else:
                if revealed < len(reveal):
                    domain, slot, value = reveal[revealed]
                    state[f"{domain}-{slot}"] = value
                    revealed += 1
                    user = f"i want {value} {' '.join(self.filler(rng.randint(2, 8)))}"
                else:
                    user = " ".join(self.filler(rng.randint(3, 9)))
                placeholders = []
                if rng.random() < 0.35:
                    placeholders.append("[value_name]")
                for domain_goal in goal.values():
                    for slot in domain_goal["requests"]:
                        if rng.random() < 0.25:
                            placeholders.append(f"[value_{slot}]")
                response = self.response(placeholders)
                turns.append({"index": index, "user": user, "response": response, "kind": "original",
                              "state": {"triples": dict(state)}})
                preds.append({"dialog_id": dialog_id, "turn_index": index,
                              "state": self.serialize(self.noisy_state(state)),
                              "response": self.noisy_response(response)})
            stats["turns"] += 1
        return {"id": dialog_id, "split": "test", "goal": goal, "turns": turns}, preds

    def generate(self) -> dict[str, object]:
        self.build_knowledge()
        ontology = self.ontology()
        self.ontology_slots = ontology["slots"]
        self.domain_doc_ids = {}
        for d in self.docs:
            self.domain_doc_ids.setdefault(d["domain"], []).append(d["id"])
        stats = dict.fromkeys(("turns", "inserted", "exact", "fuzzy", "unknown", "entityless", "paraphrased"), 0)
        dialogs, predictions = [], []
        for n in range(self.p.dialogs):
            dialog, preds = self.dialog(n, stats)
            dialogs.append(dialog)
            predictions.extend(preds)
        ruk_entity_turns = stats["exact"] + stats["fuzzy"] + stats["unknown"]
        meta = {
            "params": asdict(self.p),
            "properties": {
                "dialogs": len(dialogs),
                "turns": stats["turns"],
                "turns_per_dialog": stats["turns"] / len(dialogs),
                "inserted_share": stats["inserted"] / stats["turns"],
                "entities": len(self.entities["restaurant"]) + len(self.entities["hotel"]),
                "docs": len(self.docs),
                "docs_per_entity": self.p.docs_per_entity,
                "db_rows": sum(len(rows) for rows in self.db.values()),
                "fuzzy_entity_share": stats["fuzzy"] / max(1, ruk_entity_turns),
                "unknown_entity_share": stats["unknown"] / max(1, ruk_entity_turns),
                "entityless_ruk_turns": stats["entityless"],
                "paraphrased_questions": stats["paraphrased"],
                "response_vocab_size": self.p.vocab_size,
                "unique_tokens": self.unique_counter,
            },
        }
        return {
            "corpus.json": {"schema_version": "1", "dialogs": dialogs},
            "docs.json": {"documents": self.docs},
            "db.json": self.db,
            "ontology.json": ontology,
            "predictions.json": predictions,
            "meta.json": meta,
        }


def generate(out_dir, seed: int, params: GenParams = GenParams()) -> dict:
    """Write the workload files for ``seed`` into ``out_dir``; return meta."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = _Generator(params, seed).generate()
    for name, obj in files.items():
        (out / name).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return files["meta.json"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="default")
    args = parser.parse_args(argv)
    generate(args.out, args.seed, SIZES[args.size])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
