"""Spans and counters recorded from outside the hybridkm package.

While a Tracer is installed, module-level functions of the package are
rebound, in every hybridkm module that holds them, to wrappers that record
a span (name, start, end, parent, op id), count calls, or add up the time
of a hot leaf function without a span of its own.  Spans stay in memory
until ``write`` dumps them; self time is computed from them.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN, COUNT, LEAF = "span", "count", "leaf"

#: (module, function, kind).  Spans mark layer boundaries; counters sit on
#: functions called too often for a span each; leaves are timed and counted
#: and their time is subtracted from the enclosing span's self time.
#: Private names are wrapped only when the module still defines them.
PLAN = (
    ("corpus", "load_corpus", SPAN),
    ("corpus", "load_document_base", SPAN),
    ("corpus", "load_database", SPAN),
    ("corpus", "load_ontology", SPAN),
    ("corpus", "build_context", SPAN),
    ("belief", "parse_state", SPAN),
    ("belief", "extend_label", SPAN),
    ("belief", "normalize_state", COUNT),
    ("belief", "normalize_text", COUNT),
    ("metrics", "load_predictions", SPAN),
    ("metrics", "evaluate", SPAN),
    ("metrics", "meteor", SPAN),
    ("metrics", "rouge_l", SPAN),
    ("metrics", "bleu", SPAN),
    ("metrics", "inform_success", SPAN),
    ("metrics", "lcs_length", COUNT),
    ("_porter", "stem", LEAF),
    ("kb_structured", "query", SPAN),
    ("kb_structured", "encode_match", SPAN),
    ("kb_structured", "_entry_matches", COUNT),
    ("kb_unstructured", "build_index", SPAN),
    ("kb_unstructured", "save_index", SPAN),
    ("kb_unstructured", "load_index", SPAN),
    ("kb_unstructured", "tokenize", COUNT),
    ("retrieval", "topic_match_retrieve", SPAN),
    ("retrieval", "locate_documents", SPAN),
    ("retrieval", "fuzzy_ratio", COUNT),
    ("retrieval", "tfidf_retrieve", SPAN),
    ("retrieval", "bm25_retrieve", SPAN),
    ("retrieval", "_candidate_docs", COUNT),
)

#: Functions the command-line layer calls into the library; spans on these
#: alone separate the CLI's own time from library time.
CLI_PLAN = tuple(
    (mod, fn, SPAN)
    for mod, fn in (
        ("corpus", "load_corpus"),
        ("corpus", "load_database"),
        ("corpus", "load_ontology"),
        ("metrics", "load_predictions"),
        ("metrics", "evaluate"),
    )
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.leaf_under = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        #: (function, enclosing span name or "") -> calls
        self.calls: Counter = Counter()
        self.leaf_time: defaultdict = defaultdict(float)
        #: leaf function -> distinct argument tuples it was called with
        self.leaf_inputs: defaultdict = defaultdict(set)
        self.locate_paths: Counter = Counter()
        self.candidates = 0

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.leaf_under.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        if op_id is not None:
            self.op_id = op_id
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _enclosing(self) -> str:
        return self.names[self.name[self.stack[-1]]] if self.stack else ""

    def wrap(self, label: str, kind: str, fn):
        if kind == SPAN:
            name_id = self._name_id(label)
            if label == "retrieval.locate_documents":
                return self._wrap_locate(name_id, fn)

            def span_wrapper(*args, **kwargs):
                i = self._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(i)

            return span_wrapper

        if kind == LEAF:
            calls, leaf_time, inputs = self.calls, self.leaf_time, self.leaf_inputs[label]

            def leaf_wrapper(*args):
                inputs.add(args)
                t0 = perf_counter()
                result = fn(*args)
                dt = perf_counter() - t0
                leaf_time[label] += dt
                if self.stack:
                    self.leaf_under[self.stack[-1]] += dt
                calls[label, self._enclosing()] += 1
                return result

            return leaf_wrapper

        calls = self.calls
        if label == "retrieval._candidate_docs":

            def candidates_wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[label, self._enclosing()] += 1
                self.candidates += len(result)
                return result

            return candidates_wrapper

        def count_wrapper(*args, **kwargs):
            calls[label, self._enclosing()] += 1
            return fn(*args, **kwargs)

        return count_wrapper

    def _wrap_locate(self, name_id: int, fn):
        domain_sizes: dict = {}

        def locate_wrapper(base, query, *args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(base, query, *args, **kwargs)
            finally:
                self._close(i)
            if query.entity is None:
                path = "entityless"
            elif base.group(query.domain, query.entity):
                path = "exact"
            else:
                key = (id(base), query.domain)
                if key not in domain_sizes:
                    domain_sizes[key] = len(base.domain_documents(query.domain))
                path = "fallback" if len(result) == domain_sizes[key] else "fuzzy"
            self.locate_paths[path] += 1
            return result

        return locate_wrapper

    # -- installing -----------------------------------------------------------

    @contextmanager
    def installed(self, plan=PLAN):
        """Rebind every hybridkm module attribute that holds a planned
        function to its wrapper; restore the originals on exit."""
        modules = [m for name, m in list(sys.modules.items()) if name == "hybridkm" or name.startswith("hybridkm.")]
        restore = []
        try:
            for mod_name, fn_name, kind in plan:
                home = sys.modules.get(f"hybridkm.{mod_name}")
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                label = f"{mod_name.lstrip('_')}.{fn_name}"
                wrapper = self.wrap(label, kind, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, value in reversed(restore):
                setattr(mod, attr, value)

    # -- reading --------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self time, span count) per span name."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_time: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            self_time[name] += self.end[i] - self.start[i] - child[i] - self.leaf_under[i]
            count[name] += 1
        return dict(self_time), dict(count)

    def call_count(self, label: str, under: tuple[str, ...] | None = None) -> int:
        return sum(c for (fn, enc), c in self.calls.items() if fn == label and (under is None or enc in under))

    def top_level_time(self) -> float:
        """Summed duration of spans that have no parent."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.name)) if self.parent[i] < 0)

    def write(self, path) -> None:
        obj = {
            "names": self.names,
            "spans": {
                "name": list(self.name),
                "start": list(self.start),
                "end": list(self.end),
                "parent": list(self.parent),
                "op": list(self.op),
            },
            "calls": [[fn, enc, c] for (fn, enc), c in sorted(self.calls.items())],
            "leaf_time": dict(self.leaf_time),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
