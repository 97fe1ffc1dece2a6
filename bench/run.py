"""Benchmark for the hybridkm pipeline: one command, three workloads.

    python3 bench/run.py --workload eval-test|engine-turns|baseline-rank \
        --seed N --seconds S --trace 0|1 [--size default|tiny]

Run it from the root of a hybridkm checkout; the package is imported from
``src/``.  The run generates the workload from the seed (bench/gen.py, in a
child process), sets up several times and keeps the median set-up time,
then sends the workload's operations in a closed loop with one client.

No timed request is a repeat.  Pass 0 sends every operation of the seed's
own dataset once; its outputs are checked against oracles and, for the
seeds recorded in bench/spec.json, against the recorded digest.  Further
passes each run on a fresh dataset generated from a seed derived from
(seed, pass), set up untimed, until the operations have taken ``--seconds``
in all; their outputs are checked against the oracles.  A result or memo
cache inside the program therefore sees each request once, as in one
scoring run or one serving stream.

Timed end-to-end figures are given at reference speed: each operation and
set-up is scaled by a speed reading (a fixed loop) taken around it, so that
the host's speed drifting during or between runs mostly cancels out.  The
details line carries the same figures as measured.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` pass 0 runs under the tracer, the untraced passes that
follow are its reference for the tracing overhead, and the last line
carries the per-layer metrics.  The line before the last one holds the
details: tail percentile and sample counts, retrieval quality, failed
ratio, digests and input properties.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPS = 5
#: Operation time between two speed readings, in seconds.
READING_EVERY_S = 0.02
#: The speed reading that defines reference speed: end-to-end times are
#: scaled to the speed at which speed_reading() takes this long, which is
#: about how fast an otherwise idle 2-vCPU Xeon VM runs it.
REFERENCE_READING_S = 0.001
_READING_KEYS = tuple(f"key{i}" for i in range(256))


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass ``k``'s dataset: the run's own seed for pass 0, else
    one derived from both, so no two runs or passes share a dataset."""
    if k == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{k}".encode("ascii")).digest()[:4], "big")


def generate(seed: int, size: str) -> Path:
    data = Path(tempfile.mkdtemp(prefix=f"seed{seed}-", dir=WORK))
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--seed", str(seed), "--out", str(data), "--size", size],
        check=True,
        timeout=150,
    )
    return data


def speed_reading() -> float:
    """Seconds a fixed dict-and-string loop takes now: how fast the host
    runs Python at this moment, apart from anything the program does."""
    counts = dict.fromkeys(_READING_KEYS, 0)
    t0 = perf_counter()
    for _ in range(40):
        for key in _READING_KEYS:
            counts[key] += len(key)
    return perf_counter() - t0


def at_reference_speed(seconds: list[float], readings: list[float]) -> list[float]:
    """Each time scaled by REFERENCE_READING_S over the speed reading taken
    around it: the time it would have taken at reference speed."""
    return [t * REFERENCE_READING_S / r for t, r in zip(seconds, readings)]


def timed_setup(workload, tracer=None):
    """Set up SETUP_REPS times; return the seconds of each rep, the mean of
    the speed readings just before and after each, and the state of the last.

    A traced run then sets up once more under the tracer, untimed."""
    times, readings = [], []
    state = None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        before = speed_reading()
        t0 = perf_counter()
        state = workload.setup()
        times.append(perf_counter() - t0)
        readings.append((before + speed_reading()) / 2)
    if tracer is not None:
        state = None
        gc.collect()
        with tracer.installed(), tracer.span("setup", -1):
            state = workload.setup()
    return times, readings, state


def closed_loop(workload, state, budget: float = math.inf, tracer=None):
    """One client sends the operations in order, each waiting for the
    previous reply, until all are sent or their summed time reaches
    ``budget`` seconds.

    A speed reading is taken before the first operation, after the last,
    and between operations whenever READING_EVERY_S of operation time has
    passed since the last one; each operation gets the mean of the two
    readings around it.  The host's speed drifts by up to 1.7x for seconds
    to minutes at a time, so a reading close in time tracks it.

    Returns the latencies, the work items, the readings, and the outputs,
    with None for an operation that raised."""
    latencies: list[float] = []
    weights: list[int] = []
    readings: list[float] = []
    outputs: list = []
    spent = since = 0.0
    before = speed_reading()
    for n, op in enumerate(workload.ops(state)):
        if spent >= budget:
            break
        t0 = perf_counter()
        try:
            if tracer is None:
                out = workload.run_op(state, op)
            else:
                with tracer.span("op", n):
                    out = workload.run_op(state, op)
        except Exception:  # an operation that raises counts as failed; the loop goes on
            out = None
            if None not in outputs[-1:]:  # one traceback per run of consecutive failures
                traceback.print_exc(file=sys.stderr)
        dt = perf_counter() - t0
        spent += dt
        since += dt
        latencies.append(dt)
        weights.append(workload.weight(op))
        outputs.append(out)
        if since >= READING_EVERY_S:
            after = speed_reading()
            readings += [(before + after) / 2] * (len(latencies) - len(readings))
            before, since = after, 0.0
    if len(readings) < len(latencies):
        after = speed_reading()
        readings += [(before + after) / 2] * (len(latencies) - len(readings))
    return latencies, weights, readings, outputs


def failures(workload, state, outputs) -> set[int]:
    """Indices of outputs that raised or fail the workload's oracle."""
    ops = workload.ops(state)[: len(outputs)]
    raised = {i for i, out in enumerate(outputs) if out is None}
    kept = [i for i in range(len(outputs)) if i not in raised]
    bad = workload.check([ops[i] for i in kept], [outputs[i] for i in kept])
    return raised | {kept[j] for j in bad}


def cli_overhead(data: Path) -> tuple[float, dict]:
    """Seconds of one in-process ``hybridkm evaluate`` beyond the library
    calls it makes, and its report without the run manifest."""
    from hybridkm import cli

    t = tracing.Tracer()
    args = ["--quiet", "evaluate", "--corpus", str(data / "corpus.json"), "--predictions", str(data / "predictions.json"),
            "--db", str(data / "db.json"), "--ontology", str(data / "ontology.json")]
    out = io.StringIO()
    with t.installed(tracing.CLI_PLAN), redirect_stdout(out):
        t0 = perf_counter()
        code = cli.main(args)
        wall = perf_counter() - t0
    payload = json.loads(out.getvalue()) if code == 0 else {}
    payload.pop("manifest", None)
    return wall - t.top_level_time(), payload


def timings(setup_times: list[float], latencies: list[float], weights: list[int], tail_p: float) -> dict[str, float]:
    """The timed end-to-end metrics from set-up times and operation latencies."""
    samples = sorted(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": sum(weights) / sum(latencies),
        "latency_p50_ms": percentile(samples, 50) * 1000.0,
        "latency_tail_ms": percentile(samples, tail_p) * 1000.0,
    }


def layer_metrics(t, items: int, is_scoring: bool) -> dict[str, float]:
    self_time, spans = t.totals()

    def s(*names):
        return sum(self_time.get(n, 0.0) for n in names)

    def per(num, den):
        return num / den if den else 0.0

    stem_calls = t.call_count("porter.stem")
    query_calls = spans.get("kb_structured.query", 0)
    topic_calls = spans.get("retrieval.topic_match_retrieve", 0)
    ranked_contexts = spans.get("retrieval.tfidf_retrieve", 0)
    baselines = ("retrieval.tfidf_retrieve", "retrieval.bm25_retrieve")
    return {
        "corpus.load_s": s("corpus.load_corpus", "corpus.load_document_base", "corpus.load_database", "corpus.load_ontology"),
        "metrics.load_predictions_s": s("metrics.load_predictions"),
        "belief.parse_state_calls": spans.get("belief.parse_state", 0),
        "belief.parse_state_s": s("belief.parse_state"),
        "belief.normalize_state_calls": t.call_count("belief.normalize_state"),
        "belief.normalize_text_calls": t.call_count("belief.normalize_text"),
        "porter.stem_calls": stem_calls,
        "porter.stem_s": t.leaf_time.get("porter.stem", 0.0),
        "porter.stem_distinct_ratio": per(len(t.leaf_inputs["porter.stem"]), stem_calls),
        "metrics.meteor_s": s("metrics.meteor"),
        "metrics.rouge_l_s": s("metrics.rouge_l"),
        "metrics.lcs_length_calls": t.call_count("metrics.lcs_length"),
        "metrics.bleu_s": s("metrics.bleu"),
        "metrics.inform_success_s": s("metrics.inform_success"),
        "metrics.scorings_per_turn": per(spans.get("metrics.meteor", 0), items) if is_scoring else 0.0,
        "kb_structured.query_calls": query_calls,
        "kb_structured.query_s": s("kb_structured.query"),
        "kb_structured.rows_examined_per_match": per(t.call_count("kb_structured._entry_matches"), query_calls),
        "retrieval.topic_s": s("retrieval.topic_match_retrieve"),
        "retrieval.locate_s": s("retrieval.locate_documents"),
        "retrieval.locate_exact": t.locate_paths["exact"],
        "retrieval.locate_fuzzy": t.locate_paths["fuzzy"],
        "retrieval.locate_fallback": t.locate_paths["fallback"],
        "retrieval.locate_entityless": t.locate_paths["entityless"],
        "retrieval.fuzzy_ratio_calls_per_query": per(t.call_count("retrieval.fuzzy_ratio"), topic_calls),
        "kb_unstructured.build_index_s": s("kb_unstructured.build_index"),
        "retrieval.tfidf_s": s("retrieval.tfidf_retrieve"),
        "retrieval.bm25_s": s("retrieval.bm25_retrieve"),
        "kb_unstructured.tokenize_calls_per_query": per(t.call_count("kb_unstructured.tokenize", baselines), ranked_contexts),
        "retrieval.candidates_per_query": per(t.candidates, t.call_count("retrieval._candidate_docs")),
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str, data: Path) -> tuple[dict, dict]:
    import workloads  # imports hybridkm, so only after src/ is on the path

    make = workloads.WORKLOADS[name]
    workload = make(data, seed)
    spec = SPEC["workloads"][name]
    recorded = SPEC["recorded"].get(str(seed), {}).get(name) if size == "default" else None
    t = tracing.Tracer() if trace else None

    setup_times, setup_readings, state = timed_setup(workload, t)

    # Pass 0: the seed's own dataset, traced in a traced run.
    if trace:
        with t.installed():
            *traced, first = closed_loop(workload, state, tracer=t)
        latencies, weights, readings = [], [], []
    else:
        latencies, weights, readings, first = closed_loop(workload, state)
    attempted = len(first)
    bad = failures(workload, state, first)
    pass_digest = digest(first)
    quality = workload.quality(workload.ops(state), first) if not bad else {}
    digest_ok = recorded is None or (recorded["digest"] == pass_digest and recorded["quality"] == quality)
    if not digest_ok:
        bad = set(range(len(first)))
    n_failed = len(bad)

    details: dict = {}
    if trace:
        layers = layer_metrics(t, sum(traced[1]), name == "eval-test")
        layers["cli.evaluate_overhead_s"] = 0.0
        if name == "eval-test":
            # The paper's whole-file report, beside the chunk reports that
            # give the latency samples: oracle and recorded digest.
            layers["cli.evaluate_overhead_s"], whole = cli_overhead(data)
            details["whole_digest"] = whole_digest = digest(whole)
            whole_ok = bool(whole) and not workload.check([workload.whole(state)], [whole])
            whole_ok = whole_ok and (recorded is None or recorded["whole_digest"] == whole_digest)
            attempted += 1
            n_failed += not whole_ok
        trace_file = WORK / "traces" / f"{name}-seed{seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        t.write(trace_file)

    # Further passes, each on a fresh dataset, until the budget is spent.
    state = None
    k = 0
    while not latencies or sum(latencies) < seconds:
        k += 1
        pass_data = generate(pass_seed(seed, k), size)
        try:
            workload = make(pass_data, pass_seed(seed, k))
            gc.collect()
            state = workload.setup()
            lat, wts, rds, outputs = closed_loop(workload, state, seconds - sum(latencies))
            latencies += lat
            weights += wts
            readings += rds
            attempted += len(outputs)
            n_failed += len(failures(workload, state, outputs))
            state = None
        finally:
            shutil.rmtree(pass_data, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail_p = spec["tail_percentile"]
    scaled = at_reference_speed(latencies, readings)
    details.update({
        "workload": name,
        "seed": seed,
        "size": size,
        "loop": "closed, 1 client",
        "passes": 1 + k,
        "timed_ops": len(latencies),
        "throughput_unit": f"{workload.item}s/s",
        "tail_percentile": tail_p,
        "tail_samples_beyond": len(latencies) - max(1, math.ceil(tail_p / 100.0 * len(latencies))),
        "setup_s_reps": setup_times,
        "speed_reading_median_s": statistics.median(readings + setup_readings),
        "as_measured": timings(setup_times, latencies, weights, tail_p),
        "failed_ratio": n_failed / attempted,
        "quality": quality,
        "quality_unit": "ratio",
        "digest": pass_digest,
        "digest_recorded": None if recorded is None else recorded["digest"],
        "digest_match": None if recorded is None else digest_ok,
        "input": json.loads((data / "meta.json").read_text(encoding="utf-8"))["properties"],
    })
    if trace:
        # Time per work item traced on pass 0 over untraced on later
        # passes, both at reference speed.
        traced_latencies, traced_weights, traced_readings = traced
        traced_cost = sum(at_reference_speed(traced_latencies, traced_readings)) / sum(traced_weights)
        layers["trace.overhead_ratio"] = traced_cost / (sum(scaled) / sum(weights)) - 1.0
        details["trace_file"] = str(trace_file.relative_to(ROOT))
        details["trace_overhead_ratio"] = layers["trace.overhead_ratio"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in CONTRACT["per_layer"]}
    else:
        values = timings(at_reference_speed(setup_times, setup_readings), scaled, weights, tail_p)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in CONTRACT["end_to_end"]}
    result = {"correct": n_failed == 0, "attempted": attempted, "failed": n_failed, "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hybridkm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hybridkm" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'hybridkm'} not found; run from a hybridkm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    WORK.mkdir(exist_ok=True)
    data = generate(args.seed, args.size)
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, data)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
