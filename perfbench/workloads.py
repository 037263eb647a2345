"""The workloads and the metrics they report.

Streaming workloads (``traffic-greedy``, and ``traffic-dense``, which is
not gated, see README.md) are closed-loop replays: the generated stream is
written as one parquet file per batch and ``run_adaptive_stream`` reads it
with ``availableNow`` and one file per trigger, so a batch starts only when
the previous trigger has finished. A warm-up query over the first batches
runs before the measured query over the whole stream.

``tables-replay`` extracts the statistics histories of a traffic and a
stocks stream and runs ``compare_methods`` once per table of Tables 2-5
and pattern size, repeated; a table's latency is its dataset's history
plus its replay.

The end-to-end metrics are defined on every workload (README.md gives
their meaning per workload); the per-layer metrics come from the traced
run and are 0 for a layer a workload does not use.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime

import duckdb
import pandas as pd
import pyspark
from pyspark import SparkContext
from pyspark.sql import SparkSession
from pyspark.sql.streaming import StreamingQueryListener

import reference
import tracing
from repro.core.adaptive import ALGORITHMS
from repro.core.executor import match_sql
from repro.core.invariants import InvariantDecision
from repro.core.stats import per_batch_statistics
from repro.datasets import (
    stocks_events,
    stocks_pattern,
    stocks_stats_pattern,
    traffic_events,
    traffic_pattern,
    traffic_stats_pattern,
)
from repro.sim.data import algorithm_k
from repro.sim.runner import compare_methods
from repro.streaming.structured import run_adaptive_stream

END_TO_END = {
    "events_per_s": "events/s",
    "trigger_p50_s": "s",
    "trigger_tail_s": "s",
    "first_trigger_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "structured.offsets_s": "s",
    "structured.planning_s": "s",
    "structured.callback_other_s": "s",
    "structured.spark_jobs": "count",
    "structured.rows_scanned_ratio": "ratio",
    "stats.batch_s_p50": "s",
    "stats.batch_s_tail": "s",
    "stats.trigger_share": "ratio",
    "stats.spark_jobs": "count",
    "stats.history_traffic_s": "s",
    "stats.history_stocks_s": "s",
    "executor.eval_s_p50": "s",
    "executor.eval_s_tail": "s",
    "executor.trigger_share": "ratio",
    "executor.spark_jobs": "count",
    "executor.matches_out": "count",
    "plans.expected_pm": "count",
    "plans.cost_us": "us",
    "plans.cost_calls": "count",
    "adaptive.tick_s": "s",
    "adaptive.decision_fires": "count",
    "adaptive.replacements": "count",
    "adaptive.replacement_ratio": "ratio",
    "invariants.check_us": "us",
    "invariants.checks": "count",
    "greedy.build_us": "us",
    "greedy.calls": "count",
    "zstream.build_us": "us",
    "zstream.calls": "count",
    "runner.replay_s": "s",
    "runner.ticks": "count",
    "runner.tick_us": "us",
    "runner.spark_jobs": "count",
    "runner.invariant_gain_n8.traffic_greedy": "ratio",
    "runner.invariant_gain_n8.traffic_zstream": "ratio",
    "runner.invariant_gain_n8.stocks_greedy": "ratio",
    "runner.invariant_gain_n8.stocks_zstream": "ratio",
    "datasets.generate_s": "s",
    "oracle.reference_s": "s",
    "oracle.check_s": "s",
    "oracle.match_recall": "ratio",
    "oracle.reference_matches": "count",
    "trace.overhead_pct": "%",
}
UNITS = {**END_TO_END, **PER_LAYER}

#: Streaming workloads. ``pace`` is roughly the seed code's triggers per
#: second on a 4-core machine; with ``--seconds`` it sets the batch count,
#: so the measured query lasts about ``--seconds``.
STREAMS = {
    "traffic-greedy": {"scale": 1.0, "algorithm": "greedy", "pace": 1.0},
    "traffic-dense": {"scale": 3.0, "algorithm": "zstream", "pace": 0.3},
}
MIN_MEASURED = 6
#: Batches of the warm-up query that runs before the measured one: the
#: trigger time of a fresh JVM falls by half over its first 15 to 25
#: triggers as its code gets compiled, and settles after that.
WARMUP_BATCHES = 10
#: Queries over the first batch alone, run on the warm JVM after the
#: warm-up: ``first_trigger_s`` is the median of their first triggers and
#: the measured query's, as one first trigger per run spread 19% over ten
#: runs.
START_QUERIES = 3
PATTERN_SIZE = 5
DISTANCE = 0.1
ESTIMATOR_WINDOW = 3
SCHEMA = "ts double, type string, cars double, speed double"
ATTRS = ("cars", "speed")
#: Histories of the Tables 2-5 replay, in batches: a fifth of what the
#: table jobs use (120 and 240), so that a run with its repetitions stays
#: under a minute.
TABLE_BATCHES = {"traffic": 24, "stocks": 48}
TABLE_SIZES = (3, 4, 5, 6, 7, 8)
TABLES = ("traffic_greedy", "traffic_zstream", "stocks_greedy", "stocks_zstream")
#: The replay is repeated and each of its calls (one compare_methods call
#: per table and pattern size) is reported by its fastest repetition: on a
#: shared host the same pure-Python call varies by up to 2x from one
#: repetition to the next, and interference only ever slows a call.
REPLAY_REPS = 4
#: Set-up (generation and writes) is repeated and the median reported.
SETUP_REPS = 3


# -- helpers ------------------------------------------------------------
def tail(samples: list[float]) -> tuple[float, int]:
    """The nearest-rank p75 and the number of samples beyond it. A run
    has 3 to 40 samples, too few for a higher percentile with ten
    samples beyond it."""
    xs = sorted(samples)
    i = math.ceil(0.75 * len(xs)) - 1
    return xs[i], len(xs) - 1 - i


def peak_rss_mb(spark: SparkSession) -> dict[str, float]:
    """VmHWM of this process and of the Spark JVM, in MB."""
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    out = {}
    for name, pid in (("python", "self"), ("jvm", str(jvm_pid))):
        with open(f"/proc/{pid}/status") as f:
            out[name] = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024.0
    return out


def start_spark() -> tuple[SparkSession, float]:
    t0 = time.perf_counter()
    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1).count()  # the session is usable
    return spark, time.perf_counter() - t0


def stop_spark(spark: SparkSession) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def environment(spark: SparkSession, seed: int) -> dict:
    return {
        "master": spark.sparkContext.master,
        "cores_k": spark.sparkContext.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "nproc": os.cpu_count(),
        "driver_memory": spark.sparkContext.getConf().get("spark.driver.memory"),
        "pyspark": pyspark.__version__,
        "duckdb": duckdb.__version__,
        "pandas": pd.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def _finite_positive(x) -> bool:
    return math.isfinite(x) and x > 0


def _untraced(args, work: str) -> dict:
    """Record of an untraced run of the same workload to compare a traced
    run with: a saved one of the same seed, else the latest saved one of
    any seed, else one made now in a child process."""
    out_dir = os.path.join(work, "results", args.workload)

    def saved(seed=None):
        # names are seed<n>-trace<t>[-tiny]-<start time>.json (see run.py)
        names = [f.split("-") for f in (os.listdir(out_dir) if os.path.isdir(out_dir) else [])]
        runs = [p for p in names if p[1] == "trace0" and ("tiny" in p) == args.tiny
                and seed in (None, p[0][len("seed"):])]
        return ["-".join(p) for p in sorted(runs, key=lambda p: p[-1])]

    found = saved(str(args.seed)) or saved()
    if not found:
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)
        found = saved(str(args.seed))
    with open(os.path.join(out_dir, found[-1])) as f:
        return json.load(f)


class Progress(StreamingQueryListener):
    """Per-trigger ``numInputRows`` and ``durationMs`` of a query."""

    def __init__(self):
        self.records: list[dict] = []

    def onQueryStarted(self, event):
        pass

    def onQueryProgress(self, event):
        p = event.progress
        self.records.append(
            {
                "batch": p.batchId,
                "run_id": str(p.runId),
                "timestamp": p.timestamp,
                "rows": p.numInputRows,
                "durations_ms": dict(p.durationMs),
            }
        )

    def onQueryIdle(self, event):
        pass

    def onQueryTerminated(self, event):
        pass


# -- streaming workloads ------------------------------------------------
def _write_batches(pdf: pd.DataFrame, n_batches: int, out_dir: str) -> list[pd.DataFrame]:
    """One parquet file per batch, with increasing modification times so
    the file source reads them in batch order."""
    os.makedirs(out_dir)
    batches = []
    base = time.time() - n_batches
    for b in range(n_batches):
        part = pdf.loc[pdf["batch"] == b].drop(columns="batch").reset_index(drop=True)
        path = os.path.join(out_dir, f"batch-{b:05d}.parquet")
        part.to_parquet(path, index=False)
        os.utime(path, (base + b, base + b))
        batches.append(part)
    return batches


def _run_query(spark, input_dir, pattern, algo, k) -> dict:
    """One closed-loop query over ``input_dir`` with its progress records."""
    listener = Progress()
    spark.streams.addListener(listener)
    error, report = None, None
    try:
        report = run_adaptive_stream(
            spark, input_dir, SCHEMA, pattern, algo,
            InvariantDecision(k=k, d=DISTANCE), ATTRS, estimator_window=ESTIMATOR_WINDOW,
        )
    except Exception as exc:  # the query died: its unprocessed batches fail
        error = repr(exc)
    end = time.time()
    n_files = len(os.listdir(input_dir))
    deadline = end + 30  # listener events arrive asynchronously
    while error is None and len({r["batch"] for r in listener.records}) < n_files and time.time() < deadline:
        time.sleep(0.05)
    spark.streams.removeListener(listener)
    progress = sorted({r["batch"]: r for r in listener.records}.values(), key=lambda r: r["batch"])
    trig = [r["durations_ms"]["triggerExecution"] / 1000.0 for r in progress]
    first_end = None
    if progress:
        started = datetime.fromisoformat(progress[0]["timestamp"].replace("Z", "+00:00")).timestamp()
        first_end = started + trig[0]
    return {
        "error": error,
        "end": end,
        "first_end": first_end,
        "progress": progress,
        "trig": trig,
        "processed": report.triggers if report else len(progress),
        "matches": report.matches if report else pd.DataFrame(),
    }


def run_stream(args, work: str, spark: SparkSession, spark_start_s: float, tracer) -> dict:
    cfg = STREAMS[args.workload]
    measured = 3 if args.tiny else max(MIN_MEASURED, round(args.seconds * cfg["pace"]))
    n_batches = measured + 1
    n_warm = min(2 if args.tiny else WARMUP_BATCHES, n_batches)
    algo = ALGORITHMS[cfg["algorithm"]]
    k = algorithm_k(algo.name)
    pattern = traffic_pattern(PATTERN_SIZE)
    run_dir = os.path.join(work, "runs", f"{os.getpid()}")

    # Set-up: generation and parquet writes, repeated; the last copy is used.
    gen_s, setup_s = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        pdf = traffic_events(
            spark, n_types=8, n_batches=n_batches, scale=cfg["scale"], seed=args.seed
        ).toPandas()
        gen_s.append(time.perf_counter() - t0)
        input_dir = os.path.join(run_dir, f"input-{rep}")
        batches = _write_batches(pdf, n_batches, input_dir)
        setup_s.append(time.perf_counter() - t0)
        if rep:
            shutil.rmtree(os.path.join(run_dir, f"input-{rep - 1}"))
    warm_dir = os.path.join(run_dir, "warmup")
    os.makedirs(warm_dir)
    for name in sorted(os.listdir(input_dir))[:n_warm]:
        shutil.copy2(os.path.join(input_dir, name), warm_dir)
    start_dir = os.path.join(run_dir, "start")
    os.makedirs(start_dir)
    shutil.copy2(os.path.join(input_dir, sorted(os.listdir(input_dir))[0]), start_dir)

    # Reference (outside every timed region), cached by input content.
    columns = [f"{t}_{c}" for t in pattern.event_types for c in ("ts",) + ATTRS]
    ts_columns = [f"{t}_ts" for t in pattern.event_types]
    content = hashlib.sha256(pd.util.hash_pandas_object(pdf, index=False).values.tobytes()).hexdigest()
    oracle = reference.Reference(columns, ts_columns, pattern.window)
    t0 = time.perf_counter()
    ref_size = oracle.build(batches, match_sql(pattern, ATTRS, "events"), os.path.join(work, "oracle"), content)
    reference_s = time.perf_counter() - t0
    if ref_size == 0:
        raise RuntimeError("empty reference: the check would compare two empty sets")

    # Warm-up query over the first batches, start-up queries over the first
    # batch, then the measured query over the whole stream; only the
    # measured query is traced.
    run_algo = tracer.algorithm(algo) if tracer else algo
    warm = _run_query(spark, warm_dir, pattern, run_algo, k)
    starts = [_run_query(spark, start_dir, pattern, run_algo, k) for _ in range(START_QUERIES)]
    if tracer:
        tracer.reset()
        tracer.expected_pm = lambda plan, snap: algo.cost(plan, pattern, snap)
    main = _run_query(spark, input_dir, pattern, run_algo, k)
    rss = peak_rss_mb(spark)
    shutil.rmtree(run_dir, ignore_errors=True)

    # Correctness and failure accounting, for every query.
    t0 = time.perf_counter()
    flags = []
    for q, n in ((warm, n_warm), *((q, 1) for q in starts), (main, n_batches)):
        q_flags, per_batch = oracle.check(q["matches"], n)
        q["found"] = sum(found for _, found in per_batch.values())
        flags += [f or b >= q["processed"] for b, f in enumerate(q_flags)]
    oracle.close()
    check_s = time.perf_counter() - t0

    trig = main["trig"]
    first = [q["trig"][0] for q in starts + [main] if q["trig"]]
    rows_in = [len(b) for b in batches]
    tail_v, beyond = tail(trig[1:]) if len(trig) > 1 else (float("nan"), 0)
    e2e = {
        "events_per_s": sum(rows_in[1 : main["processed"]]) / (main["end"] - main["first_end"])
        if main["first_end"] and len(trig) > 1 else float("nan"),
        "trigger_p50_s": statistics.median(trig[1:]) if len(trig) > 1 else float("nan"),
        "trigger_tail_s": tail_v,
        "first_trigger_s": statistics.median(first) if first else float("nan"),
        "setup_s": spark_start_s + statistics.median(setup_s),
        "peak_rss_mb": sum(rss.values()),
    }
    failed = sum(flags)
    notes = [
        f"{args.workload}: {n_batches} batches, {sum(rows_in)} events, scale {cfg['scale']}, "
        f"{algo.name}, invariant K={k} d={DISTANCE}; closed loop (availableNow, 1 file per "
        f"trigger); a warm-up query over the first {n_warm} batches runs first, then "
        f"{START_QUERIES} start-up queries over the first batch",
        f"first_trigger_s is the median of {len(first)} first triggers (start-up and measured queries)",
        f"cold first trigger (warm-up query): {warm['trig'][0] if warm['trig'] else float('nan'):.3f} s",
        f"trigger_tail_s is p75 of {max(0, len(trig) - 1)} triggers, {beyond} beyond it",
        f"match_recall {main['found'] / ref_size:.4f} ratio: {main['found']} of {ref_size} whole-stream "
        f"reference matches emitted ({len(main['matches'])} rows){'; reference cached' if oracle.cached else ''}",
        f"failed_share {failed / len(flags):.4f} ratio: {failed} of {len(flags)} triggers "
        f"(warm-up, start-up and measured queries)",
    ]
    queries = [("warm-up", warm)] + [(f"start-up {i}", q) for i, q in enumerate(starts)] + [("measured", main)]
    for name, q in queries:
        if q["error"]:
            notes.append(f"{name} query died: {q['error']}")
    layer = {
        "datasets.generate_s": statistics.median(gen_s),
        "oracle.reference_s": reference_s,
        "oracle.check_s": check_s,
        "oracle.match_recall": main["found"] / ref_size,
        "oracle.reference_matches": ref_size,
    }
    if tracer:
        layer.update(_stream_layers(tracer, spark, main["progress"], trig, rows_in))
        layer.update(_control_layers(tracer, "stream"))
        untraced = _untraced(args, work)["end_to_end"]["events_per_s"]
        layer["trace.overhead_pct"] = 100.0 * (untraced / e2e["events_per_s"] - 1.0)
    return {
        "end_to_end": e2e,
        "layer": layer,
        "attempted": len(flags),
        "failed": failed,
        "correct": failed == 0 and not any(q["error"] for _, q in queries),
        "notes": notes,
        "peak_rss_parts_mb": rss,
        "progress": {name: q["progress"] for name, q in queries},
        "failed_triggers": [i for i, f in enumerate(flags) if f],
    }


def _stream_layers(tracer, spark, progress, trig, rows_in) -> dict:
    """Per-trigger layer metrics of triggers 2..N from spans and progress."""
    stats_s = tracer.durations("stats.batch")[1:]
    eval_s = tracer.durations("executor.eval")[1:]
    tick_s = tracer.durations("adaptive.tick")[1:]
    durations = [r["durations_ms"] for r in progress][1:]
    offsets = [
        sum(d.get(k, 0) for k in ("latestOffset", "getBatch", "walCommit", "commitOffsets")) / 1000.0
        for d in durations
    ]
    other = [d["addBatch"] / 1000.0 - s - e - t for d, s, e, t in zip(durations, stats_s, eval_s, tick_s)]
    run_id = progress[0]["run_id"] if progress else None
    group_jobs = len(spark.sparkContext.statusTracker().getJobIdsForGroup(run_id)) if run_id else 0
    busy = sum(trig[1:]) or float("nan")

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    return {
        "structured.offsets_s": median(offsets),
        "structured.planning_s": median([d.get("queryPlanning", 0) / 1000.0 for d in durations]),
        "structured.callback_other_s": median(other),
        "structured.spark_jobs": group_jobs / max(1, len(progress)),
        "structured.rows_scanned_ratio": sum(r["rows"] for r in progress) / max(1, sum(rows_in)),
        "stats.batch_s_p50": median(stats_s),
        "stats.batch_s_tail": tail(stats_s)[0] if stats_s else 0.0,
        "stats.trigger_share": sum(stats_s) / busy,
        "stats.spark_jobs": tracer.jobs("stats.batch") / max(1, len(tracer.durations("stats.batch"))),
        "executor.eval_s_p50": median(eval_s),
        "executor.eval_s_tail": tail(eval_s)[0] if eval_s else 0.0,
        "executor.trigger_share": sum(eval_s) / busy,
        "executor.spark_jobs": tracer.jobs("executor.eval") / max(1, len(tracer.durations("executor.eval"))),
        "executor.matches_out": tracer.counts["executor.matches_out"],
        "plans.expected_pm": tracer.counts["plans.expected_pm"],
        "adaptive.tick_s": median(tick_s),
    }


def _control_layers(tracer, context: str) -> dict:
    """Control-plane counters of one phase: calls and mean microseconds."""

    def calls(name):
        return tracer.calls[f"{context}:{name}"]

    def mean_us(name):
        n = calls(name)
        return 1e6 * tracer.totals[f"{context}:{name}"] / n if n else 0.0

    fires = tracer.counts[f"{context}:fires"]
    replacements = tracer.counts[f"{context}:replacements"]
    out = {
        "plans.cost_us": mean_us("plans.cost"),
        "plans.cost_calls": calls("plans.cost"),
        "adaptive.decision_fires": fires,
        "adaptive.replacements": replacements,
        "adaptive.replacement_ratio": replacements / fires if fires else 0.0,
        "invariants.check_us": mean_us("invariants.check"),
        "invariants.checks": calls("invariants.check"),
        "greedy.build_us": mean_us("greedy.build"),
        "greedy.calls": calls("greedy.build"),
        "zstream.build_us": mean_us("zstream.build"),
        "zstream.calls": calls("zstream.build"),
    }
    if context == "replay":
        out["runner.ticks"] = calls("adaptive.tick")
        out["runner.tick_us"] = mean_us("adaptive.tick")
    return out


# -- tables-replay ------------------------------------------------------
def run_tables(args, work: str, spark: SparkSession, spark_start_s: float, tracer) -> dict:
    n_batches = {"traffic": 8, "stocks": 16} if args.tiny else TABLE_BATCHES
    sizes = (3, 8) if args.tiny else TABLE_SIZES
    gens = {"traffic": traffic_events, "stocks": stocks_events}
    stats_patterns = {"traffic": traffic_stats_pattern(), "stocks": stocks_stats_pattern()}
    factories = {"traffic": traffic_pattern, "stocks": stocks_pattern}

    # Set-up: generate both streams and cache them, as the table jobs do.
    gen_s, setup_s, events = [], [], {}
    for _ in range(SETUP_REPS):
        for df in events.values():
            df.unpersist()
        t0 = time.perf_counter()
        events = {
            name: gens[name](spark, n_types=8, n_batches=n_batches[name], seed=args.seed).cache()
            for name in gens
        }
        gen_s.append(time.perf_counter() - t0)
        n_events = {name: df.count() for name, df in events.items()}
        setup_s.append(time.perf_counter() - t0)

    # History: extracted once, stocks first, and timed as a table job pays
    # for it, on the JVM's first use of the history path.
    history, history_s = {}, {}
    for name in ("stocks", "traffic"):
        t0 = time.perf_counter()
        history[name] = per_batch_statistics(events[name], stats_patterns[name])
        history_s[name] = time.perf_counter() - t0

    # Replay: one compare_methods call per table and pattern size, repeated
    # REPLAY_REPS times (interleaved), in a job group of its own so that any
    # Spark job inside it is counted. The tracer's counters cover the first
    # repetition.
    sc = spark.sparkContext
    sc.setLocalProperty("spark.jobGroup.id", "perfbench-replay")
    calls, frames = [], {}
    for rep in range(REPLAY_REPS):
        if tracer:
            tracer.context = "replay" if rep == 0 else "replay-rep"
        for table in TABLES:
            name, algo_name = table.split("_")
            algo = ALGORITHMS[algo_name]
            snapshots = [s for _, s in history[name]]
            for n in sizes:
                t0 = time.perf_counter()
                try:
                    df = compare_methods(factories[name], tracer.algorithm(algo) if tracer else algo,
                                         snapshots, pattern_sizes=(n,), k=algorithm_k(algo_name))
                    ok = len(df) == 4 and all(_finite_positive(float(x)) for x in df["throughput"])
                    frames.setdefault((table, n), df)
                except Exception as exc:  # a failed call is counted, not fatal
                    ok = False
                    print(f"# compare_methods({table}, n={n}) raised {exc!r}")
                calls.append({"table": table, "n": n, "rep": rep, "ok": ok,
                              "seconds": time.perf_counter() - t0})
    replay_jobs = len(sc.statusTracker().getJobIdsForGroup("perfbench-replay"))
    sc.setLocalProperty("spark.jobGroup.id", None)
    rss = peak_rss_mb(spark)

    # Check: the histories' per-batch type counts against DuckDB.
    t0 = time.perf_counter()
    want = got = 0
    for name, df in events.items():
        counts = duckdb.query_df(
            df.select("batch", "type").toPandas(), "ev",
            "SELECT batch, type, count(*) AS n FROM ev GROUP BY ALL",
        ).fetchdf()
        rates = {bid: snap.rates for bid, snap in history[name]}
        want += len(counts)
        got += sum(
            1 for b, t, c in counts.itertuples(index=False)
            if rates.get(int(b), {}).get(t) == float(c)
        )
        df.unpersist()
    check_s = time.perf_counter() - t0

    # A table's replay seconds: the sum over its pattern sizes of the
    # fastest repetition of each call. A table's latency adds the history
    # extraction of its dataset, as a table job does.
    fastest = {}
    for c in calls:
        fastest[(c["table"], c["n"])] = min(fastest.get((c["table"], c["n"]), math.inf), c["seconds"])
    table_s = {t: sum(fastest[(t, n)] for n in sizes) for t in TABLES}
    latency = {t: history_s[t.split("_")[0]] + table_s[t] for t in TABLES}
    replay_s = sum(table_s.values())
    history_total = sum(history_s.values())
    e2e = {
        "events_per_s": sum(n_events.values()) / (history_total + replay_s),
        "trigger_p50_s": statistics.median(latency.values()),
        "trigger_tail_s": max(latency.values()),
        "first_trigger_s": latency["traffic_greedy"],
        "setup_s": spark_start_s + statistics.median(setup_s),
        "peak_rss_mb": sum(rss.values()),
    }
    failed = sum(not c["ok"] for c in calls)
    notes = [
        f"tables-replay: traffic {n_batches['traffic']} batches ({n_events['traffic']} events), "
        f"stocks {n_batches['stocks']} batches ({n_events['stocks']} events); {len(calls)} "
        f"compare_methods calls: {len(TABLES)} tables x n = {sizes[0]}..{sizes[-1]} x {REPLAY_REPS} "
        "repetitions; each call timed by its fastest repetition",
        f"history_s {history_total:.4f} s; replay_s {replay_s:.4f} s; "
        + "; ".join(f"{t} {v:.4f} s" for t, v in table_s.items()),
        "a table's latency is its dataset's history plus its replay; first_trigger_s is that of "
        f"Table 2 (traffic, greedy), trigger_p50_s the median and trigger_tail_s the slowest of the "
        f"{len(TABLES)} tables",
        f"history check: {got} of {want} (batch, type) counts equal DuckDB's",
        f"failed_share {failed / len(calls):.4f} ratio: {failed} of {len(calls)} compare_methods calls",
        f"Spark jobs inside the replay: {replay_jobs}",
    ]
    layer = {
        "datasets.generate_s": statistics.median(gen_s),
        "oracle.check_s": check_s,
        "stats.history_traffic_s": history_s["traffic"],
        "stats.history_stocks_s": history_s["stocks"],
        "runner.replay_s": replay_s,
        "runner.spark_jobs": replay_jobs,
    }
    for (table, n), df in frames.items():
        if n == 8:
            at8 = dict(zip(df["method"], df["throughput"]))
            layer[f"runner.invariant_gain_n8.{table}"] = at8["invariant"] / at8["static"]
    if tracer:
        layer.update(_control_layers(tracer, "replay"))
        untraced = _untraced(args, work)["per_layer"]["runner.replay_s"]
        layer["trace.overhead_pct"] = 100.0 * (replay_s / untraced - 1.0)
    return {
        "end_to_end": e2e,
        "layer": layer,
        "attempted": len(calls),
        "failed": failed,
        "correct": failed == 0 and got == want and replay_jobs == 0,
        "notes": notes,
        "spark_start_s": spark_start_s,
        "peak_rss_parts_mb": rss,
        "setup_reps_s": setup_s,
        "calls": calls,
        "rows": [{**r, "table": t} for (t, _), df in frames.items() for r in df.to_dict("records")],
    }


def run(args, work: str) -> dict:
    """Run one workload; return the record of the run."""
    spark, spark_start_s = start_spark()
    try:
        env = environment(spark, args.seed)
        tracer = tracing.Tracer(spark.sparkContext) if args.trace else None
        body = run_tables if args.workload == "tables-replay" else run_stream
        if tracer:
            with tracing.patched(tracer):
                rec = body(args, work, spark, spark_start_s, tracer)
        else:
            rec = body(args, work, spark, spark_start_s, None)
    finally:
        stop_spark(spark)
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update(rec.pop("layer"))
    rec["per_layer"] = {k: float(layer[k]) for k in PER_LAYER}
    rec["end_to_end"] = {k: float(rec["end_to_end"][k]) for k in END_TO_END}
    rec["environment"] = env
    rec["notes"].insert(0, "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if tracer:
        rec["spans"] = tracer.spans
    return rec
