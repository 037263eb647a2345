"""Benchmark of the adaptive CEP operator and the Tables 2-5 replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload traffic-greedy --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``traffic-greedy``: the Structured Streaming operator on sparse traffic
  batches with the greedy algorithm; statistics monitoring dominates.
* ``tables-replay``: statistics-history extraction and ``compare_methods``
  for Tables 2-5; the decision function, the plan algorithms and the cost
  model do the work, with no Spark job in the replay.
* ``traffic-dense`` (not gated): the same operator on three times denser
  traffic with ZStream tree plans; match evaluation dominates.

Everything runs in this process, Spark in ``local[k]`` mode. ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` wraps the calls into each
layer and reports the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record of each run (environment, per-trigger progress, spans) is
written under ``.bench_build/perfbench/results``. The program is built
from ``src/`` of the checkout; without it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import shutil
import sys
import tempfile
import time

sys.dont_write_bytecode = True

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Spark cores; at most the machine's, at most 4.
CORES = max(1, min(4, os.cpu_count() or 1))
SHUFFLE_PARTITIONS = 16  # as the table jobs (jobs/_common.py)
DRIVER_MEMORY = "2g"
YOUNG_GEN = "512m"
WORKLOADS = ("traffic-greedy", "traffic-dense", "tables-replay")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="few batches; for the harness self-test only"
    )
    return ap.parse_args(argv)


def bootstrap() -> str:
    """Keep every file Spark, the JVMs and Python write inside the checkout,
    and fix the Spark launch settings before pyspark starts the JVM.
    Returns this run's temporary directory."""
    tmp = os.path.join(WORK, "tmp", str(os.getpid()))
    local = os.path.join(WORK, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local
    confs = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.retainedJobs": "100000",
        "spark.local.dir": local,
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.warehouse.dir": os.path.join(WORK, "warehouse"),
        # A heap of fixed size with a young generation of fixed size and
        # place: the JVM's resident memory then follows the data it keeps,
        # not when its collector chose to grow the heap.
        "spark.driver.extraJavaOptions": (
            f"-XX:+UseParallelGC -XX:-UseAdaptiveSizePolicy -Xms{DRIVER_MEMORY} -Xmn{YOUNG_GEN}"
        ),
    }
    args = ["--master", f"local[{CORES}]", "--driver-memory", DRIVER_MEMORY]
    for k, v in confs.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    # Also read by spark-submit's launcher JVM, which would otherwise
    # write its performance-data file to the system temporary directory.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    return tmp


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    tmp = bootstrap()
    import workloads  # noqa: E402  (needs the paths set by bootstrap)

    started = time.time()
    try:
        record = workloads.run(args, WORK)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["wall_s"] = time.time() - started
    out_dir = os.path.join(WORK, "results", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    name = f"seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}-{int(started)}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, default=str)

    kind = "per_layer" if args.trace else "end_to_end"
    for line in record["notes"]:
        print(f"# {line}")
    for k, v in record[kind].items():
        print(f"{k:40s} {v:>16.6g} {workloads.UNITS[k]}")
    # A run whose query died has no measurement: null, not NaN, in the JSON.
    metrics = {
        k: {"value": v if math.isfinite(v) else None, "unit": workloads.UNITS[k]}
        for k, v in record[kind].items()
    }
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
