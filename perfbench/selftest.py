"""Fast self-test of the benchmark harness.

Runs every workload with a tiny batch count, untraced and traced, and
checks that the last output line is the result object, that every metric
named in BENCHMARK.json is emitted with its unit and a finite value, that
the run's outputs were found correct, and that the benchmark refuses to
run in a directory without the program. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def run(workload: str, trace: int, cwd: str = ROOT, tiny: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(w, trace)
            if proc.returncode != 0:
                problems.append(f"{w} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{w} trace={trace}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{w} trace={trace}: metric names differ: {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m and (m["unit"] != unit or m["value"] is None or not math.isfinite(m["value"])):
                    problems.append(f"{w} trace={trace}: {name} = {m}, unit {unit} expected")
            print(f"{w} trace={trace}: {len(got)} metrics checked", flush=True)
    # Without the program the benchmark must refuse, not report.
    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=ROOT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare, tiny=False)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, output {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
