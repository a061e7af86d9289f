#!/usr/bin/env python3
"""Short self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, with one seed, and
checks that:
  * every metric BENCHMARK.json names is printed, with its unit;
  * every answer was correct, and nothing failed on the closed loops;
  * the seed yields the same request stream (hash) and the same
    top1_slowdown in both runs, and another seed a different stream.
Exits non-zero on the first broken check.
"""

import json
import subprocess
import sys

SEED = 7
SECONDS = "2"
CLOSED_LOOPS = {"tune_cold", "fleet_hot_tcp"}


def run(workload, seed, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    # Every metric a run computes is also printed as "  name = value".
    shown = dict(l.strip().split(" = ") for l in lines if l.startswith("  ") and " = " in l)
    return json.loads(lines[-1]), meta, shown


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")


def main():
    spec = json.load(open("BENCHMARK.json"))
    # serve_open_mix is not in BENCHMARK.json but is run by hand, so it is
    # checked too.
    for workload in [w["name"] for w in spec["workloads"]] + ["serve_open_mix"]:
        hashes = set()
        slowdowns = set()
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, meta, shown = run(workload, SEED, trace)
            tag = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            check(result["correct"], f"{tag}: wrong answers")
            check(result["attempted"] >= 1, f"{tag}: nothing attempted")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            check(printed == wanted, f"{tag}: metrics {printed} != declared {wanted}")
            check(meta["mode"] == ("traced" if trace else "untraced"), f"{tag}: mode stamp")
            check(meta["seed"] == SEED, f"{tag}: seed stamp")
            if workload in CLOSED_LOOPS:
                check(result["failed"] == 0, f"{tag}: failed_share is not 0")
            if trace == 0:
                ok = result["metrics"]["ok_share"]["value"]
                check(workload not in CLOSED_LOOPS or ok == 1, f"{tag}: ok_share {ok} != 1")
            slowdowns.add(shown["top1_slowdown"])
            hashes.add(meta["stream_hash"])
            print(f"ok  {tag}: {len(printed)} metrics, stream {meta['stream_hash']}")
        check(len(hashes) == 1, f"{workload}: seed {SEED} gave streams {hashes}")
        check(len(slowdowns) == 1, f"{workload}: seed {SEED} gave top1_slowdown {slowdowns}")
        _, other, _ = run(workload, SEED + 1, 0)
        check(other["stream_hash"] not in hashes, f"{workload}: seeds {SEED} and {SEED + 1} collide")
    print("selftest passed")


if __name__ == "__main__":
    main()
