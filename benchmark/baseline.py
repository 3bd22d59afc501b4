"""Records benchmark/baseline.json: three back-to-back sets of every workload.

Run from the repository root:

    python3 benchmark/baseline.py

A set runs each workload once untraced and once traced, for the
run_seconds of BENCHMARK.json. The sets use seeds 7, 7 and 8, so the first
two are the same inputs back to back and the third is another draw of
programs. For each workload and end-to-end metric the file keeps the three
values and two spreads, each the largest ratio between two values minus
one: between the two seed-7 sets (back_to_back_spread) and among all three
(set_to_set_spread). Per-layer counts must repeat exactly between the two
seed-7 sets; the script fails otherwise.
"""

import json
import os
import platform
import subprocess
import sys

SEEDS = [7, 7, 8]
# Per-layer metrics that count work; they are deterministic for a seed.
COUNTS = ["ir.statements", "prean.passes", "dug.triples", "partition.components",
          "fixpoint.steps", "fixpoint.useful_ratio", "fixpoint.widenings",
          "check.alarms", "restrict.triples_ratio", "restrict.steps"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out", os.path.join(".bench_build", "baseline", f"{workload}-{seed}-{trace}")],
        check=True, capture_output=True, text=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    if not line["correct"]:
        sys.exit(f"{workload} seed {seed}: {line['failed']} of {line['attempted']} checks failed")
    return {k: v["value"] for k, v in line["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = []
    for seed in SEEDS:
        sets.append({w: {"end_to_end": run(w, seed, seconds, 0), "per_layer": run(w, seed, seconds, 1)}
                     for w in names})
    spread = lambda vals: max(vals) / min(vals) - 1
    back_to_back, spreads = {}, {}
    for w in names:
        for k in sets[0][w]["per_layer"]:
            if k in COUNTS and sets[0][w]["per_layer"][k] != sets[1][w]["per_layer"][k]:
                sys.exit(f"{w} {k}: {sets[0][w]['per_layer'][k]} then {sets[1][w]['per_layer'][k]} at seed 7")
        back_to_back[w], spreads[w] = {}, {}
        for m in spec["end_to_end"]:
            vals = [s[w]["end_to_end"][m["name"]] for s in sets]
            back_to_back[w][m["name"]] = spread(vals[:2])
            spreads[w][m["name"]] = spread(vals)
    info = json.loads(subprocess.run(
        ["go", "env", "-json", "GOVERSION"], check=True, capture_output=True, text=True).stdout)
    doc = {
        "seeds": SEEDS,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "gomaxprocs": os.environ.get("GOMAXPROCS", "unset"),
        "go_version": info["GOVERSION"],
        "machine": platform.machine(),
        "sets": sets,
        "back_to_back_spread": back_to_back,
        "set_to_set_spread": spreads,
    }
    with open(os.path.join("benchmark", "baseline.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
