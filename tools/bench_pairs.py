"""Alternated benchmark pairs between two checkouts, summarized as one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --workload recover-below \
        --seeds 911 912 913 --out BENCH_<n>.json

For each seed, runs ``bench/run.py --workload W --seed S --trace 0`` once in
each checkout, for BENCHMARK.json's ``run_seconds``, alternating which side
goes first, and reads the JSON result line that each run prints last. The output keeps, per workload and per
end-to-end metric of BENCHMARK.json: each side's runs, median and quartiles,
and how many pairs the change won. An existing output file keeps its other
workloads, so workloads can be run one at a time. Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n{out.stderr}")
    return json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def src_lines(checkout: str) -> int:
    total = 0
    for root, _, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def compare(runs: dict, metrics: list) -> dict:
    """Per metric: each side's summary and the pairs the change won."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        sides = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        entry = {"unit": spec["unit"], "better": spec["better"]}
        entry.update({s: summary(sides[s]) for s in SIDES})
        entry["pairs_won"] = won
        entry["pairs"] = len(sides["parent"])
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write or extend")
    args = ap.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.update({
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "command": "bench/run.py --trace 0, one process per run, sides alternated per pair",
        "src_lines": {s: src_lines(checkouts[s]) for s in SIDES},
    })
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        runs = {s: [] for s in SIDES}
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_bench(checkouts[side], workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{s} {runs[s][-1]['metrics']['ops_per_s']['value']:.4g} ops/s" for s in SIDES),
                file=sys.stderr)
        workloads[workload] = {
            "seconds": seconds,
            "seeds": args.seeds,
            "attempted": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
            "failed": {s: [r["failed"] for r in runs[s]] for s in SIDES},
            "correct": {s: [r["correct"] for r in runs[s]] for s in SIDES},
            "metrics": compare(runs, bench["end_to_end"]),
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
