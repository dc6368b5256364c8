#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload in BENCHMARK.json it makes one untraced run for each
of seeds 1 to 10 and one traced run for each of seeds 1 to 3. It prints
each end-to-end metric's median, quartiles and quartile spread as a share
of the median (the quartiles as ``statistics.quantiles(values, n=4)``
gives them) against the metric's bound. Beside the throughput and latency
figures, which are taken over the window's low-steal slices, it prints
the same figures' spread over the whole window, so the filter's effect
stays on record. It also prints the tracing overhead: the traced
end-to-end medians minus the untraced ones. With ``--out`` it
writes all of that, the per-layer metrics of the traced runs included, as
JSON.

    python3 perfbench/spread.py --out perfbench/baseline.json

Run it from the repository root; it reads the command, the run length and
the metric bounds from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:3]


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("traced_end_to_end", "whole_window"):
            tagged[tag] = json.loads(rest)
    return result, tagged


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def summary(values):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else None,
        "samples": len(values),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="where to write the JSON report")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "seeds": SEEDS, "traced_seeds": TRACED_SEEDS, "workloads": {}}
    worst = 0.0
    for name in (w["name"] for w in bench["workloads"]):
        e2e, whole = {}, {}
        attempted = []
        for seed in SEEDS:
            result, tagged = run(bench["command"], name, seed, bench["run_seconds"], 0)
            attempted.append(result["attempted"])
            if result["failed"]:
                print(f"{name} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for metric, m in result["metrics"].items():
                e2e.setdefault(metric, []).append(m["value"])
            for metric, m in tagged["whole_window"].items():
                whole.setdefault(metric, []).append(m["value"])
        entry = {"attempted": attempted,
                 "end_to_end": {k: summary(v) for k, v in e2e.items()},
                 "whole_window": {k: summary(v) for k, v in whole.items()}}
        print(f"{name}:")
        for metric, s in entry["end_to_end"].items():
            share = s["spread"] / bounds[metric]
            worst = max(worst, share)
            line = (f"  {metric:<16} median {s['median']:>12.3f}  spread {s['spread']:.4f}"
                    f"  bound {bounds[metric]}  ({share:.2f} of bound)")
            if metric in entry["whole_window"]:
                line += f"  whole window: spread {entry['whole_window'][metric]['spread']:.4f}"
            print(line)
        layers, traced_e2e = {}, {}
        for seed in TRACED_SEEDS:
            result, tagged = run(bench["command"], name, seed, bench["run_seconds"], 1)
            for metric, m in result["metrics"].items():
                layers.setdefault(metric, []).append(m["value"])
            for metric, m in tagged["traced_end_to_end"].items():
                traced_e2e.setdefault(metric, []).append(m["value"])
        if layers:
            entry["per_layer"] = {k: summary(v) for k, v in layers.items()}
            entry["tracing_overhead"] = {
                k: statistics.median(v) - entry["end_to_end"][k]["median"]
                for k, v in traced_e2e.items()
            }
            print("  tracing overhead (traced − untraced median): " + ", ".join(
                f"{k} {v:+.4g}" for k, v in entry["tracing_overhead"].items()))
        report["workloads"][name] = entry
    print(f"largest spread: {worst:.2f} of its bound")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
