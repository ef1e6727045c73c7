#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median and the spread (interquartile distance over
median) of its values next to the metric's bound from BENCHMARK.json.
With --held-out S, it also runs seed S and reports how far each metric
lies from the median of the other seeds. Run from the repository root:

    python3 perfbench/check_seeds.py --seeds 1-10 [--workloads a,b] [--held-out 1001]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def run_once(spec, workload, seed, trace=0):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    # The line before the result holds the host facts, among them the share
    # of CPU time the hypervisor stole during the timed loop.
    res["steal_frac"] = json.loads(lines[-2]).get("steal_frac", -1)
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}")
    return res, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--held-out", type=int, default=0)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    ok = True
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            res, wall = run_once(spec, name, seed)
            for k in values:
                values[k].append(res["metrics"][k]["value"])
            print(f"{name} seed {seed} ({wall:.1f} s, steal {res['steal_frac']:.3f}): " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        held = run_once(spec, name, args.held_out)[0] if args.held_out else None
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            verdict = "ok" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "WIDE"
            line = f"  {name:22s} {m['name']:16s} median {med:12.6g} spread {spread:7.4f} bound {m['bound']:.3f} {verdict}"
            if held:
                hv = held["metrics"][m["name"]]["value"]
                off = (hv - med) / med if med else 0.0
                worse = off > 0 if m["better"] == "lower" else off < 0
                fine = m["name"] in ("msgs_per_node", "rounds") or not worse or abs(off) <= m["bound"]
                line += f" held-out {hv:.6g} ({off:+.4f}) {'ok' if fine else 'OUT'}"
                ok &= fine
            ok &= verdict == "ok"
            print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
