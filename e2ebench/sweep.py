#!/usr/bin/env python3
"""Cross-seed sweep of the end-to-end benchmark.

    python3 e2ebench/sweep.py [--seeds 10] [--write-reference]

Runs every workload of BENCHMARK.json once per seed, seeds 1..N, at
run_seconds with tracing off. It prints, per end-to-end metric, the median
and the spread between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.

The raw values go to .bench_build/sweep.json, and each median is compared
with that of e2ebench/reference.json: a median worse than the reference's
by more than the metric's bound fails the sweep. Only results whose host
and build fingerprint match are comparable. --write-reference stores the
sweep as e2ebench/reference.json instead: the spread of final_train_loss
and eval_top1 across seeds is the yardstick for a later change that alters
precision or reduction order.

The exit code is 1 when an output check failed, a spread exceeds a third
of its bound, or a median moved past its bound.
"""

import argparse
import json
import os
import statistics
import sys

import run as bench

REFERENCE = os.path.join(bench.HERE, "reference.json")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def worsening(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    if not old:
        return 0.0
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def compare(spec, sweep, reference):
    """Prints each median's change against the reference; returns False when
    one is worse by more than its bound."""
    if sweep["fingerprint"] != reference["fingerprint"]:
        print("reference.json comes from another host or build; not compared:")
        print("  this sweep:", json.dumps(sweep["fingerprint"], sort_keys=True))
        print("  reference: ", json.dumps(reference["fingerprint"], sort_keys=True))
        return True
    ok = True
    for name, rows in sweep["workloads"].items():
        ref_rows = reference["workloads"].get(name, {})
        print(f"== {name} against reference.json")
        for m in spec["end_to_end"]:
            k = m["name"]
            if k not in rows or k not in ref_rows:
                continue
            w = worsening(m, rows[k]["median"], ref_rows[k]["median"])
            flag = ""
            if w > m["bound"]:
                flag = "  <-- worse than the reference by more than the bound"
                ok = False
            print(f"  {k:20s} median {rows[k]['median']:14.6f}  reference "
                  f"{ref_rows[k]['median']:14.6f}  worse by {w:+7.4f}  "
                  f"bound {m['bound']}{flag}")
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    spec = bench.load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bench.build()

    sweep = {"seeds": list(range(1, args.seeds + 1)), "run_seconds": seconds,
             "workloads": {}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        values, steal = {}, []
        for seed in sweep["seeds"]:
            code, lines = bench.run_once(name, seed, seconds, 0, echo=False)
            if code != 0:
                print(f"{name} seed {seed}: exit code {code}")
                return 1
            for line in lines:
                if line.startswith("cpu steal share"):
                    steal.append(float(line.split()[-1]))
                if line.startswith("fingerprint "):
                    fp = json.loads(line[len("fingerprint "):])
                    sweep["source"] = fp.pop("source")
                    for per_workload in ("workload", "threads", "pool_threads"):
                        fp.pop(per_workload)
                    sweep["fingerprint"] = fp
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: output checks failed")
                ok = False
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {name} ({len(sweep['seeds'])} seeds, {seconds} s runs, "
              f"cpu steal share per run {' '.join(f'{x:.3f}' for x in steal)})")
        rows = {}
        for k in sorted(values):
            med, s = spread(values[k])
            bound = bounds.get(k)
            flag = ""
            # Set-up time is judged by how far its median moves between two
            # sweeps (the reference comparison), not by its spread across
            # seeds: it is a sub-millisecond figure that one scheduling
            # delay can double in a single run.
            if bound is not None and k != "setup_s" and s > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print(f"  {k:20s} median {med:14.6f}  IQR/median {s:7.4f}  "
                  f"bound {bound}{flag}")
            rows[k] = {"median": med, "iqr_share": s, "values": values[k]}
        rows["cpu_steal_share"] = steal
        sweep["workloads"][name] = rows

    if args.write_reference:
        path = REFERENCE
    else:
        path = os.path.join(bench.ROOT, ".bench_build", "sweep.json")
        if os.path.isfile(REFERENCE):
            with open(REFERENCE) as f:
                ok = compare(spec, sweep, json.load(f)) and ok
    with open(path, "w") as f:
        json.dump(sweep, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", os.path.relpath(path, bench.ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
