"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--traced] [--out FILE]

Runs ``run.py`` once per seed and workload (seed by seed, so a slow
spell of the machine is shared out across workloads), then prints, per
workload and end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
against the metric's bound.  ``--traced`` adds one traced run per
workload on the first seed.  ``--out`` writes everything as one
trajectory entry (``BENCH_<n>.json``).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 180


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record_path = BENCH / "out" / workload / f"seed{seed}-trace{trace}" / "record.json"
    result["record"] = json.loads(record_path.read_text())
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="lo-hi, inclusive")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    seeds, chosen = seed_list(args.seeds), args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in chosen}
    for seed in seeds:
        for w in chosen:
            res = run(w, seed, args.seconds, 0)
            runs[w].append(res)
            print(f"{w} seed={seed} wall={res['wall_s']:.1f}s correct={res['correct']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
                  flush=True)

    entry = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    all_steady = True
    for w in chosen:
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med
            steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            all_steady &= steady
            summary[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1,
                                       "q3": q3, "spread": spread, "values": values}
            print(f"{w:<22} {metric['name']:<12} {med:.6g} {metric['unit']:<5} "
                  f"spread={spread:.4f} bound={metric['bound']} {'ok' if steady else 'WIDE'}")
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        print(f"{w:<22} {'fail_frac':<12} {failed / attempted:.6g} ({failed}/{attempted})")
        entry["workloads"][w] = {
            "end_to_end": summary,
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "op_percentiles": [r["record"]["op_percentile"] for r in runs[w]],
        }
        if args.traced:
            res = run(w, seeds[0], args.seconds, 1)
            entry["workloads"][w]["per_layer"] = {k: m["value"] for k, m in res["metrics"].items()}
            entry["workloads"][w]["absent"] = res["record"]["absent"]
    walls = [r["wall_s"] for w in chosen for r in runs[w]]
    entry["mean_run_wall_s"] = statistics.mean(walls)
    print(f"{len(walls)} runs, mean wall time {entry['mean_run_wall_s']:.1f} s")
    first = runs[chosen[0]][0]["record"]
    entry["environment"] = first["environment"]
    entry["source_lines"] = first["source_lines"]
    if args.out:
        args.out.write_text(json.dumps(entry, indent=1) + "\n")
    print("all spreads below a third of their bounds" if all_steady else "some spreads are wide")
    return 0


if __name__ == "__main__":
    sys.exit(main())
