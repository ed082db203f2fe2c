#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload <name> --seeds 1-10 [--trace 0|1]
                            [--seconds <s>] [--json <out.json>]

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of that median, which is how BENCHMARK.json's bounds are
judged.  --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail "):
            result["detail"] = json.loads(line[len("detail "):])
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write the per-seed results here")
    args = parser.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, **result})
        values = " ".join("%s=%.4g" % (k, v["value"])
                          for k, v in result["metrics"].items())
        print("seed %d correct=%s attempted=%d failed=%d %s"
              % (seed, result["correct"], result["attempted"],
                 result["failed"], values if not args.trace else ""),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "iqr_share": spread}
        if name in bounds:
            print("%-14s median %-12.6g iqr/median %.4f  (bound %.2f, "
                  "bound/3 %.3f)" % (name, med, spread, bounds[name],
                                     bounds[name] / 3))
        raw = [r.get("detail", {}).get("raw", {}).get(name) for r in runs]
        if None not in raw:
            q1, med, q3 = statistics.quantiles(raw, n=4)
            summary[name].update(raw_median=med, raw_iqr_share=(q3 - q1) / med)
            print("%-14s raw median %-8.6g iqr/median %.4f"
                  % ("", med, (q3 - q1) / med))
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace,
             "seconds": args.seconds, "runs": runs, "summary": summary},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
