#!/usr/bin/env python3
"""Runs workloads of BENCHMARK.json over several seeds and prints each
end-to-end metric's median and quartile spread beside its bound.

The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 11] [--workload NAME ...]

Run it from the repository root. Every run's last stdout line is kept in
perfbench/out/spread.jsonl.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    log = pathlib.Path("perfbench/out/spread.jsonl")
    log.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    with log.open("a") as out:
        for workload in workloads:
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                command = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                ]
                run = subprocess.run(command, capture_output=True, text=True, timeout=900)
                result = json.loads(run.stdout.strip().splitlines()[-1])
                out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                if run.returncode != 0 or not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: failed checks\n{run.stderr}", file=sys.stderr)
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
            for spec in bench["end_to_end"]:
                series = values[spec["name"]]
                q1, median, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
                flag = "" if spread < spec["bound"] / 3 else "  <-- above a third of the bound"
                print(f"{workload:16} {spec['name']:20} median {median:14.6g}  "
                      f"spread {spread:6.3f}  bound {spec['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
