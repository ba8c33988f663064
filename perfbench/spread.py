"""Run the benchmark on several seeds and print each metric's median and
spread (quartile distance over the median).

    python3 perfbench/spread.py --workload sweep --seeds 1-10

Reads ``run_seconds`` from BENCHMARK.json.  Each run's JSON line is also
appended to ``--log`` when given, for later comparison.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--log")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        rounds = " ".join(line.split()[3] for line in proc.stderr.splitlines() if line.startswith("round "))
        print(f"seed {seed}: rounds {rounds} correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{args.workload:10s} {name:36s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
