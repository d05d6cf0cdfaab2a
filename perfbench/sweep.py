"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --save perfbench/work/set1.json
    python3 perfbench/sweep.py --seeds 11-20 --compare perfbench/work/set1.json

For every workload and every end-to-end metric it prints the median,
the quartiles and the spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its
spread is within its bound in BENCHMARK.json.  ``--compare`` also prints
how far each median moved against a saved set, signed so that positive
is worse; two sets of the same code agree when no median moved by more
than its bound in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", file=sys.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--save", help="write the collected values to this JSON file")
    p.add_argument("--compare", help="a file written by --save to compare medians with")
    args = p.parse_args(argv)

    meta = {m["name"]: m for m in bench["end_to_end"]}
    old = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else {}
    values: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads.split(","):
        per_metric = values.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in ("wall_s", "setup_s")), file=sys.stderr)

        print(f"{workload}  ({len(parse_seeds(args.seeds))} seeds, {args.seconds} s each)")
        print(f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}" + ("  drift" if old else ""))
        for name, vals in per_metric.items():
            med, q1, q3, sp = spread(vals)
            bound = meta[name]["bound"]
            line = (f"  {name:40s} {meta[name]['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{sp:7.3f} {bound:>6}")
            if sp > bound:
                line += "  SPREAD OVER BOUND"
            elif sp > bound / 3:
                line += "  spread over bound/3"
            prev = old.get(workload, {}).get(name)
            if prev:
                pmed = statistics.median(prev)
                sign = 1.0 if meta[name]["better"] == "lower" else -1.0
                drift = sign * (med - pmed) / pmed if pmed else 0.0
                line += f"  {drift:+.3f}"
                if abs(drift) > bound:
                    line += "  MOVED MORE THAN BOUND"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
