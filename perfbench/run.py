"""Benchmark of the qclab CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run:

1. writes the workload's input for the seed (workloads.py);
2. runs ``qclab.cli.main(argv)`` in a worker process: one warm-up call,
   whose peak RSS is reported, then a closed loop of rounds for S
   seconds.  A round is one untraced call (--trace 0) or an untraced and
   a traced call (--trace 1), followed by set-up probes: fresh
   interpreters that ``import qclab.cli`` and parse the input, the part
   of every CLI call that comes before the work.  Spreading the probes
   over the run lets set-up and the calls see the same machine;
3. checks every call's artifacts against the closed forms (checks.py).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` over all calls, and the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  The lines before it
print each metric by name with its unit, plus the machine record.
Exits 1 without a result when the run cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_outputs
from layers import per_layer_units
from workloads import WORKLOADS, make_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

PROBES_PER_ROUND = 2    # set-up probes after each round of calls
MIN_PROBES = 9          # set-up probes per run even when S is short
MIN_ROUNDS = 3          # timed rounds per run even when S is short
DEADLINE_S = 170.0      # a run ends within this, or fails


class BenchError(Exception):
    pass


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 1.0:
        raise BenchError(f"run exceeded its {DEADLINE_S:.0f} s deadline")
    return left


def run_worker(spec: dict, t_start: float) -> dict:
    spec_path = Path(spec["out"]) / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "run", str(spec_path)],
                          timeout=_remaining(t_start), cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _median_or_inf(values: list[float]) -> float:
    return statistics.median(values) if values else float("inf")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t_start = time.monotonic()
    if not (SRC / "qclab" / "cli.py").is_file():
        raise BenchError(f"no qclab sources under {SRC}")
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inst = make_instance(WORKLOADS[workload], seed, work / "input")

    spec = {"src": str(SRC), "argv": inst.argv(), "input": str(inst.input_path),
            "out": str(work), "result": str(work / "worker.json"), "seconds": seconds,
            "trace": trace, "min_rounds": MIN_ROUNDS if not trace else 1,
            "probes_per_round": PROBES_PER_ROUND, "min_probes": MIN_PROBES}
    res = run_worker(spec, t_start)
    setup = res["setup_s"]

    problems = []
    atoms, spurious = [], []
    walls = {False: [], True: []}
    failed = 0
    for c in res["calls"]:
        ok = c["rc"] == 0
        if ok:
            v = check_outputs(inst, c["out"])
            ok = v.ok
            problems += [f"call {c['index']}: {p}" for p in v.problems]
            atoms.append(v.atoms_emitted)
            spurious.append(v.spurious_atoms)
        else:
            problems.append(f"call {c['index']}: exit code {c['rc']}")
        failed += not ok
        if not c["warmup"]:
            walls[c["traced"]].append(c["wall_s"] if ok else float("inf"))
        if ok:
            shutil.rmtree(c["out"])
    attempted = len(res["calls"])
    wall = _median_or_inf(walls[False])

    e2e = {
        "wall_s": (wall, "s", f"median of {len(walls[False])} untraced calls"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters between the calls"),
        "peak_rss_mb": (res["rss_kb"] / 1024.0, "MB", "worker after one call, 1 MB = 2^20 B"),
        "atoms_emitted": (statistics.median(atoms) if atoms else 0, "count",
                          "positive atoms in measure.csv"),
    }
    info = {
        "fail_ratio": (failed / attempted, "1", f"{failed} of {attempted} calls"),
        "spurious_atoms": (statistics.median(spurious) if spurious else 0, "count",
                           "positive atoms at no dual-lattice point"),
    }
    layer = {}
    if trace:
        for name, unit in per_layer_units().items():
            if name != "trace.overhead_s":
                layer[name] = (statistics.median(r[name] for r in res["layers"]), unit, "")
        overhead = _median_or_inf(walls[True]) - wall
        layer["trace.overhead_s"] = (overhead, "s", "median traced - median untraced wall")
    bad = [k for group in (e2e, layer) for k, (v, _, _) in group.items() if not math.isfinite(v)]
    if bad:
        raise BenchError(f"no finite value for {', '.join(bad)}:\n  " + "\n  ".join(problems[:20]))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "window": list(inst.window), "correct": not problems, "attempted": attempted,
        "failed": failed, "problems": problems, "end_to_end": e2e, "info": info,
        "per_layer": layer, "machine": res["machine"],
        "samples": {"wall_s": walls[False], "traced_wall_s": walls[True], "setup_s": setup},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        r = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    (WORK / args.workload / "result.json").write_text(json.dumps(r, indent=1), encoding="utf-8")

    print(f"workload {r['workload']}  seed {r['seed']}  window {r['window']}  "
          f"trace {int(r['trace'])}  calls {r['attempted']}")
    for group in ("end_to_end", "info", "per_layer"):
        for name, (value, unit, note) in r[group].items():
            print(f"  {name:40s} {value:>14.6g} {unit:6s} {note}")
    for line in r["problems"]:
        print(f"  check failed: {line}")
    print(f"machine {json.dumps(r['machine'], sort_keys=True)}")
    metrics = r["per_layer"] if r["trace"] else r["end_to_end"]
    print(json.dumps({
        "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
