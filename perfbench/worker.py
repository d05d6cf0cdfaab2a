"""Child process of the benchmark: qclab's CLI in one fresh interpreter.

    python3 worker.py setup SRC INPUT
        Import qclab.cli from SRC, parse INPUT as the CLI would, and print
        the monotonic clock.  The parent reads the clock before starting
        the process, so the difference is the set-up time every CLI call
        pays.
    python3 worker.py run SPEC
        Make one warm-up call, record the peak RSS it left, then call
        ``qclab.cli.main(argv)`` in a closed loop for SPEC's seconds.  In
        trace mode the loop alternates untraced and traced calls.  After
        each round it runs set-up probes, one after another.  Writes the
        samples to SPEC's result file and the spans next to it.

Only ``sys`` and ``time`` are imported before qclab in the set-up probe,
so the probe times qclab's own import and nothing of the benchmark's.
"""

import sys
import time


def _import_cli(src):
    sys.path.insert(0, src)
    import qclab.cli

    from pathlib import Path
    if not Path(qclab.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"qclab was imported from {qclab.cli.__file__}, not from {src}")
    return qclab.cli


def setup_probe(src, path):
    cli = _import_cli(src)
    cli.parse_inputs(path, cli.io.sniff_kind(path))
    print(repr(time.monotonic()))


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    from pathlib import Path
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record():
    import os
    import platform

    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:   # numpy before 1.25 has no mode argument
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                       if k in os.environ},
    }


def run(spec_path):
    import contextlib
    import gc
    import json
    import os
    import resource
    import subprocess
    import traceback
    from pathlib import Path

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cli = _import_cli(spec["src"])
    import layers
    import spans

    package = [m for n, m in sys.modules.items() if n == "qclab" or n.startswith("qclab.")]
    traced_layers = {name: sys.modules[f"qclab.{name}"] for name in layers.LAYERS}
    tracer = spans.Tracer(counters=layers.COUNTERS)
    out_root = Path(spec["out"])
    calls = []

    def call(traced):
        i = len(calls)
        out = out_root / f"call-{i:03d}"
        argv = spec["argv"] + ["--out", str(out)]
        gc.collect()
        with contextlib.ExitStack() as stack:
            if traced:
                tracer.run = i
                stack.enter_context(tracer.installed(traced_layers, package))
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:
                # the installed CLI would exit with a traceback: a failed call
                traceback.print_exc()
                rc = None
            wall = time.perf_counter() - t0
        calls.append({"index": i, "out": str(out), "rc": rc, "wall_s": wall,
                      "traced": traced, "warmup": i == 0})

    setup = []

    def probe():
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, __file__, "setup", spec["src"], spec["input"]],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        setup.append(float(proc.stdout.strip().splitlines()[-1]) - t0)

    round_kinds = [False, True] if spec["trace"] else [False]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        call(False)     # warm-up: lazy imports and first allocations happen here
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        rounds = 0
        last = 0.0
        while rounds < spec["min_rounds"] or (
                time.perf_counter() - start + last <= spec["seconds"]):
            t0 = time.perf_counter()
            for kind in round_kinds:
                call(kind)
            for _ in range(spec["probes_per_round"]):
                probe()
            last = time.perf_counter() - t0
            rounds += 1
        while len(setup) < spec["min_probes"]:
            probe()

    per_run = []
    for c in calls:
        if c["traced"]:
            run_spans = [s for s in tracer.spans if s.run == c["index"]]
            per_run.append(layers.layer_metrics(run_spans))
    if spec["trace"]:
        tracer.dump(out_root / "spans.jsonl")
    result = {"rss_kb": rss_kb, "calls": calls, "setup_s": setup, "layers": per_run,
              "machine": machine_record()}
    Path(spec["result"]).write_text(json.dumps(result, indent=1), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "setup":
        setup_probe(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3 and sys.argv[1] == "run":
        run(sys.argv[2])
    else:
        sys.exit(__doc__)
