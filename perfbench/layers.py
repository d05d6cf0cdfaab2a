"""qclab's layers as the tracer sees them: which modules are traced, what
each span counts, and how one run's spans become the per-layer metrics.

Metric names are ``<layer>.<function>.<stat>``.  ``s`` is span duration,
``self_s`` is duration minus the part covered by child spans, ``calls``
and ``failed`` count spans, and any other stat is a counter recorded by
COUNTERS or a count of child spans (``multiplies``).  A layer that a
workload does not reach reads 0.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import spans

LAYERS = ("wiener", "zeros", "apset", "diffraction", "reconstruct", "io", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(x) -> int:
    return int(x.size) if hasattr(x, "size") else len(x) if hasattr(x, "__len__") else 1


def _bytes(path, *extra_suffixes) -> int:
    p = Path(path)
    return os.path.getsize(p) + sum(os.path.getsize(p.with_suffix(s)) for s in extra_suffixes)


COUNTERS = {
    "wiener.evaluate": lambda a, k, r: {"points": _size(_arg(a, k, 1, "z"))},
    "wiener.multiply": lambda a, k, r: {
        "raw_terms": len(_arg(a, k, 0, "f")) * len(_arg(a, k, 1, "g")),
        "kept_terms": len(r),
    },
    "zeros.find_real_zeros": lambda a, k, r: {"zeros": r.count},
    "diffraction.logderiv_measure": lambda a, k, r: {"atoms": int(r.positive()[0].size)},
    "diffraction.bohr_scan": lambda a, k, r: {"grid_points": _size(_arg(a, k, 1, "grid"))},
    "io.write_expsum": lambda a, k, r: {"bytes": _bytes(_arg(a, k, 1, "path"))},
    "io.write_measure": lambda a, k, r: {"bytes": _bytes(_arg(a, k, 1, "path"))},
    "io.write_zeroset": lambda a, k, r: {"bytes": _bytes(_arg(a, k, 1, "path"), ".json")},
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in BENCHMARK.json's order."""
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer"]}

_STATS = {"calls", "s", "self_s", "failed"}


def _stat(stats: dict, name: str, stat: str):
    st = stats.get(name)
    if st is None:
        return 0
    if stat in _STATS:
        return getattr(st, stat)
    if stat == "multiplies":
        return st.children["wiener.multiply"]
    return st.counts[stat]


def _sum(stats: dict, prefixes, stat: str):
    return sum(getattr(st, stat) if stat in _STATS else st.counts[stat]
               for name, st in stats.items() if name.startswith(prefixes))


def _cli_self_s(run_spans) -> float:
    # run_pipeline time outside every layer span: the self time of cli
    # spans at or below run_pipeline
    by_id = {s.id: s for s in run_spans}
    own = spans.self_times(run_spans)
    return sum(own[s.id] for s in run_spans if s.name.startswith("cli.") and (
        s.name == "cli.run_pipeline"
        or any(a.name == "cli.run_pipeline" for a in spans.ancestors(s, by_id))))


def layer_metrics(run_spans) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one run's spans."""
    stats = spans.summarize(run_spans)
    boxes = _stat(stats, "zeros.count_zeros_rectangle", "calls")
    found = _stat(stats, "zeros.find_real_zeros", "zeros")
    derived = {
        "zeros.boxes_per_zero": boxes / found if found else 0.0,
        "io.read.s": _sum(stats, ("io.read_", "io.sniff_kind"), "s"),
        "io.write.s": _sum(stats, ("io.write_",), "s"),
        "io.bytes_written": _sum(stats, ("io.write_",), "bytes"),
        "cli.self_s": _cli_self_s(run_spans),
    }
    return {name: derived[name] if name in derived else _stat(stats, *name.rsplit(".", 1))
            for name in per_layer_units() if name != "trace.overhead_s"}
