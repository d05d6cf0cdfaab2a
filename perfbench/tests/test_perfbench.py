"""Self-tests of the benchmark: tracer, traced-run transparency, checker."""

import shutil
import sys
import textwrap
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
from checks import check_outputs  # noqa: E402
from workloads import WORKLOADS, distance_to_zero, make_instance  # noqa: E402

import qclab  # noqa: E402
import qclab.cli  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def _module(name, source, **names):
    mod = types.ModuleType(name)
    mod.__dict__.update(names)
    exec(textwrap.dedent(source), mod.__dict__)
    return mod


def test_self_time_and_parent_ids_on_nested_calls():
    clock = FakeClock()
    a = _module("synth_a", """
        def inner():
            clock.tick(2.0)

        def outer():
            clock.tick(1.0)
            inner()
            inner()
            clock.tick(0.5)

        def broken():
            inner()
            raise ValueError("boom")
    """, clock=clock)
    # b binds inner under its own name, as `from .a import inner` would
    b = _module("synth_b", "def caller():\n    inner()\n", inner=a.inner)
    original_inner = a.inner

    tracer = spans.Tracer(clock=clock)
    with tracer.installed({"a": a}, [a, b]):
        a.outer()
        tracer.run = 1
        b.caller()
        with pytest.raises(ValueError):
            a.broken()
    assert a.inner is original_inner and b.inner is original_inner

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["a.outer"]
    inners = by_name["a.inner"]
    assert [s.parent for s in inners] == [outer.id, outer.id, None, by_name["a.broken"][0].id]
    assert outer.parent is None and outer.run == 0 and inners[2].run == 1
    assert by_name["a.broken"][0].error == "ValueError"

    run0 = [s for s in tracer.spans if s.run == 0]
    own = spans.self_times(run0)
    assert own[outer.id] == pytest.approx(1.5)
    stats = spans.summarize(run0)
    assert stats["a.outer"].s == pytest.approx(5.5)
    assert stats["a.outer"].self_s == pytest.approx(1.5)
    assert stats["a.outer"].children["a.inner"] == 2
    assert stats["a.inner"].calls == 2 and stats["a.inner"].self_s == pytest.approx(4.0)


def small(name, **changes):
    return replace(WORKLOADS[name], **changes)


def run_cli(inst, out, tracer=None):
    argv = inst.argv() + ["--out", str(out)]
    if tracer is None:
        return qclab.cli.main(argv)
    package = [m for n, m in sys.modules.items() if n == "qclab" or n.startswith("qclab.")]
    traced = {name: sys.modules[f"qclab.{name}"] for name in layers.LAYERS}
    with tracer.installed(traced, package):
        return qclab.cli.main(argv)


@pytest.mark.parametrize("workload", [
    small("cos-zeros", half=40.0),
    small("three-deep", half=6.0, cutoff=10.0),
    small("zeroset-diffract", half=120.0, T=100.0),
], ids=lambda w: w.name)
def test_traced_run_writes_identical_artifacts(workload, tmp_path):
    inst = make_instance(workload, 3, tmp_path / "input")
    tracer = spans.Tracer(counters=layers.COUNTERS)
    assert run_cli(inst, tmp_path / "plain") == 0
    assert run_cli(inst, tmp_path / "traced", tracer) == 0

    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "traced").iterdir())
    assert "report.json" in plain
    for name in plain:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()

    metrics = layers.layer_metrics(tracer.spans)
    assert set(layers.per_layer_units()) - set(metrics) == {"trace.overhead_s"}
    assert metrics["cli.run_pipeline.s"] > 0 and metrics["io.bytes_written"] > 0
    assert (metrics["zeros.find_real_zeros.zeros"] > 0) == (workload.command == "analyze")


@pytest.fixture(scope="module")
def cos_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cos")
    inst = make_instance(small("cos-zeros", half=40.0), 5, base / "input")
    assert run_cli(inst, base / "out") == 0
    return inst, base / "out"


def _mutated(src, dst, name, edit):
    shutil.copytree(src, dst)
    path = dst / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return dst


def test_checker_accepts_the_program_output(cos_run):
    inst, out = cos_run
    v = check_outputs(inst, out)
    assert v.ok, v.problems
    assert v.atoms_emitted == 9 and v.spurious_atoms == 0


def test_checker_rejects_a_zero_moved_by_1e_6(cos_run, tmp_path):
    inst, out = cos_run

    def move(lines):
        p, m = lines[7].split(",")
        lines[7] = f"{float(p) + 1e-6!r},{m}"
        return lines

    v = check_outputs(inst, _mutated(out, tmp_path / "moved", "zeros.csv", move))
    assert not v.ok and any(p.startswith("zeros:") for p in v.problems)


def test_checker_rejects_a_deleted_true_atom(cos_run, tmp_path):
    inst, out = cos_run

    def drop(lines):
        return [ln for ln in lines if not ln.startswith("3.0,")]

    v = check_outputs(inst, _mutated(out, tmp_path / "dropped", "measure.csv", drop))
    assert not v.ok and any("none at 3" in p for p in v.problems)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for w in WORKLOADS.values():
        first = make_instance(w, 7, tmp_path / w.name / "a")
        again = make_instance(w, 7, tmp_path / w.name / "b")
        other = make_instance(w, 8, tmp_path / w.name / "c")
        assert first.input_path.read_bytes() == again.input_path.read_bytes()
        assert first.window == again.window != other.window
        assert min(distance_to_zero(x, w.scales) for x in first.window) > 0.01

