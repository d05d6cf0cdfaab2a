import json
import os
import stat
from unittest import mock

import numpy as np
import pytest

from qclab import io as qio
from qclab.cli import (
    RunConfig,
    _counting_spot_check,
    emit_outputs,
    main,
    parse_inputs,
    run_pipeline,
)
from qclab.diffraction import PointMeasure
from qclab.errors import ParseError, StageError

from conftest import cos_sum, lattice_zeroset, union_zeroset


@pytest.fixture()
def cos_csv(tmp_path):
    path = tmp_path / "cos.csv"
    qio.write_expsum(cos_sum(), path)
    return str(path)


class TestParseInputs:
    def test_expsum_roundtrip(self, cos_csv):
        f = parse_inputs(cos_csv, "expsum")
        assert f.terms() == [(-0.5, 0.5 + 0j), (0.5, 0.5 + 0j)]

    def test_zeroset_roundtrip(self, tmp_path):
        A = lattice_zeroset(0.5, 1.0, 10)
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(A, path)
        back = parse_inputs(str(path), "zeroset")
        assert back.window == A.window
        assert np.array_equal(back.points, A.points)

    def test_duplicate_gamma_rows_summed(self, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("gamma,re,im\n0.0,1.0,0.0\n1.0,0.5,0.0\n1.0,0.25,0.0\n")
        with pytest.warns(UserWarning, match="duplicate"):
            mu = parse_inputs(str(path), "measure")
        assert mu.mass_at(1.0) == pytest.approx(0.75)

    def test_near_duplicate_gamma_rows_chain_merged(self, tmp_path):
        # consecutive gaps of 6e-10 chain all three rows into one spectral
        # point, the rule canonicalize applies to exponential sums
        path = tmp_path / "mu.csv"
        path.write_text("gamma,re,im\n0.0,1.0,0.0\n1.0,0.5,0.0\n"
                        "1.0000000006,0.25,0.0\n1.0000000012,0.125,0.0\n")
        with pytest.warns(UserWarning, match="duplicate"):
            mu = parse_inputs(str(path), "measure")
        assert mu.d == 1.0
        assert len(mu) == 1
        assert mu.masses[0] == pytest.approx(0.875)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega,real,imag\n0.0,1.0,0.0\n")
        with pytest.raises(ParseError):
            parse_inputs(str(path), "expsum")

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega,re,im\n0.0,1.0,0.0\nx,y,z\n")
        with pytest.raises(ParseError) as exc:
            parse_inputs(str(path), "expsum")
        assert exc.value.line == 3

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega,re,im\nnan,1.0,0.0\n")
        with pytest.raises(ParseError):
            parse_inputs(str(path), "expsum")

    def test_measure_roundtrip_carries_density(self, tmp_path):
        mu = PointMeasure(2.5, np.array([-1.0, 1.0]),
                          np.array([0.5 - 0.25j, 0.5 + 0.25j]))
        path = tmp_path / "mu.csv"
        qio.write_measure(mu, path)
        back = parse_inputs(str(path), "measure")
        assert back.d == 2.5
        assert back.mass_at(1.0) == pytest.approx(0.5 + 0.25j)
        assert back.mass_at(-1.0) == pytest.approx(0.5 - 0.25j)

    @staticmethod
    def _zeroset_file(tmp_path, kind):
        rng = np.random.default_rng(3)
        if kind == "10k":
            pts = rng.standard_normal(10_000) * 10.0 ** rng.integers(-300, 300, 10_000)
            pts[:5] = [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
            rows = [f"{float(p)!r},{m}" for p, m in zip(pts, rng.integers(1, 4, pts.size))]
        else:
            rows = ["0.5,1", "-1.25,2", "3.0,1.0"]
        if kind == "blank":
            rows[1:1] = ["", ""]
            rows.append("")
        if kind == "quoted":
            rows[1] = '"-1.25",2'
        eol = "\r\n" if kind == "crlf" else "\n"
        path = tmp_path / "zeros.csv"
        path.write_bytes(eol.join(["point,multiplicity"] + rows + [""]).encode())
        path.with_suffix(".json").write_text('{"window": [-2.0, 4.0]}')
        return path

    @pytest.mark.parametrize("kind", ["10k", "crlf", "blank", "quoted"])
    def test_zeroset_fast_path_equals_row_parser(self, tmp_path, kind):
        path = self._zeroset_file(tmp_path, kind)
        assert (qio._zeroset_table(path) is None) == (kind == "quoted")
        fast = parse_inputs(str(path), "zeroset")
        with mock.patch.object(qio, "_zeroset_table", lambda path: None):
            rows = parse_inputs(str(path), "zeroset")
        assert fast.window == rows.window
        assert fast.points.tobytes() == rows.points.tobytes()
        assert fast.mults.dtype == rows.mults.dtype
        assert np.array_equal(fast.mults, rows.mults)

    @pytest.mark.parametrize("body, line", [
        ("0.5,1\n1.0,1\n1.5,2.5\n", 4),
        ("0.5,1\nnan,1\n1.5,1\n", 3),
        ("0.5,1\n1e400,1\n", 3),
    ])
    def test_zeroset_parse_error_line(self, tmp_path, body, line):
        path = tmp_path / "zeros.csv"
        path.write_text("point,multiplicity\n" + body)
        with pytest.raises(ParseError) as exc:
            parse_inputs(str(path), "zeroset")
        assert exc.value.line == line


class TestRunPipeline:
    def test_analyze_cos(self, cos_csv):
        cfg = RunConfig(command="analyze", input_path=cos_csv,
                        window=(-60.0, 60.0), T=50.0)
        rep = run_pipeline(cfg)
        stages = rep.summary["stages"]
        assert stages["apset"]["d"] == pytest.approx(1.0, abs=0.01)
        agree = stages["diffraction"]["agreement"]
        assert agree["max_atom_difference"] < 0.01
        assert stages["reconstruct"]["roundtrip"]["max_deviation"] < 1e-6
        assert stages["reconstruct"]["g"]["verdict"] == "bounded"

    def test_diffract_on_zeroset_is_bohr_only(self, tmp_path):
        A = lattice_zeroset(0.5, 1.0, 300)
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(A, path)
        cfg = RunConfig(command="diffract", input_path=str(path),
                        window=(-300.0, 300.0), T=250.0)
        rep = run_pipeline(cfg)
        dstage = rep.summary["stages"]["diffraction"]
        assert dstage["route"] == "bohr-only"
        assert dstage["logderiv"] is None
        assert dstage["bohr"]["d"] == pytest.approx(1.0, abs=0.02)

    def test_t3_budget_stage_error(self, tmp_path):
        path = tmp_path / "mu.csv"
        mu = PointMeasure(1.0, np.array([1e-7]), np.array([1.0 + 0j]))
        qio.write_measure(mu, path)
        cfg = RunConfig(command="reconstruct", input_path=str(path), t3_budget=1000.0)
        with pytest.warns(UserWarning):
            with pytest.raises(StageError) as exc:
                run_pipeline(cfg)
        assert exc.value.stage == "reconstruct/log_series"


class TestSymmetricScanGrid:
    """The scan grid is k * step for |k| <= round(cutoff / step): exact +-
    pairs and 0, also for steps like 0.02 that are not dyadic."""

    def test_diffract_grid_atoms_are_exact_conjugate_pairs(self, tmp_path):
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(union_zeroset(300), path)
        out = tmp_path / "out"
        assert main(["diffract", "--input", str(path), "--grid", "0.02",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        # sum |b|/gamma over 0 < gamma < 1; the first dual atom is at 1
        assert doc["stages"]["diffraction"]["growth"]["t3_value"] == 0.0
        rows = np.loadtxt(out / "measure.csv", delimiter=",", skiprows=2)
        atoms = {g: complex(re, im) for g, re, im in rows}
        assert 1.0 in atoms
        for g, b in atoms.items():
            assert atoms[-g] == b.conjugate(), g

    def test_analyze_grid_and_log_atoms_coincide(self, cos_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--input", cos_csv, "--window=-60.1,60.1", "--T", "50",
                     "--cutoff", "10", "--grid", "0.02", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        # k for 1 <= |k| <= 10, each once: no grid point sits beside a log atom
        assert doc["stages"]["diffraction"]["bohr"]["atom_count"] == 20
        plot = dict(np.loadtxt(out / "plot_poisson_vs_T.csv", delimiter=",", skiprows=1))
        assert plot[50.0] == 0.0

    def test_grid_point_beside_a_log_atom_is_merged_into_it(self, tmp_path):
        # the log atoms of cos(pi z / 3) sit at k/3, so 9.0 of the grid lies
        # 1.8e-15 from the atom 8.999999999999998: one column, one atom
        path = tmp_path / "cos3.csv"
        qio.write_expsum(cos_sum(1.0 / 6.0), path)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--window=-181.1,181.1", "--T", "150",
                     "--cutoff", "10", "--grid", "0.05", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        # k/3 for 1 <= |k| <= 29 and 30/3 at the cutoff, both signs
        assert doc["stages"]["diffraction"]["bohr"]["atom_count"] == 60


class TestCountingSpotCheck:
    @staticmethod
    def _loop(A, k2, rng, trials):
        # reference: one trial at a time, scalar draws and searches
        lo, hi = A.window
        e = A.expand()
        violations = 0
        for _ in range(trials):
            h = float(rng.uniform(0.01, (hi - lo) / 4.0))
            x1, x2 = rng.uniform(lo, hi - h, 2)
            c1 = int(np.searchsorted(e, x1 + h) - np.searchsorted(e, x1))
            c2 = int(np.searchsorted(e, x2 + h) - np.searchsorted(e, x2))
            if abs(c1 - c2) > k2:
                violations += 1
        return violations

    @pytest.mark.parametrize("k2", [0, 1, 2])
    def test_same_draws_and_count_as_the_loop(self, k2):
        A = union_zeroset(200)
        got = _counting_spot_check(A, k2, np.random.default_rng(7), 2000)
        assert got == self._loop(A, k2, np.random.default_rng(7), 2000)
        if k2 < 2:
            assert got > 0


class TestEmitOutputs:
    def test_analyze_writes_declared_files(self, cos_csv, tmp_path):
        cfg = RunConfig(command="analyze", input_path=cos_csv,
                        window=(-60.0, 60.0), T=50.0)
        rep = run_pipeline(cfg)
        out = tmp_path / "out"
        emit_outputs(rep, out)
        for name in ("report.json", "zeros.csv", "zeros.json", "measure.csv",
                     "plot_g_sup.csv", "plot_m_of_s.csv", "plot_poisson_vs_T.csv"):
            assert (out / name).exists(), name
        doc = json.loads((out / "report.json").read_text())
        assert doc["schema"] == 1
        assert doc["config"]["tolerances"]["freq_tol"] == 1e-9


class TestMainExitCodes:
    def test_success_and_determinism(self, cos_csv, tmp_path):
        args = ["analyze", "--input", cos_csv, "--window=-60,60", "--T", "50",
                "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_usage_error_missing_input(self):
        assert main(["analyze", "--input", "/nonexistent.csv"]) == 1

    def test_usage_error_bad_window(self, cos_csv):
        assert main(["analyze", "--input", cos_csv, "--window", "oops"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--T", "nan"), ("--T", "0"), ("--grid", "0"), ("--grid", "-1"),
        ("--cutoff", "nan"), ("--cutoff", "inf"), ("--eps", "nan"),
        ("--height", "nan"), ("--height", "-inf"),
    ])
    def test_usage_error_bad_number(self, cos_csv, tmp_path, flag, value):
        out = tmp_path / "out"
        assert main(["analyze", "--input", cos_csv, "--window=-10,10",
                     f"{flag}={value}", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("sidecar", [
        '{"win": [0, 3]}', "not json", '{"window": [3, 0]}', '{"window": [0, NaN]}',
        '{"window": [0]}', '{"window": 3}', "[0, 3]",
    ])
    def test_bad_zeroset_sidecar_is_a_parse_error(self, tmp_path, sidecar):
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(lattice_zeroset(0.5, 1.0, 10), path)
        path.with_suffix(".json").write_text(sidecar, encoding="utf-8")
        assert main(["apset", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["error"]["stage"] == "parse"
        assert doc["error"]["type"] == "ParseError"
        assert "zeros.json" in doc["error"]["message"]

    def test_stage_error_exit_two(self, tmp_path):
        path = tmp_path / "mu.csv"
        mu = PointMeasure(1.0, np.array([1e-7]), np.array([1.0 + 0j]))
        qio.write_measure(mu, path)
        with pytest.warns(UserWarning):
            code = main(["reconstruct", "--input", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["error"]["stage"] == "reconstruct/log_series"

    def test_overflow_is_a_stage_error(self, cos_csv, tmp_path):
        code = main(["analyze", "--input", cos_csv, "--window=-10,10", "--T", "10",
                     "--height", "300", "--out", str(tmp_path / "out")])
        assert code == 2
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["error"]["stage"] == "diffraction/logderiv"
        assert doc["error"]["type"] == "OverflowError"

    def test_readonly_output_exit_one(self, cos_csv, tmp_path):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(stat.S_IRUSR | stat.S_IXUSR)
        if os.access(str(ro), os.W_OK):
            pytest.skip("cannot drop write permission (running as privileged user)")
        code = main(["zeros", "--input", cos_csv, "--window=-20,20",
                     "--out", str(ro / "sub")])
        assert code == 1
