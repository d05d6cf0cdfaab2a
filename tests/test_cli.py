import codecs
import csv
import io as stdio
import itertools
import json
import math
import os
import re
import stat
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qclab
from qclab import io as qio
from qclab import diffraction, reconstruct, wiener, zeros
from qclab.cli import (
    RunConfig,
    _counting_spot_check,
    _roundtrip,
    build_parser,
    emit_outputs,
    main,
    parse_inputs,
    run_pipeline,
)
from qclab.diffraction import PointMeasure
from qclab.errors import ConvergenceError, ParseError, StageError
from qclab.zeros import ZeroSet

from conftest import cos_sum, lattice_measure, lattice_zeroset, union_zeroset


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

    def test_writers_write_what_csv_writer_writes(self, tmp_path):
        # signed zeros, subnormals, the extremes and multiplicities above 1
        x = np.array([-1.7976931348623157e308, -1.0 / 3.0, -2.5e-310, -0.0, 0.0, 5e-324,
                      2.2250738585072014e-308, 0.1, 1e22])
        A = ZeroSet((-2.0, 2.0), x, np.arange(1, x.size + 1))
        mu = PointMeasure(5e-324, x[x != 0], x[x != 0][::-1] + 1j * x[x != 0])
        f = wiener._make(x, x[::-1] - 1j * x)

        def csv_bytes(header, rows):
            text = stdio.StringIO()
            wr = csv.writer(text)
            wr.writerow(header)
            wr.writerows(rows)
            return text.getvalue().encode()

        for write, obj, header, rows in (
            (qio.write_zeroset, A, qio.ZEROSET_HEADER,
             [[repr(float(p)), int(m)] for p, m in zip(A.points, A.mults)]),
            (qio.write_measure, mu, qio.MEASURE_HEADER,
             [[repr(0.0), repr(float(mu.d)), repr(0.0)]]
             + [[repr(float(g)), repr(b.real), repr(b.imag)] for g, b in mu.atoms()]),
            (qio.write_expsum, f, qio.EXPSUM_HEADER,
             [[repr(float(w)), repr(q.real), repr(q.imag)] for w, q in f.terms()]),
        ):
            path = tmp_path / "out.csv"
            write(obj, path)
            assert path.read_bytes() == csv_bytes(header, rows), write.__name__

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
        # the window holds every point: the 10k points span the float range
        window = "-1.7976931348623157e308, 1.7976931348623157e308" if kind == "10k" else "-2.0, 4.0"
        path.with_suffix(".json").write_text(f'{{"window": [{window}]}}')
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

    def test_zeroset_points_on_the_sidecar_window_ends_accepted(self, tmp_path):
        A = lattice_zeroset(0.0, 1.0, 10)
        assert A.points[0] == -10.0 and A.points[-1] == 10.0
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(A, path)
        back = parse_inputs(str(path), "zeroset")
        assert back.window == (-10.0, 10.0)
        assert np.array_equal(back.points, A.points)

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


class TestRunConfig:
    def test_parser_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["analyze", "--input", "x"])
        assert RunConfig(**vars(args)) == RunConfig("analyze", "x")

    def test_flags_set_the_fields_of_their_name(self):
        args = build_parser().parse_args([
            "zeros", "--input", "x", "--window=-3,4.5", "--height", "2", "--cutoff", "7",
            "--grid", "0.5", "--T", "30", "--eps", "0.1", "--out", "o", "--seed", "4"])
        assert RunConfig(**vars(args)) == RunConfig(
            "zeros", "x", window=(-3.0, 4.5), height=2.0, cutoff=7.0, grid_step=0.5,
            T=30.0, eps=0.1, out_dir="o", seed=4)

    def test_snapshot_keys_are_the_fields(self):
        names = {f.name for f in fields(RunConfig)} - {"out_dir", "input_path"}
        doc = RunConfig("analyze", "x").snapshot()
        assert set(doc) == names | {"input", "t3_budget", "tolerances"}
        assert doc["input"] == "x"


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
        assert stages["reconstruct"]["g"]["sup_bound"] == 0

    def test_no_agreement_without_a_bohr_atom(self, cos_csv):
        # the zeros +-22.5 sit on the edge of the T/2 window, so every atom
        # drifts past threshold/4 and the Bohr route keeps none: there is
        # nothing to compare the log atoms with
        cfg = RunConfig(command="analyze", input_path=cos_csv,
                        window=(-60.0, 60.0), T=45.0, cutoff=5.0)
        dstage = run_pipeline(cfg).summary["stages"]["diffraction"]
        assert dstage["logderiv"]["atom_count"] == 8
        assert dstage["bohr"]["atom_count"] == 0
        assert dstage["agreement"] is None

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

    @pytest.mark.parametrize("command", ["analyze", "diffract"])
    def test_window_without_zero(self, cos_csv, command):
        # no symmetric half-window: no Lindelof sums, and no Bohr means
        cfg = RunConfig(command=command, input_path=cos_csv, window=(10.2, 50.2))
        with pytest.raises(StageError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "diffraction/bohr"
        assert "must contain 0" in str(exc.value.cause)
        assert "skipped" in exc.value.partial_stages["apset"]["lindelof"]

    @staticmethod
    def _spy(monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def spy(*args, _real=getattr(diffraction, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(diffraction, name, spy)
        return calls

    @pytest.mark.parametrize("command, counts", [
        ("diffract", {"bohr_atoms": 4, "poisson_residual": 4}),
        ("analyze", {"bohr_atoms": 4, "poisson_residual": 5}),
    ])
    def test_one_bohr_pass_per_window(self, cos_csv, tmp_path, monkeypatch, command, counts):
        # the Poisson-vs-T plot takes its T_eff entry from the main scan, and on
        # the Bohr-only route also its residual
        path = cos_csv
        if command == "diffract":
            path = tmp_path / "zeros.csv"
            qio.write_zeroset(lattice_zeroset(0.5, 1.0, 60), path)
        calls = self._spy(monkeypatch, *counts)
        rep = run_pipeline(RunConfig(command=command, input_path=str(path),
                                     window=(-60.0, 60.0), T=50.0))
        assert calls == counts
        assert rep.plot_poisson[-1][0] == 50.0

    def test_t3_budget_stage_error(self, tmp_path):
        path = tmp_path / "mu.csv"
        mu = PointMeasure(1.0, np.array([1e-7]), np.array([1.0 + 0j]))
        qio.write_measure(mu, path)
        cfg = RunConfig(command="reconstruct", input_path=str(path))
        with pytest.warns(UserWarning):
            with pytest.raises(StageError) as exc:
                run_pipeline(cfg)
        assert exc.value.stage == "reconstruct/log_series"

    def test_reconstruct_builds_the_log_series_once(self, tmp_path):
        # an atom at 0.005 has |b|/gamma = 200, which warns while the log
        # series is built: once per run, since the rebuild reuses it
        path = tmp_path / "mu.csv"
        mu = PointMeasure(1.0, np.array([-1.0, -0.005, 0.005, 1.0]), np.ones(4, complex))
        qio.write_measure(mu, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = run_pipeline(RunConfig(command="reconstruct", input_path=str(path)))
        budget = [w for w in caught if "low-frequency mass budget" in str(w.message)]
        assert len(budget) == 1
        assert rep.summary["stages"]["reconstruct"]["rebuilt_terms"] > 0


@pytest.fixture(scope="module")
def three_factor_run(tmp_path_factory):
    """analyze of cos(pi z) cos(sqrt2 pi z) cos(sqrt3 pi z) on +-20.001 at
    cutoff 40: the report and the rows of plot_poisson_vs_T.csv."""
    tmp = tmp_path_factory.mktemp("three-factor")
    f = wiener.multiply(wiener.multiply(cos_sum(0.5), cos_sum(np.sqrt(2.0) / 2.0)),
                        cos_sum(np.sqrt(3.0) / 2.0))
    qio.write_expsum(f, tmp / "f.csv")
    out = tmp / "out"
    assert main(["analyze", "--input", str(tmp / "f.csv"), "--window=-20.001,20.001",
                 "--cutoff", "40", "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    rows = np.loadtxt(out / "plot_poisson_vs_T.csv", delimiter=",", skiprows=1, ndmin=2)
    return doc, rows


class TestPoissonVsTSkipped:
    """Each Poisson-vs-T window without a residual is listed with its error."""

    def test_half_integer_lattice_at_T_50(self, tmp_path):
        # the scan at T = 25 keeps no atoms, whose empty list fails the atom-tail bound
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(lattice_zeroset(0.5, 1.0, 60), path)
        rep = run_pipeline(RunConfig(command="diffract", input_path=str(path), T=50.0))
        skipped = rep.summary["stages"]["diffraction"]["poisson_vs_T_skipped"]
        assert [(s["T"], s["error"]) for s in skipped] == [(25.0, "InsufficientDataError")]
        assert "truncation tails" in skipped[0]["message"]
        assert [T for T, _ in rep.plot_poisson] == [6.25, 12.5, 50.0]
        assert len(rep.plot_poisson) + len(skipped) == 4

    def test_three_factor_product(self, three_factor_run):
        doc, rows = three_factor_run
        skipped = doc["stages"]["diffraction"]["poisson_vs_T_skipped"]
        assert [s["T"] for s in skipped] == pytest.approx([2.500125, 5.00025])
        assert {s["error"] for s in skipped} == {"InsufficientDataError"}
        assert len(rows) + len(skipped) == 4


class TestEmptyBohrMeasure:
    def test_poisson_skip_names_the_empty_measure(self, cos_csv):
        # the Bohr scans at T = 45 and 11.25 keep no atom: extending the
        # window or the atom list cannot mend the Poisson check of an empty list
        cfg = RunConfig(command="analyze", input_path=cos_csv,
                        window=(-60.0, 60.0), T=45.0, cutoff=5.0)
        skipped = run_pipeline(cfg).summary["stages"]["diffraction"]["poisson_vs_T_skipped"]
        assert [s["T"] for s in skipped] == [11.25, 45.0]
        for s in skipped:
            assert "carries no atoms" in s["message"]
            assert "extend" not in s["message"]


def lee_yang_rows(n, seed):
    """The Lee-Yang sum det(I - U diag(e^{2 pi i a_j z})), a = (1, sqrt2,
    sqrt3, sqrt5)[:n], U a unitary drawn from the seed: expanded by
    principal minors, shifted by -sum(a)/2 and divided by
    sqrt((-1)^n det U), so that it is Hermitian with only real zeros.
    Rows (omega, re, im) as floats, the fields of the CSV input."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    a = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)])[:n]
    norm = np.sqrt((-1) ** n * np.linalg.det(U))
    rows = []
    for chosen in itertools.product((0, 1), repeat=n):
        idx = np.flatnonzero(chosen)
        minor = np.linalg.det(U[np.ix_(idx, idx)]) if idx.size else 1.0
        c = complex((-1) ** idx.size * minor / norm)
        rows.append((float(np.sum(a[idx]) - np.sum(a) / 2), c.real, c.imag))
    return sorted(rows)


class TestRoundtripCertificate:
    """analyze certifies the rebuilt sum against the normalized input over
    the whole strip of the zero search, and searches zeros only once."""

    CASES = {
        "cos": (lambda: cos_sum(), (-60.0, 60.0), 50.0, 10.0),
        "three-factor": (lambda: wiener.multiply(wiener.multiply(
            cos_sum(0.5), cos_sum(np.sqrt(2.0) / 2.0)), cos_sum(np.sqrt(3.0) / 2.0)),
            (-20.001, 20.001), 2000.0, 40.0),
        "cos-squared": (lambda: wiener.multiply(cos_sum(), cos_sum()), (-20.2, 20.2), 50.0, 10.0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_old_search_lies_within_max_deviation(self, case, tmp_path):
        # the zero search of the rebuilt sum over +-20, which analyze no
        # longer runs, as an oracle: each zero lies within the bound
        make, window, T, cutoff = self.CASES[case]
        qio.write_expsum(make(), tmp_path / "f.csv")
        rep = run_pipeline(RunConfig(command="analyze", input_path=str(tmp_path / "f.csv"),
                                     window=window, T=T, cutoff=cutoff))
        rt = rep.summary["stages"]["reconstruct"]["roundtrip"]
        A = rep.zeroset
        assert rt["window"] == list(A.window)
        assert rt["original_count"] == rt["rebuilt_count"] == A.count
        assert rt["coefficient_distance"] < min(rt["contour_floor"], rt["tolerance"])
        old = A.expand()
        old = old[np.abs(old) < 20.0]
        new = zeros.find_real_zeros(rep.rebuilt, (-20.0, 20.0)).expand()
        assert new.size == old.size > 0
        assert np.max(np.abs(new - old)) <= rt["max_deviation"]
        assert rt["max_deviation"] < (1e-6 if case == "cos-squared" else 1e-9)

    def test_analyze_searches_zeros_once(self, cos_csv, monkeypatch):
        windows = []
        real = zeros.find_real_zeros

        def spy(f, window):
            windows.append(window)
            return real(f, window)

        monkeypatch.setattr(zeros, "find_real_zeros", spy)
        run_pipeline(RunConfig(command="analyze", input_path=cos_csv,
                               window=(-60.0, 60.0), T=50.0))
        assert windows == [(-60.0, 60.0)]

    def test_a_perturbed_coefficient_fails(self, cos_csv, monkeypatch, tmp_path):
        real = reconstruct.rebuild_from_log_series

        def perturbed(L, d):
            g = real(L, d)
            return wiener.canonicalize([(g.freqs[0], g.coeffs[0] + 1e-6)] + g.terms()[1:])

        monkeypatch.setattr(reconstruct, "rebuild_from_log_series", perturbed)
        cfg = RunConfig(command="analyze", input_path=cos_csv, window=(-60.0, 60.0), T=50.0)
        with pytest.raises(StageError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "reconstruct/roundtrip"
        assert isinstance(exc.value.cause, ConvergenceError)
        # 1e-6 e^{2 pi h |omega|} at h = 1/8, omega = -1/2: over 1e-9, though below the floor
        assert "delta = 1.48e-06" in str(exc.value.cause)
        assert main(["analyze", "--input", cos_csv, "--window=-60,60", "--T", "50",
                     "--out", str(tmp_path / "out")]) == 2

    def test_a_failed_disc_test_is_a_convergence_error(self):
        # simple zeros of cos(pi z) claimed double: f'' vanishes there, so
        # no disc passes the test, however close the rebuilt sum
        f = cos_sum()
        A = zeros.find_real_zeros(f, (-3.2, 3.2))
        assert _roundtrip(f, A, f)["max_deviation"] < 1e-13
        double = ZeroSet(A.window, A.points, 2 * A.mults, A.strip_height, A.contour_floor)
        with pytest.raises(ConvergenceError, match="disc test fails at the zero -2.5"):
            _roundtrip(f, double, f)
        # and discs that overlap: a second point 1e-14 beside -1.5
        pts = np.sort(np.append(A.points, -1.5 + 1e-14))
        twins = ZeroSet(A.window, pts, np.ones(pts.size, np.int64), A.strip_height,
                        A.contour_floor)
        with pytest.raises(ConvergenceError, match="disc test fails at the zero -1.5 "):
            _roundtrip(f, twins, f)

    def test_lee_yang_rebuild_fails_by_its_extra_terms(self, tmp_path):
        # the rebuild truncates at the largest atom, not at the type: 10
        # terms against the input's 8, which the coefficient distance names
        path = tmp_path / "lee-yang.csv"
        path.write_text("omega,re,im\n" + "".join(
            f"{w!r},{re!r},{im!r}\n" for w, re, im in lee_yang_rows(3, 0)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--window=-100.05,100.05", "--T", "100",
                     "--cutoff", "10", "--out", str(out)]) == 2
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["stage"] == "reconstruct/roundtrip"
        assert error["type"] == "ConvergenceError"
        assert re.search(r"\(10 terms\) lies delta = [0-9.e+-]+ from the normalized input "
                         r"\(8 terms\)", error["message"])


class TestReportSchema:
    def test_schema_four_and_the_exact_type(self, three_factor_run):
        doc, _ = three_factor_run
        assert doc["schema"] == 4
        log = doc["stages"]["diffraction"]["logderiv"]
        assert log["atom_count"] == 2 * 90
        assert log["noise_dropped"] == 2977
        # the lowest mixed frequency whose noise passes _ATOM_TOL: 4 + 5 sqrt2 + 5 sqrt3
        assert log["certified_cutoff"] == pytest.approx(4 + 5 * np.sqrt(2) + 5 * np.sqrt(3), abs=1e-9)
        assert 0.0 < log["max_error_bound"] < 1e-10
        rec = doc["stages"]["reconstruct"]
        assert rec["exponential_type"]["exact"] == -2.0 * np.pi * rec["spectrum"]["min_freq"]
        assert set(rec["g"]) == {"windows", "sup_bound"}
        assert doc["stages"]["apset"]["periods_max_gap"] is None


class TestBohrGridScreen:
    """The diffraction stage runs the exact Bohr means only on the grid
    columns the screen keeps, and finds the same atoms as an exact scan of
    the whole grid."""

    def test_atoms_at_every_T_equal_the_exact_scan_of_the_whole_grid(self, tmp_path,
                                                                     monkeypatch):
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(union_zeroset(300), path)
        calls = []
        real = diffraction.bohr_atoms

        def spy(A, gammas, full, half, T, threshold):
            calls.append((A, T, threshold, real(A, gammas, full, half, T, threshold)))
            return calls[-1][-1]

        monkeypatch.setattr(diffraction, "bohr_atoms", spy)
        assert main(["diffract", "--input", str(path), "--cutoff", "10", "--grid", "0.02",
                     "--out", str(tmp_path / "out")]) == 0
        A = calls[0][0]
        T0 = calls[0][1]
        Ts = [T0 / 2 ** k for k in range(5)]
        assert sorted({T for _, T, _, _ in calls}, reverse=True) == Ts[:4]
        grid = 0.02 * np.arange(-500, 501)
        means = diffraction.bohr_means(A, grid, Ts)
        for _, T, threshold, mu in calls:
            k = Ts.index(T)
            ref = real(A, grid, means[k], means[k + 1], T, threshold)
            assert len(ref) > 0
            assert mu.d == ref.d
            assert np.array_equal(mu.gammas, ref.gammas)
            assert np.array_equal(mu.masses.view(np.int64), ref.masses.view(np.int64))

    def test_exact_pass_sees_only_the_kept_grid_columns(self, tmp_path, monkeypatch):
        # the benchmark's zero-set input: the union over +-2100, 501
        # nonnegative grid columns k * 0.02 below the cutoff 10
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(union_zeroset(2100), path)
        seen = []
        exp_rows = diffraction._exp_rows

        def spy(points, freqs, reduce):
            seen.append(points.copy())
            return exp_rows(points, freqs, reduce)

        monkeypatch.setattr(diffraction, "_exp_rows", spy)
        assert main(["diffract", "--input", str(path), "--T", "2000", "--cutoff", "10",
                     "--grid", "0.02", "--out", str(tmp_path / "out")]) == 0
        assert len(seen) == 1
        # points -gamma: gamma >= 0 is a point <= 0
        assert 9 <= int(np.sum(seen[0] <= 0)) <= 20


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
        assert doc["schema"] == 4
        assert doc["config"]["tolerances"]["freq_tol"] == 1e-9

    def test_no_knob_outside_the_command_line(self, tmp_path):
        # the run is set by its arguments alone: no environment variable
        # is read, and the report's tolerance snapshot holds the constants
        src = Path(qclab.__file__).parent
        readers = [p.name for p in sorted(src.glob("*.py"))
                   if re.search(r"\bos\.environ\b|\bgetenv\b", p.read_text(encoding="utf-8"))]
        assert readers == []
        path = tmp_path / "mu.csv"
        qio.write_measure(lattice_measure(K=3), path)
        assert main(["reconstruct", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["config"]["tolerances"] == {
            "freq_tol": 1e-9, "prune_tol": 1e-14, "max_terms": 200_000}


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
        ("--height", "nan"), ("--height", "-inf"), ("--seed", "-1"), ("--window", "-inf,inf"),
    ])
    def test_usage_error_bad_number(self, cos_csv, tmp_path, flag, value):
        out = tmp_path / "out"
        assert main(["analyze", "--input", cos_csv, "--window=-10,10",
                     f"{flag}={value}", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--T", "0", "argument --T: expects a finite number > 0, got '0'"),
        ("--seed", "1.5", "argument --seed: expects an integer >= 0, got '1.5'"),
        ("--window", "1,2,3", "argument --window: expects A,B; got '1,2,3'"),
        ("--height", "high", "argument --height: expects a number or 'auto', got 'high'"),
    ], ids=["T", "seed", "window", "height"])
    def test_usage_error_names_the_flag(self, cos_csv, capsys, flag, value, message):
        assert main(["analyze", "--input", cos_csv, f"{flag}={value}"]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_zero_outside_the_sidecar_window_exits_two(self, tmp_path):
        # 80 points over a length of 40 would read as density 2
        path = tmp_path / "zeros.csv"
        qio.write_zeroset(lattice_zeroset(0.5, 1.0, 40), path)
        path.with_suffix(".json").write_text('{"window": [-20, 20]}')
        out = tmp_path / "out"
        assert main(["apset", "--input", str(path), "--out", str(out)]) == 2
        doc = json.loads((out / "report.json").read_text())
        assert doc["error"]["stage"] == "parse"
        assert doc["error"]["type"] == "ParseError"
        assert doc["error"]["message"].endswith(
            "zeros.csv: point -39.5 lies outside the window [-20.0, 20.0] of zeros.json")

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

    @pytest.mark.parametrize("name, text, line", [
        ("sum.csv", b"omega,re,im\n-0.5,0.5,0.0\n0.5,0.5\xff,0.0\n", 3),
        ("sum.csv", b"omega\xff,re,im\n-0.5,0.5,0.0\n", 1),
        ("zeros.csv", b"point,multiplicity\n0.5,1\n1.5,1\xff\n", 3),
        ("zeros.csv", codecs.BOM_UTF8 + b"point,multiplicity\n0.5,1\n1.5,1\xff\n", 3),
    ])
    def test_input_that_is_not_utf8_is_a_parse_error(self, tmp_path, name, text, line):
        path = tmp_path / name
        path.write_bytes(text)
        path.with_suffix(".json").write_text('{"window": [-2.0, 2.0]}')
        out = tmp_path / "out"
        assert main(["apset", "--input", str(path), "--out", str(out)]) == 2
        doc = json.loads((out / "report.json").read_text())
        assert doc["error"]["stage"] == "parse"
        assert doc["error"]["type"] == "ParseError"
        assert doc["error"]["message"].endswith(f"{name}:{line}: byte 0xff is not UTF-8")

    @pytest.mark.parametrize("name, argv, rows", [
        ("sum.csv", ["zeros", "--window=-20.2,20.2"], None),
        ("zeros.csv", ["apset"], False),
        ("zeros.csv", ["apset"], True),
        ("mu.csv", ["reconstruct"], None),
    ])
    def test_byte_order_mark_gives_the_same_artifacts(self, tmp_path, name, argv, rows):
        path = tmp_path / name
        if name == "sum.csv":
            qio.write_expsum(cos_sum(), path)
        elif name == "mu.csv":
            qio.write_measure(lattice_measure(K=3), path)
        else:
            qio.write_zeroset(lattice_zeroset(0.5, 1.0, 10), path)
            if rows:  # a quoted field sends the parse to the row parser
                path.write_text(path.read_text().replace("\n-9.5,", '\n"-9.5",'))
        plain = path.read_bytes()
        sidecar = path.with_suffix(".json")
        side = sidecar.read_bytes() if sidecar.exists() else None
        for out, mark in (("plain", b""), ("marked", codecs.BOM_UTF8)):
            path.write_bytes(mark + plain)
            if side is not None:  # the zero set's window sidecar too
                sidecar.write_bytes(mark + side)
            if rows is not None:
                assert (qio._zeroset_table(path) is None) == rows
            assert main(argv + ["--input", str(path), "--out", str(tmp_path / out)]) == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "marked").iterdir())
        for artifact in names:
            assert (tmp_path / "plain" / artifact).read_bytes() == \
                   (tmp_path / "marked" / artifact).read_bytes(), artifact

    def test_non_real_zeros_stop_the_log_derivative_route(self, tmp_path):
        # cos(pi z) * (1 - exp(2 pi i z) / 4): the half-integers, and the
        # zeros k - i log(4) / (2 pi), 0.22 below the real line
        path = tmp_path / "sum.csv"
        path.write_text("omega,re,im\n-0.5,0.5,0.0\n0.5,0.375,0.0\n1.5,-0.125,0.0\n")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--window=-10.2,10.2", "--T", "10",
                     "--out", str(out)]) == 2
        doc = json.loads((out / "report.json").read_text())
        assert doc["error"]["stage"] == "diffraction/logderiv"
        assert doc["error"]["type"] == "DomainError"
        assert doc["stages"]["zeros"]["realness"] == {
            "real_count": 20, "total_count": 41, "all_real": False}

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

    def test_output_under_a_file_exit_one(self, cos_csv, tmp_path, capsys):
        # mkdir under a regular file fails for any user, root included
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["zeros", "--input", cos_csv, "--window=-20,20",
                     "--out", str(blocker / "sub")])
        assert code == 1
        assert "cannot write outputs" in capsys.readouterr().err
