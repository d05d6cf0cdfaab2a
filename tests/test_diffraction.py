import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import diffraction, wiener
from qclab.diffraction import (
    PointMeasure,
    bohr_atoms,
    bohr_grid_screen,
    bohr_means,
    bohr_stable,
    growth_profile,
    logderiv_measure,
    poisson_residual,
)
from qclab.errors import DomainError, InsufficientDataError, InvalidInputError
from qclab.wiener import canonicalize, multiply
from qclab.zeros import ZeroSet

from conftest import SQRT2, lattice_measure, lattice_points, lattice_zeroset


class TestBohrCoefficient:
    """Single Bohr means: one-entry calls of ``bohr_means``."""

    def test_lattice_gamma_one(self, lat2100):
        assert bohr_means(lat2100, [1.0], [1000.0])[0, 0] == pytest.approx(-1.0, abs=0.01)

    def test_gamma_zero_is_density(self, lat2100):
        assert bohr_means(lat2100, [0.0], [1000.0])[0, 0].real == pytest.approx(1.0, abs=0.01)

    def test_off_spectrum_cancels(self, lat2100):
        assert np.all(np.abs(bohr_means(lat2100, [0.5], [1000.0, 500.0])) < 0.01)

    def test_window_guard(self, lat500):
        with pytest.raises(DomainError):
            bohr_means(lat500, [1.0], [1000.0])


class TestBohrMeans:
    @staticmethod
    def _single(A, gammas, T):
        # reference: one exp pass over the window |a| < T alone
        e = A.expand()
        sel = e[np.abs(e) < T]
        return np.exp(-2j * np.pi * np.outer(gammas, sel)).sum(axis=1) / (2.0 * T)

    @pytest.mark.parametrize("block", [wiener._EXP_BUDGET, 997])
    def test_rows_equal_single_window_sums(self, monkeypatch, block):
        monkeypatch.setattr(wiener, "_EXP_BUDGET", block)
        pts = np.sort(np.concatenate([np.arange(-40, 41) + 0.5,
                                      (np.arange(-57, 57) + 0.5) / SQRT2]))
        A = ZeroSet((-40.0, 40.0), pts, np.arange(pts.size) % 3 + 1)
        gammas = np.unique(np.concatenate([np.arange(-3.0, 3.01, 0.125), [SQRT2, -SQRT2]]))
        assert 0.0 in gammas
        # 30.5 and |pts[10]| sit exactly on a point, which |a| < T leaves out
        Ts = [40.0, 30.5, abs(pts[10]), 20.0, 5.0, 0.25]
        means = bohr_means(A, gammas, Ts)
        assert means.shape == (len(Ts), gammas.size)
        for row, T in zip(means, Ts):
            assert np.array_equal(row, self._single(A, gammas, T))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rows_equal_single_window_sums_on_every_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(wiener, "_cpu_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many thread switches inside each pass
        try:
            self.test_rows_equal_single_window_sums(monkeypatch, 997)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _mixed_set():
        pts = np.sort(np.concatenate([np.arange(-40, 41) + 0.5,
                                      (np.arange(-57, 57) + 0.5) / SQRT2]))
        return ZeroSet((-40.0, 40.0), pts, np.arange(pts.size) % 3 + 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_mirrored_columns_equal_single_window_sums(self, monkeypatch, workers):
        monkeypatch.setattr(wiener, "_EXP_BUDGET", 997)
        monkeypatch.setattr(wiener, "_cpu_count", lambda: workers)
        A = self._mixed_set()
        paired = np.concatenate([np.arange(0.1, 3.0, 0.1), [SQRT2, 7.3]])
        # +- pairs, one unpaired negative, 0 and repeats, in no order
        gammas = np.concatenate([paired, -paired, [-2.35, 0.0, 0.3, -0.3, SQRT2]])
        np.random.default_rng(4).shuffle(gammas)
        Ts = [40.0, 30.5, 20.0, 0.25]
        means = bohr_means(A, gammas, Ts)
        for row, T in zip(means, Ts):
            assert np.array_equal(row.view(np.int64), self._single(A, gammas, T).view(np.int64))

    def test_exp_pass_takes_only_the_owned_columns(self, monkeypatch):
        seen = []
        exp_rows = diffraction._exp_rows

        def spy(points, freqs, reduce):
            seen.append(points.copy())
            return exp_rows(points, freqs, reduce)

        monkeypatch.setattr(diffraction, "_exp_rows", spy)
        A = self._mixed_set()
        K = 150
        grid = 0.02 * np.arange(-K, K + 1)
        bohr_means(A, grid, [40.0, 20.0])
        assert len(seen) == 1 and seen[0].size == K + 1
        assert np.array_equal(np.sort(-seen[0]), grid[K:])
        bohr_means(A, np.append(grid, -0.013), [40.0])
        assert np.array_equal(np.sort(-seen[1]), np.append(-0.013, grid[K:]))

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(wiener, "_EXP_BUDGET", 997)
        monkeypatch.setattr(wiener, "_cpu_count", lambda: 2)
        exp = np.exp

        def exp_failing_off_the_calling_thread(x, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("worker block")
            return exp(x, **kwargs)

        monkeypatch.setattr(np, "exp", exp_failing_off_the_calling_thread)
        pts = np.arange(-40, 41) + 0.5
        A = ZeroSet((-40.0, 40.0), pts, np.ones(pts.size, np.int64))
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker block"):
            bohr_means(A, np.arange(0.0, 3.0, 0.125), [40.0])
        assert threading.active_count() == threads

    def test_atoms_d_is_the_gamma_zero_mean_bit_for_bit(self):
        pts = np.sort(np.concatenate([np.arange(-40, 41) + 0.5,
                                      (np.arange(-57, 57) + 0.5) / SQRT2]))
        A = ZeroSet((-40.0, 40.0), pts, np.arange(pts.size) % 3 + 1)
        Ts = np.linspace(0.3, 40.0, 211)
        zero = bohr_means(A, [0.0], Ts)[:, 0]
        none = np.zeros(1, complex)
        for T, mean in zip(Ts, zero):
            assert bohr_atoms(A, [0.0], none, none, T, 1e3).d == mean.real

    def test_atoms_window_guard(self, lat500):
        none = np.zeros(1, complex)
        with pytest.raises(DomainError):
            bohr_atoms(lat500, [0.0], none, none, 1000.0, 1.0)

    def test_empty_window_is_zero(self, lat500):
        assert np.array_equal(bohr_means(lat500, [0.0, 1.0], [0.25]), np.zeros((1, 2), complex))

    def test_empty_grid_has_no_columns(self, lat500):
        assert bohr_means(lat500, [], [100.0, 50.0]).shape == (2, 0)

    def test_scan_d_is_the_gamma_zero_mean(self, uni2100):
        full, half = bohr_means(uni2100, [1.0, SQRT2], [2000.0, 1000.0])
        mu = bohr_atoms(uni2100, [1.0, SQRT2], full, half, 2000.0, 0.1)
        assert mu.d == bohr_means(uni2100, [0.0], [2000.0])[0, 0].real

    def test_window_guards(self, lat500):
        with pytest.raises(DomainError):
            bohr_means(lat500, [1.0], [100.0, 1000.0])
        with pytest.raises(DomainError):
            bohr_means(lat500, [1.0], [100.0, 0.0])


_UNION_GRID = sorted(set([float(k) for k in range(-6, 7)]
                         + [round(k * SQRT2, 12) for k in range(-4, 5)]))


class TestBohrScan:
    """Atoms kept by ``bohr_atoms`` from the means at T and T/2 of one
    ``bohr_means`` pass, as the CLI's scan keeps them."""

    def test_lattice_atoms(self, lat2100):
        grid = np.arange(-20, 21) / 4.0
        full, half = bohr_means(lat2100, grid, [2000.0, 1000.0])
        mu = bohr_atoms(lat2100, grid, full, half, 2000.0, 0.1)
        assert mu.d == pytest.approx(1.0, abs=0.01)
        got = dict((round(g * 4) / 4, b) for g, b in mu.atoms())
        assert sorted(got) == [float(k) for k in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)]
        for k, b in got.items():
            assert b == pytest.approx((-1.0) ** abs(k), abs=0.01)

    def test_union_atoms(self, uni2100):
        full, half = bohr_means(uni2100, _UNION_GRID, [2000.0, 1000.0])
        mu = bohr_atoms(uni2100, _UNION_GRID, full, half, 2000.0, 0.1)
        assert mu.d == pytest.approx(1.0 + SQRT2, abs=0.02)
        assert mu.mass_at(1.0) == pytest.approx(-1.0, abs=0.01)
        assert mu.mass_at(SQRT2) == pytest.approx(-SQRT2, abs=0.01)
        assert mu.mass_at(2 * SQRT2) == pytest.approx(SQRT2, abs=0.01)

    def test_poisson_process_no_atoms(self):
        rng = np.random.default_rng(2)
        pts = np.sort(rng.uniform(-2000.0, 2000.0, rng.poisson(4000)))
        A = ZeroSet((-2000.0, 2000.0), pts, np.ones(pts.size, np.int64))
        grid = np.arange(-20, 21) / 4.0
        full, half = bohr_means(A, grid, [2000.0, 1000.0])
        mu = bohr_atoms(A, grid, full, half, 2000.0, 0.1)
        assert len(mu) == 0
        assert mu.d == pytest.approx(1.0, abs=0.05)

    def test_threshold_guard(self, lat2100):
        full, half = bohr_means(lat2100, [1.0], [2000.0, 1000.0])
        with pytest.raises(InvalidInputError):
            bohr_atoms(lat2100, [1.0], full, half, 2000.0, 1e-5)

    def test_scan_conjugate_symmetry(self, uni2100):
        full, half = bohr_means(uni2100, _UNION_GRID, [2000.0, 1000.0])
        mu = bohr_atoms(uni2100, _UNION_GRID, full, half, 2000.0, 0.1)
        assert mu.conjugate_defect() < 0.01


@st.composite
def _screen_cases(draw):
    """A union of one to three jittered lattices over +-half, each point
    of multiplicity 1-3; a grid step, K, up to five nested windows and
    the screen's block size."""
    half = draw(st.sampled_from([40.0, 300.0, 2100.0]) | st.floats(5.0, 2100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = []
    for _ in range(draw(st.integers(1, 3))):
        spacing = draw(st.floats(0.7, 2.0))
        lattice = lattice_points(draw(st.floats(0.0, 1.0)), spacing, half)
        jitter = draw(st.floats(0.0, 0.3)) * spacing
        pts.append(lattice + jitter * rng.uniform(-0.5, 0.5, lattice.size))
    pts = np.concatenate(pts)
    pts = pts[np.abs(pts) < half]
    A = ZeroSet((-half, half), pts, rng.integers(1, 4, pts.size))
    step = draw(st.sampled_from([0.02, 0.013, 0.25]))
    K = draw(st.integers(0, 500))
    T = draw(st.floats(0.5, 1.0)) * half
    Ts = [T / 2 ** k for k in range(draw(st.integers(1, 5)))]
    block = draw(st.sampled_from([diffraction._SCREEN_BLOCK, 997]))
    return A, step, K, Ts, block


class TestBohrGridScreen:
    """``bohr_grid_screen`` stays within its bound of ``bohr_means`` on the
    grid k * step, and ``bohr_stable`` loosened by that bound keeps every
    column the exact rule keeps."""

    @settings(max_examples=20, deadline=None)
    @given(_screen_cases())
    def test_within_its_bound_of_the_exact_means(self, case):
        A, step, K, Ts, block = case
        saved = diffraction._SCREEN_BLOCK
        diffraction._SCREEN_BLOCK = block
        try:
            screen, eta = bohr_grid_screen(A, step, K, Ts)
        finally:
            diffraction._SCREEN_BLOCK = saved
        exact = bohr_means(A, step * np.arange(K + 1), Ts)
        assert screen.shape == exact.shape == (len(Ts), K + 1)
        assert np.all(np.abs(screen - exact) <= eta[:, None])

    def test_bound_is_tight_enough_to_screen(self, uni2100):
        # the bound is far below any threshold, the distance far below it
        Ts = [2000.0, 1000.0]
        screen, eta = bohr_grid_screen(uni2100, 0.02, 500, Ts)
        gap = np.abs(screen - bohr_means(uni2100, 0.02 * np.arange(501), Ts)).max(axis=1)
        assert np.all(eta < 1e-9)
        assert np.all(gap < eta / 10)

    def test_empty_window_is_zero_with_zero_bound(self, lat500):
        screen, eta = bohr_grid_screen(lat500, 0.25, 8, [0.25])
        assert np.array_equal(screen, np.zeros((1, 9), complex))
        assert eta.tolist() == [0.0]

    def test_window_guards(self, lat500):
        with pytest.raises(DomainError):
            bohr_grid_screen(lat500, 0.02, 10, [1000.0])
        with pytest.raises(DomainError):
            bohr_grid_screen(lat500, 0.02, 10, [100.0, 0.0])

    def test_rule_at_slack_zero_is_the_two_comparisons(self):
        rng = np.random.default_rng(5)
        thr = 0.25
        full = rng.normal(size=4000) * 0.3 + 1j * rng.normal(size=4000) * 0.3
        half = full + (rng.normal(size=4000) + 1j * rng.normal(size=4000)) * 0.05
        # moduli on the boundaries themselves
        full[:3] = [thr, 1j * thr, -thr]
        half[3:6] = full[3:6] - [thr / 4, 1j * thr / 4, -thr / 4]
        rule = (np.abs(full) > thr) & (np.abs(full - half) < thr / 4)
        assert np.array_equal(bohr_stable(full, half, thr), rule)
        assert not rule[:6].any()

    @pytest.mark.parametrize("thr", [0.05, 0.06, 0.25, 1.7])
    @pytest.mark.parametrize("rel", [1e-16, 1e-12, 1e-8])
    def test_loosened_rule_keeps_every_column_within_the_slack(self, thr, rel):
        # pairs that pass at slack 0 by a hair, moved by e1 + e2 = slack
        # against the rule, pass at slack
        rng = np.random.default_rng(6)
        m = 5000
        phase = np.exp(2j * np.pi * rng.uniform(size=m))
        full = np.nextafter(thr, np.inf) * phase
        drift = np.nextafter(thr / 4, 0.0) * np.exp(2j * np.pi * rng.uniform(size=m))
        half = full - drift
        passing = bohr_stable(full, half, thr)
        assert passing.mean() > 0.2  # the rest miss by the rounding of |.|
        slack = rel * thr
        split = rng.uniform(size=m)
        full_moved = full - split * slack * phase  # toward 0
        half_moved = half + (1 - split) * slack * drift / np.abs(drift)  # away from full
        assert bohr_stable(full_moved, half_moved, thr, slack)[passing].all()


class TestConjugateDefect:
    @staticmethod
    def _loop(mu):
        # reference: one mass_at lookup per positive atom
        g, b = mu.positive()
        if g.size == 0:
            return 0.0
        return float(max(abs(mu.mass_at(-gg) - np.conj(bb)) for gg, bb in zip(g, b)))

    @staticmethod
    def _random_measure(seed):
        rng = np.random.default_rng(seed)
        n = 70
        g = np.sort(rng.uniform(0.01, 10.0, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        kind = rng.integers(0, 4, n)  # 0 exact, 1 near, 2 missing, 3 near on both sides
        neg, mneg = [], []
        for gg, bb, k in zip(g, b, kind):
            noise = 1e-3 * (rng.normal() + 1j * rng.normal())
            if k == 0:
                neg.append(-gg)
            elif k == 1:
                neg.append(-gg + rng.uniform(-9e-10, 9e-10))
            elif k == 3:
                neg += [-gg - rng.uniform(0, 9e-10), -gg + rng.uniform(0, 9e-10)]
                mneg.append(rng.normal() + 1j * rng.normal())
            else:
                continue
            mneg.append(np.conj(bb) + noise)
        lone = -rng.uniform(0.01, 10.0, 5)  # negatives with no positive partner
        gammas = np.concatenate([g, neg, lone])
        masses = np.concatenate([b, mneg, rng.normal(size=5) + 0j])
        return PointMeasure(1.0, gammas, masses)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_loop_on_random_measures(self, seed):
        mu = self._random_measure(seed)
        assert mu.conjugate_defect() == self._loop(mu)

    def test_equals_the_loop_on_the_three_factor_log_measure(self):
        f = multiply(multiply(canonicalize([(-0.5, 0.5), (0.5, 0.5)]),
                              canonicalize([(-SQRT2 / 2, 0.5), (SQRT2 / 2, 0.5)])),
                     canonicalize([(-np.sqrt(3.0) / 2, 0.5), (np.sqrt(3.0) / 2, 0.5)]))
        mu = logderiv_measure(f, "auto", 20.0)
        assert len(mu) > 40
        assert mu.conjugate_defect() == self._loop(mu)
        g, b = mu.positive()
        skewed = PointMeasure(mu.d, np.concatenate([-g[::-1] + 3e-10, g]),
                              np.concatenate([np.conj(b[::-1]) * 1.001, b]))
        assert skewed.conjugate_defect() == self._loop(skewed) > 0.0

    def test_no_positive_atoms(self):
        assert PointMeasure(1.0, np.array([-1.0]), np.array([1j])).conjugate_defect() == 0.0


@st.composite
def _close_atoms(draw):
    """Sorted gammas, each followed by up to two atoms 1 to 2 FREQ_TOL above it."""
    tol = wiener.FREQ_TOL
    gammas = []
    for x in draw(st.lists(st.floats(-10.0, 10.0), max_size=12)):
        gammas.append(x)
        for _ in range(draw(st.integers(0, 2))):
            gammas.append(gammas[-1] + draw(st.floats(1.0, 2.0)) * tol)
    return np.sort(np.array(gammas, dtype=float))


class TestAtomIndex:
    @staticmethod
    def _rule(gammas, q):
        # the scalar rule mass_at had: the atom just below the insertion
        # point of q, else the one at it, each only within FREQ_TOL
        i = np.searchsorted(gammas, q)
        for j in (i - 1, i):
            if 0 <= j < gammas.size and abs(gammas[j] - q) <= wiener.FREQ_TOL:
                return j
        return -1

    @settings(max_examples=150, deadline=None)
    @given(_close_atoms())
    def test_equals_the_scalar_rule(self, gammas):
        tol = wiener.FREQ_TOL
        mu = PointMeasure(1.0, gammas, np.arange(gammas.size, dtype=complex))
        g = mu.gammas
        queries = [g, g + tol, g - tol, g + 1.0000001 * tol, g - 1.0000001 * tol,
                   np.nextafter(g + tol, np.inf), np.nextafter(g - tol, -np.inf),
                   (g[1:] + g[:-1]) / 2, np.array([0.0, 11.0, -11.0])]
        q = np.concatenate(queries)
        assert mu.atom_index(q).tolist() == [self._rule(g, x) for x in q]

    def test_mass_at_reads_the_index(self):
        mu = PointMeasure(2.0, np.array([-1.0, 1.0, 1.0 + 1.5e-9]), np.array([1j, 2.0, 3.0]))
        assert mu.mass_at(0.0) == 2.0
        assert mu.mass_at(-1.0 + 0.5e-9) == 1j
        assert mu.mass_at(1.0 + 0.9e-9) == 2.0  # both within FREQ_TOL: the one below
        assert mu.mass_at(1.0 + 2.6e-9) == 0j
        assert mu.atom_index(0.5) == -1
        assert PointMeasure(1.0, np.zeros(0), np.zeros(0)).atom_index([0.5, 1.0]).tolist() \
            == [-1, -1]


class TestLogderivMeasure:
    def test_cos_exact_atoms(self, cos):
        mu = logderiv_measure(cos, 1.0, 10.0)
        assert mu.d == pytest.approx(1.0, abs=1e-10)
        for k in range(1, 10):
            assert mu.mass_at(float(k)) == pytest.approx((-1.0) ** k, abs=1e-10)
            assert mu.mass_at(float(-k)) == pytest.approx((-1.0) ** k, abs=1e-10)

    def test_cutoff_strict(self, cos):
        mu = logderiv_measure(cos, 1.0, 10.0)
        assert float(np.max(mu.gammas)) < 10.0

    def test_single_exponential_rejected(self):
        with pytest.raises(DomainError):
            logderiv_measure(canonicalize([(0.7, 2.0)]), 1.0, 10.0)

    def test_height_independence(self, cos):
        mu1 = logderiv_measure(cos, 0.6, 8.0)
        mu2 = logderiv_measure(cos, 1.3, 8.0)
        for k in range(1, 8):
            assert abs(mu1.mass_at(float(k)) - mu2.mass_at(float(k))) < 1e-9

    def test_conjugate_symmetry(self, funion):
        mu = logderiv_measure(funion, "auto", 8.0)
        assert mu.conjugate_defect() < 1e-9

    def test_logderivative_norm_bound(self, cos, funion):
        # the coefficient-sum of f'/f at height s stays below
        # 6*pi*max(|w_n| e^{2pi(w_n-w_1)s}) * sum|q_n/q_1|
        from qclab.wiener import at_height, choose_height, derivative, multiply, neumann_inverse
        for f in (cos, funion):
            s = choose_height(f)
            ld = multiply(at_height(derivative(f), s), neumann_inverse(f, s, 10.0))
            w1 = f.freqs[0]
            q1 = abs(f.coeffs[0])
            cf = (6 * np.pi
                  * float(np.max(np.abs(f.freqs) * np.exp(2 * np.pi * (f.freqs - w1) * s)))
                  * float(np.sum(np.abs(f.coeffs))) / q1)
            assert ld.wiener_norm <= cf

    def test_union_atoms_on_both_combs(self, funion):
        mu = logderiv_measure(funion, "auto", 10.0)
        assert mu.d == pytest.approx(1.0 + SQRT2, abs=1e-9)
        assert mu.mass_at(1.0) == pytest.approx(-1.0, abs=1e-9)
        assert mu.mass_at(3.0) == pytest.approx(-1.0, abs=1e-9)
        assert mu.mass_at(SQRT2) == pytest.approx(-SQRT2, abs=1e-9)
        assert mu.mass_at(2 * SQRT2) == pytest.approx(SQRT2, abs=1e-9)
        # no atoms off the two combs
        for g in mu.gammas:
            on_int = abs(g - round(g)) < 1e-6
            on_r2 = abs(g / SQRT2 - round(g / SQRT2)) < 1e-6
            assert on_int or on_r2


class TestRouteAgreement:
    def test_cos_routes_agree(self, cos, lat2100):
        mu_log = logderiv_measure(cos, 1.0, 10.0)
        est = bohr_means(lat2100, mu_log.gammas, [2000.0])[0]
        assert np.max(np.abs(est - mu_log.masses)) < 0.01

    def test_union_routes_agree(self, funion, uni2100):
        mu_log = logderiv_measure(funion, "auto", 10.0)
        est = bohr_means(uni2100, mu_log.gammas, [2000.0])[0]
        assert np.max(np.abs(est - mu_log.masses)) < 0.01

    def test_d_matches_density(self, funion, uni2100):
        from qclab.apset import density
        mu_log = logderiv_measure(funion, "auto", 10.0)
        est = density(uni2100)
        assert abs(mu_log.d - est.d) <= est.error_bound


class TestPoissonResidual:
    def test_exact_lattice_identity(self, lat2100):
        rep = poisson_residual(lat2100, lattice_measure(K=8))
        assert rep.residual < 1e-8
        assert rep.zero_tail < 1e-8 and rep.atom_tail < 1e-8
        # both sides equal the theta-function value
        theta = sum(math.exp(-math.pi * (n + 0.5) ** 2) for n in range(-40, 40))
        assert rep.zero_side == pytest.approx(theta, rel=1e-12)

    def test_union_scanned_measure(self, uni2100):
        grid = sorted(set([float(k) for k in range(-8, 9)]
                          + [round(k * SQRT2, 12) for k in range(-6, 7)]))
        full, half = bohr_means(uni2100, grid, [2000.0, 1000.0])
        mu = bohr_atoms(uni2100, grid, full, half, 2000.0, 0.1)
        rep = poisson_residual(uni2100, mu)
        assert rep.residual < 1e-3

    def test_window_must_contain_zero(self):
        A = ZeroSet((10.2, 50.2), np.arange(10.5, 50.0), np.ones(40, np.int64))
        with pytest.raises(DomainError, match="must contain 0"):
            poisson_residual(A, lattice_measure(K=8))

    def test_negative_control(self, lat2100):
        broken = lattice_measure(K=8).drop_atom(1.0)
        rep = poisson_residual(lat2100, broken)
        assert rep.residual > 1e-2

    def test_residual_improves_with_T(self, uni2100):
        grid = sorted(set([float(k) for k in range(-8, 9)]
                          + [round(k * SQRT2, 12) for k in range(-6, 7)]))
        Ts = [2000.0, 1000.0, 500.0, 250.0, 125.0]
        means = bohr_means(uni2100, grid, Ts)
        residuals = []
        for k in (3, 2, 1, 0):
            mu = bohr_atoms(uni2100, grid, means[k], means[k + 1], Ts[k], 0.1)
            residuals.append(poisson_residual(uni2100, mu).residual)
        assert residuals[-1] <= residuals[0]
        assert residuals[-1] < 1e-3

    def test_insufficient_window(self):
        A = lattice_zeroset(0.5, 1.0, 3)
        with pytest.raises(InsufficientDataError) as exc:
            poisson_residual(A, lattice_measure(K=1))
        assert exc.value.required_window is not None


class TestGrowthProfile:
    def test_lattice_floor(self):
        prof = growth_profile(lattice_measure(K=10), range(1, 11))
        assert prof.m_of_s == [(float(s), float(s)) for s in range(1, 11)]
        assert prof.t3_value == 0.0
        assert prof.kappa_fit == pytest.approx(1.0, abs=0.2)

    def test_union_no_atoms_below_one(self, funion):
        mu = logderiv_measure(funion, "auto", 10.0)
        prof = growth_profile(mu, np.linspace(0.5, 10, 20))
        assert prof.t3_value == 0.0

    def test_compressed_lattice_atom(self):
        mu = PointMeasure(0.6, np.array([-0.6, 0.6]), np.array([-0.6 + 0j, -0.6 + 0j]))
        prof = growth_profile(mu, [0.5, 1.0, 2.0])
        assert prof.t3_value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s_grid", [[0.5, 0.9], [0.5, 10.0], [5.0]])
    def test_no_slope_without_two_massive_points(self, s_grid):
        # the lattice's first atom is at 1: below it m(s) = 0, and the top
        # decade of [0.5, 10] holds one grid point
        prof = growth_profile(lattice_measure(K=10), s_grid)
        assert prof.kappa_fit is None

    def test_m_nondecreasing(self, funion):
        mu = logderiv_measure(funion, "auto", 10.0)
        ms = [m for _, m in growth_profile(mu, np.linspace(0.3, 9.5, 30)).m_of_s]
        assert all(a <= b for a, b in zip(ms, ms[1:]))
