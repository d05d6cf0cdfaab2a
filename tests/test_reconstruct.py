import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qclab.diffraction import PointMeasure, bohr_atoms, bohr_means, logderiv_measure
from qclab.errors import DomainError
from qclab.reconstruct import (
    coefficient_distance,
    exponential_type,
    g_boundedness,
    g_function,
    log_series,
    rebuild_dirichlet,
)
from qclab.wiener import canonicalize, evaluate
from qclab.zeros import find_real_zeros

from conftest import SQRT2, lattice_measure, lattice_zeroset, union_sum, union_zeroset


class TestCanonicalProduct:
    """The rebuild of a zero set's measure is its canonical product,
    normalized to 1 at the origin: for Z + 1/2 that is cos(pi z)."""

    @pytest.fixture(scope="class")
    def rebuilt(self):
        return rebuild_dirichlet(lattice_measure(K=10))

    def test_normalized_at_origin(self, rebuilt):
        assert evaluate(rebuilt, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_cos_at_one(self, rebuilt):
        assert abs(evaluate(rebuilt, 1.0) - (-1.0)) < 1e-4

    def test_matches_cosh_at_i(self, rebuilt):
        assert abs(evaluate(rebuilt, 1j) - math.cosh(math.pi)) < 1e-3

    def test_zero_hit_annotated(self, rebuilt):
        Z = find_real_zeros(rebuilt, (-3.2, 3.2))
        assert Z.count == 6
        k = int(np.argmin(np.abs(Z.points - 2.5)))
        assert Z.points[k] == pytest.approx(2.5, abs=1e-9)
        assert Z.mults[k] == 1

    def test_translation_recorded(self):
        # the zero set Z + 3/4 of cos(pi (z - 1/4)): the shift is carried by
        # the phases of the rebuilt coefficients, and the zeros move with it
        s = 0.25
        f = canonicalize([(-0.5, 0.5 * complex(math.cos(math.pi * s), math.sin(math.pi * s))),
                          (0.5, 0.5 * complex(math.cos(math.pi * s), -math.sin(math.pi * s)))])
        rebuilt = rebuild_dirichlet(logderiv_measure(f, 10.0))
        assert np.abs(np.angle(rebuilt.coeffs)) == pytest.approx(np.pi * s, abs=1e-12)
        Z = find_real_zeros(rebuilt, (-3.2, 3.2))
        assert np.allclose(Z.points, np.arange(-3, 3) + 0.75, atol=1e-9)
        for z in (0.3, 1.7, 0.4 + 0.5j):
            want = np.cos(np.pi * (z - s)) / np.cos(np.pi * s)
            assert abs(evaluate(rebuilt, z) - want) <= 1e-12 * max(1.0, abs(want))

    def test_agrees_with_expsum(self, cos, rebuilt):
        rng = np.random.default_rng(9)
        zs = np.concatenate([
            rng.uniform(-8, 8, 25),
            rng.uniform(-8, 8, 25) + 1j * rng.uniform(-1.5, 1.5, 25),
        ])
        f0 = evaluate(cos, 0.0)
        for z in zs:
            want = evaluate(cos, complex(z)) / f0
            assert abs(evaluate(rebuilt, complex(z)) - want) <= 1e-12 * max(1.0, abs(want))


class TestLogSeries:
    def test_lattice_first_term(self):
        # -b/gamma of the atom -1 at 1, the formal coefficient with no height factor
        L = log_series(lattice_measure(K=10))
        w, q = L.terms()[0]
        assert w == 1.0
        assert q == 1.0

    def test_empty_atoms_empty_series(self):
        mu = PointMeasure(1.0, np.empty(0), np.empty(0, complex))
        assert len(log_series(mu)) == 0

    def test_tiny_gamma_flagged(self):
        # |b|/gamma = 200 warns, and stays within the budget of 1000
        mu = PointMeasure(1.0, np.array([0.005]), np.array([1.0 + 0j]))
        with pytest.warns(UserWarning, match="mass budget"):
            log_series(mu)

    def test_atom_above_the_low_band_not_flagged(self):
        # |b|/gamma = 200 at gamma = 59.9 is no part of the low-frequency
        # mass budget, which sums over 0 < gamma < 1 only
        mu = PointMeasure(1.0, np.array([59.9]), np.array([200.0 * 59.9 + 0j]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(log_series(mu)) == 1

    def test_t3_budget_enforced(self):
        mu = PointMeasure(1.0, np.array([1e-6]), np.array([1.0 + 0j]))
        for rebuild in (log_series, rebuild_dirichlet):
            with pytest.warns(UserWarning):
                with pytest.raises(DomainError, match="exceeds the budget 1e"):
                    rebuild(mu)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(DomainError):
            log_series(lattice_measure(K=3, d=0.0))


class TestTruncationAtD:
    """The rebuild truncates its exponential at the density d: the top term
    of f e^{1j*pi*d*z} sits at d, whatever rounding d carries."""

    SCALES = (1.0, SQRT2, math.sqrt(3.0))

    @staticmethod
    def _dual_measure(d, scales, cutoff):
        # the atoms c(-1)^k at k c of prod cos(pi c z), with density d
        atoms = sorted((k * c, c * (-1.0) ** k) for c in scales
                       for k in range(1, int(cutoff / c) + 1) if k * c < cutoff)
        g = np.array([x for x, _ in atoms])
        b = np.array([m for _, m in atoms], dtype=complex)
        return PointMeasure(d, np.concatenate([-g[::-1], g]), np.concatenate([b[::-1], b]))

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_keeps_the_top_term(self, ulps):
        d = math.sqrt(3.0) + SQRT2 + 1.0  # another order than the lattice sums
        d = float(np.nextafter(d, np.inf * ulps)) if ulps else d
        g = rebuild_dirichlet(self._dual_measure(d, self.SCALES, 12.0))
        # prod cos(pi c z) = 2**-3 sum exp(pi i (+-1 +-sqrt2 +-sqrt3) z)
        assert len(g) == 8
        assert g.freqs[-1] == pytest.approx(d / 2.0, abs=1e-9)
        assert np.max(np.abs(g.coeffs - 0.125)) < 1e-12

    def test_atoms_above_d_do_not_enter(self):
        # an atom at gamma > d moves only the coefficients above gamma
        d = 1.0 + SQRT2 + math.sqrt(3.0)
        mu = self._dual_measure(d, self.SCALES, 12.0)
        extra = PointMeasure(d, np.concatenate([[-d - 0.5], mu.gammas, [d + 0.5]]),
                             np.concatenate([[0.01], mu.masses, [0.01]]))
        assert rebuild_dirichlet(extra).terms() == rebuild_dirichlet(mu).terms()

    def test_a_counted_density_keeps_the_top_term(self):
        # Bohr masses at the log atoms of cos(pi z) cos(sqrt2 pi z): d is the
        # count 9656 / 4000 = 2.414, below the top frequency 1 + sqrt2 of exp(L)
        A = union_zeroset(2100)
        gammas = logderiv_measure(union_sum(), 10.0).gammas
        means = bohr_means(A, gammas, [2000.0, 1000.0])
        mu = bohr_atoms(A, gammas, means[0], means[1], 2000.0, 0.05)
        assert mu.d == 2.414
        with pytest.warns(UserWarning, match="inexact"):
            g = rebuild_dirichlet(mu)
        shift = (1.0 + SQRT2 - mu.d) / 2.0
        want = [(e1 * 0.5 + e2 * SQRT2 / 2.0) + shift
                for e1, e2 in itertools.product((-1.0, 1.0), repeat=2)]
        j = [int(np.argmin(np.abs(g.freqs - w))) for w in want]
        assert np.max(np.abs(g.freqs[j] - want)) < 1e-9
        assert g.freqs[j[-1]] == pytest.approx((1.0 + SQRT2) / 2.0, abs=1e-3)
        assert np.max(np.abs(g.coeffs[j] - 0.25)) < 1e-3
        # the other terms come from the masses' errors of about 1/T
        assert np.max(np.abs(np.delete(g.coeffs, j))) < 1e-3

    def test_a_measure_cut_below_d_keeps_only_exact_terms(self):
        # the three-factor product at cutoff 3 < d: the largest atom is 2 sqrt2,
        # and the rebuild stops there, each kept term in the input's ratio 1
        f = canonicalize([(sum(e * c for e, c in zip(signs, self.SCALES)) / 2.0, 0.125)
                          for signs in itertools.product((-1.0, 1.0), repeat=3)])
        mu = logderiv_measure(f, 3.0)
        with pytest.warns(UserWarning, match="below the density"):
            g = rebuild_dirichlet(mu)
        assert len(g) == 6
        assert np.max(np.abs(g.freqs - f.freqs[:6])) < 1e-12
        assert np.max(np.abs(g.coeffs / g.coeffs[0] - 1.0)) < 1e-12

    def test_reconstruct_of_the_three_factor_measure(self, tmp_path):
        from qclab import io as qio
        from qclab.cli import main
        f = canonicalize([(sum(e * c for e, c in zip(signs, self.SCALES)) / 2.0, 0.125)
                          for signs in itertools.product((-1.0, 1.0), repeat=3)])
        qio.write_measure(logderiv_measure(f, 40.0), tmp_path / "measure.csv")
        out = tmp_path / "out"
        assert main(["reconstruct", "--input", str(tmp_path / "measure.csv"),
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["stages"]["reconstruct"][
            "rebuilt_terms"] == 8


class TestRebuildDirichlet:
    def test_lattice_measure_recovers_cos(self, cos):
        f = rebuild_dirichlet(lattice_measure(K=10))
        assert len(f) == 2
        for (w1, q1), (w2, q2) in zip(f.terms(), cos.terms()):
            assert w1 == pytest.approx(w2, abs=1e-9)
            assert abs(q1 - q2) < 1e-8

    def test_roundtrip_via_logderiv(self, cos):
        mu = logderiv_measure(cos, 10.0)
        f = rebuild_dirichlet(mu)
        for (w1, q1), (w2, q2) in zip(f.terms(), cos.terms()):
            assert abs(q1 - q2) < 1e-8

    def test_degenerate_empty_atoms_flagged(self):
        mu = PointMeasure(1.0, np.empty(0), np.empty(0, complex))
        with pytest.warns(UserWarning, match="degenerate"):
            f = rebuild_dirichlet(mu)
        assert len(f) == 1
        assert f.freqs[0] == pytest.approx(-0.5)

    def test_union_roundtrip_zeros(self, funion):
        mu = logderiv_measure(funion, 10.0)
        rebuilt = rebuild_dirichlet(mu)
        z_new = find_real_zeros(rebuilt, (-20.0, 20.0))
        z_old = find_real_zeros(funion, (-20.0, 20.0))
        assert z_new.count == z_old.count
        assert np.max(np.abs(z_new.expand() - z_old.expand())) < 1e-4

    def test_spectrum_extremes_attained(self, funion):
        mu = logderiv_measure(funion, 10.0)
        rebuilt = rebuild_dirichlet(mu)
        half_width = (1.0 + SQRT2) / 2.0
        assert rebuilt.freqs[0] == pytest.approx(-half_width, abs=1e-6)
        assert rebuilt.freqs[-1] == pytest.approx(half_width, abs=1e-6)
        assert abs(rebuilt.coeffs[0]) > 0.01
        assert abs(rebuilt.coeffs[-1]) > 0.01


class TestCoefficientDistance:
    """delta bounds |g - f| over the strip, terms paired by the merge rule."""

    F = [(-1.0, 0.3), (-0.2, 0.5j), (0.7, -0.4)]

    def test_bounds_the_sampled_distance(self):
        # a coefficient, a frequency within FREQ_TOL and an unmatched term moved
        f = canonicalize(self.F)
        g = canonicalize([(-1.0 + 3e-10, 0.3 + 1e-3), (-0.2, 0.5j), (0.7, -0.4 - 2e-3j),
                          (1.5, 1e-3)])
        h, zabs = 0.3, 25.0
        rng = np.random.default_rng(5)
        z = rng.uniform(-24.0, 24.0, 4000) + 1j * rng.uniform(-h, h, 4000)
        sampled = float(np.max(np.abs(evaluate(g, z) - evaluate(f, z))))
        delta = coefficient_distance(g, f, h, zabs)
        assert sampled <= delta < 2 * sampled

    def test_a_frequency_within_the_merge_tolerance_is_bounded(self):
        # paired with its partner, 5e-10 away: only the frequency term bounds it
        f = canonicalize(self.F)
        g = canonicalize([(-1.0 + 5e-10, 0.3)] + self.F[1:])
        h, zabs = 0.3, 25.0
        z = np.linspace(-24.99, 24.99, 2001) + 1j * h  # |z| <= zabs
        sampled = float(np.max(np.abs(evaluate(g, z) - evaluate(f, z))))
        assert 1e-8 < sampled <= coefficient_distance(g, f, h, zabs) < 2 * sampled

    def test_a_sum_against_itself_is_rounding(self):
        f = canonicalize(self.F)
        assert 0 < coefficient_distance(f, f, 0.3, 25.0) < 1e-12

    def test_an_unmatched_term_counts_at_full_size(self):
        f = canonicalize(self.F)
        g = canonicalize(self.F + [(1.5, 1e-3)])
        delta = coefficient_distance(g, f, 0.3, 25.0)
        assert delta == pytest.approx(1e-3 * math.exp(2 * math.pi * 1.5 * 0.3), rel=1e-9)


class TestGFunction:
    def test_lattice_g_vanishes(self):
        mu = lattice_measure(K=10)
        assert g_function(mu, 0.37) == 0
        rep = g_boundedness(mu, [5.0, 10.0, 20.0])
        assert rep.sup_bound == 0.0
        assert all(s == 0.0 for _, s in rep.windows)

    def test_single_atom_sup_two(self):
        mu = PointMeasure(0.6, np.array([-0.6, 0.6]), np.array([-0.6 + 0j, -0.6 + 0j]))
        val = g_function(mu, 5.0 / 6.0)
        assert abs(val) == pytest.approx(2.0, abs=1e-12)
        rep = g_boundedness(mu, [5.0, 10.0, 20.0, 40.0])
        assert rep.sup_bound == 2.0
        assert rep.windows[-1][1] == pytest.approx(2.0, abs=1e-9)

    def test_synthetic_masses_match_direct_sum(self):
        gs = np.array([1.0 / k for k in range(2, 21)])
        mu = PointMeasure(1.0, gs, gs.astype(complex))
        rep = g_boundedness(mu, [2.0, 5.0, 10.0, 25.0])
        xs = [0.3, 1.7, 9.2]
        for x in xs:
            direct = np.sum([g * (np.exp(2j * np.pi * g * x) - 1) / g for g in gs])
            assert g_function(mu, x) == pytest.approx(complex(direct), rel=1e-12)
        sups = [s for _, s in rep.windows]
        assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:]))
        # 2 * sum |b|/gamma = 2 * 19, which the sampled sups stay below
        assert rep.sup_bound == pytest.approx(38.0, rel=1e-15)
        assert sups[-1] <= rep.sup_bound


_MASS = st.floats(-10.0, 10.0, allow_nan=False)


class TestGSupBound:
    # each sample of |g| sums at most 6 terms of size at most 2|b|/gamma,
    # so it can exceed the exact value by a few ulps of 2 * t3: a relative
    # allowance of 1e-12 covers it.  Among subnormal masses rounding is
    # absolute, and the bound carries the allowance that g_boundedness
    # states, 2**-1074 * (sum of 2/gamma + 4 per atom + 1).  Every atom lies
    # in the low band, below 1 - FREQ_TOL: an atom within FREQ_TOL of 1 is
    # the spectral point 1, which is not in it
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-3, 1.0 - 1e-9, exclude_max=True), _MASS, _MASS),
                    min_size=1, max_size=6, unique_by=lambda t: t[0]))
    @example(atoms=[(0.5, 5e-324, 5e-324)])
    def test_sampled_sups_below_the_bound(self, atoms):
        g = np.array([a[0] for a in atoms])
        b = np.array([complex(a[1], a[2]) for a in atoms])
        rep = g_boundedness(PointMeasure(1.0, g, b), [2.0, 5.0, 10.0])
        allowance = (np.sum(2.0 / g) + 4.0 * g.size + 1.0) * 2.0 ** -1074
        assert rep.sup_bound == pytest.approx(2.0 * float(np.sum(np.abs(b) / g)) + allowance,
                                              rel=1e-15, abs=0.0)
        for _, sup in rep.windows:
            assert sup <= rep.sup_bound * (1.0 + 1e-12)


def _log_quotient(f, y1, y2):
    """The difference quotient of log |f(1j*y)| between y1 and y2, each log
    a log-sum-exp over the term magnitudes: an estimate of the type that
    does not read the spectrum's end."""
    logs = []
    for y in (y1, y2):
        a = np.log(np.abs(f.coeffs)) - 2.0 * np.pi * f.freqs * y
        amax = float(np.max(a))
        r = complex(np.sum(f.coeffs / np.abs(f.coeffs) * np.exp(a - amax)))
        logs.append(amax + math.log(abs(r)))
    return (logs[1] - logs[0]) / (y2 - y1)


class TestExponentialType:
    # a gap of 0.5 above the lowest frequency leaves the other terms a share
    # of at most 100 * exp(-2*pi*0.5*15) ~ 4e-19 of |f(15j)|
    @settings(max_examples=60, deadline=None)
    @given(st.floats(-5.0, 5.0), st.lists(st.integers(0, 5000), min_size=0, max_size=5,
                                          unique=True),
           st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-math.pi, math.pi)),
                    min_size=6, max_size=6))
    def test_equals_the_log_quotient(self, w0, offsets, polar):
        freqs = [w0] + [w0 + 0.5 + k / 1000.0 for k in offsets]
        f = canonicalize([(w, r * complex(math.cos(t), math.sin(t)))
                          for w, (r, t) in zip(freqs, polar)])
        exact = exponential_type(f)
        assert exact == -2.0 * math.pi * float(f.freqs[0])
        assert exact == pytest.approx(_log_quotient(f, 15.0, 20.0), abs=1e-9)

    def test_empty_sum_rejected(self):
        with pytest.raises(DomainError):
            exponential_type(canonicalize([]))

    def test_cos_single_height(self, cos):
        assert exponential_type(cos) == math.pi

    def test_cos_difference_quotient(self, cos):
        # the exact type is the limit that the difference quotient of log|f| approaches
        for y1, y2 in ((10.0, 15.0), (15.0, 20.0)):
            assert _log_quotient(cos, y1, y2) == pytest.approx(exponential_type(cos), abs=1e-9)

    def test_single_exponential_exact(self):
        f = canonicalize([(0.7, 2.0)])
        est = exponential_type(f)
        assert est == pytest.approx(-2 * math.pi * 0.7, rel=1e-12)

    def test_union_rebuilt_type(self, funion):
        mu = logderiv_measure(funion, 10.0)
        rebuilt = rebuild_dirichlet(mu)
        est = exponential_type(rebuilt)
        assert est == pytest.approx(math.pi * (1 + SQRT2), rel=0.02)

    def test_zeroset_input(self):
        # only a sum has an exact type; a zero set is a typed error
        with pytest.raises(DomainError, match="expects an ExpSum"):
            exponential_type(lattice_zeroset(0.5, 1.0, 10))

    def test_term_list_input(self):
        with pytest.raises(DomainError, match="expects an ExpSum"):
            exponential_type([(0.5, 1.0)])
