"""The rounding floor of the log-derivative atoms: every coefficient of f'/f
carries a proven bound on its rounding error, and an atom whose mass is
not above its bound is dropped as noise.

Three oracles stand behind it: the closed-form atoms of a cosine product
(k*c with mass c*(-1)^k for every scale c), the earlier log-derivative
path kept below as ``_product_path``, f' times the sum of the powers of
-H, with its own bound (every coefficient must lie within the two bounds
of its coefficient, and every atom it keeps must be kept), and the
truncated Neumann recursion rerun in 50-digit mpmath arithmetic on the
same float input (every coefficient, kept or dropped, must lie within
its bound of the exact one).
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qclab import wiener
from qclab.diffraction import LogderivCoefficients, logderiv_coefficients, logderiv_measure
from qclab.errors import CapacityError
from qclab.wiener import FREQ_TOL, canonicalize, derivative, multiply

from conftest import lee_yang_rows
from test_wiener import _product_power_series

SCALES3 = (1.0, math.sqrt(2.0), math.sqrt(3.0))


def cosine_product(scales):
    """prod cos(pi c z) over the scales: 2**-n at each frequency sum(+-c)/2."""
    weight = 0.5 ** len(scales)
    return canonicalize([(sum(e * c for e, c in zip(signs, scales)) / 2.0, weight)
                         for signs in itertools.product((-1.0, 1.0), repeat=len(scales))])


def dual_atoms(scales, cutoff):
    """(k*c, c*(-1)^k) below the cutoff, summed where two scales meet."""
    atoms = {}
    for c in scales:
        for k in range(1, int(cutoff / c) + 2):
            if k * c < cutoff:
                atoms[k * c] = atoms.get(k * c, 0.0) + c * (-1.0) ** k
    return sorted(atoms.items())


def on_lattice(gamma, scales):
    return any(round(gamma / c) >= 1 and abs(gamma - round(gamma / c) * c) <= 1e-9
               for c in scales)


# the parent's path: the inverse of f as the sum of the powers of -H, one
# product at a time, then f' times it, on Majorized sums, with the bound
# logderiv_coefficients puts on its own coefficients

def _product_path(f, cutoff):
    H, shift = wiener._monic(f)
    inverse = multiply(_product_power_series(H, lambda j: -1.0, cutoff), shift)
    ld = multiply(wiener.majorize(derivative(f), 5), inverse)
    i0 = np.flatnonzero((ld.coeffs != 0) & (np.abs(ld.freqs) <= FREQ_TOL))
    p0 = complex(ld.coeffs[i0[0]]) if i0.size else 0j
    sel = (ld.freqs > FREQ_TOL) & (ld.freqs < cutoff)
    Ku = (2.0 * ld.rounds + 3.0) * 2.0 ** -53
    bounds = Ku / (1.0 - Ku) * ld.major[sel] / (2.0 * math.pi) * (1.0 + 1e-12)
    return LogderivCoefficients(d=float((1j * p0 / math.pi).real), gammas=ld.freqs[sel],
                                masses=1j * ld.coeffs[sel] / (2.0 * math.pi), bounds=bounds,
                                cutoff=float(cutoff))


def assert_product_path_atoms(f, cutoff):
    """The coefficients of f'/f are the parent's: the same d, every
    frequency within FREQ_TOL, ghosts included, and every mass within the
    sum of the two bounds; every atom the parent keeps is kept.  Returns
    both."""
    ref, c = _product_path(f, cutoff), logderiv_coefficients(f, cutoff)
    assert c.d == ref.d
    assert c.gammas.size == ref.gammas.size
    assert np.max(np.abs(c.gammas - ref.gammas), initial=0.0) <= FREQ_TOL
    assert np.all(np.abs(c.masses - ref.masses) <= c.bounds + ref.bounds)
    assert np.all(c.kept()[ref.kept()])
    return c, ref


def assert_parent_atoms_or_noise(f, cutoff, scales):
    """The kept atoms are the parent's atoms within both bounds, and every
    coefficient above 1e-9 that is not kept, here or by the parent, is off
    the lattice."""
    c, ref = assert_product_path_atoms(f, cutoff)
    for x in (c, ref):
        noise = (np.abs(x.masses) > 1e-9) & ~c.kept()
        assert not any(on_lattice(g, scales) for g in x.gammas[noise])


class TestThreeFactorFloor:
    # no coefficient is noise at cutoffs 40 and 60: f'/f solved directly
    # never forms the inverse's large cancelling coefficients, whose
    # product with f' left 4,169 noise coefficients at 60 from
    # 15 + 10 sqrt2 + 8 sqrt3 up (the parent's path, below)
    @pytest.mark.parametrize("cutoff, atoms, noise, certified", [
        (40.0, 90, 0, 40.0),
        (60.0, 135, 0, 60.0)])
    def test_keeps_exactly_the_lattice_atoms(self, cutoff, atoms, noise, certified):
        mu = logderiv_measure(cosine_product(SCALES3), cutoff)
        g, b = mu.positive()
        want = dual_atoms(SCALES3, cutoff)
        assert g.size == len(want) == atoms
        assert np.max(np.abs(g - [w for w, _ in want])) < 1e-9
        assert np.max(np.abs(b - [m for _, m in want])) < 1e-9
        assert mu.noise_dropped == noise
        assert mu.certified_cutoff == pytest.approx(certified, abs=1e-9)
        assert 0.0 < mu.max_error_bound < 1e-10

    def test_true_and_spurious_atoms_lie_far_from_the_bound(self):
        f = cosine_product(SCALES3)
        c = logderiv_coefficients(f, 60.0)
        kept = c.kept()
        assert np.min(np.abs(c.masses[kept]) / c.bounds[kept]) > 1e9
        # the other coefficients, exactly 0 off the lattice, lie far below the floor
        assert np.max(np.abs(c.masses[~kept])) < 1e-12
        # the parent's noise lies far below its bound
        ref = _product_path(f, 60.0)
        noise = (np.abs(ref.masses) > 1e-9) & ~ref.kept()
        assert np.count_nonzero(noise) == 4169
        assert ref.gammas[noise][0] == pytest.approx(15 + 10 * math.sqrt(2) + 8 * math.sqrt(3))
        assert np.max(np.abs(ref.masses[noise]) / ref.bounds[noise]) < 1e-3

    @pytest.mark.parametrize("cutoff", [40.0, 60.0])
    def test_kept_atoms_are_the_parent_atoms(self, cutoff):
        assert_parent_atoms_or_noise(cosine_product(SCALES3), cutoff, SCALES3)

    @pytest.mark.parametrize("scales", [(1.0,), (1.0, math.sqrt(2.0))])
    def test_nothing_dropped_without_noise(self, scales):
        f = cosine_product(scales)
        mu = logderiv_measure(f, 10.0)
        assert mu.noise_dropped == 0
        assert mu.certified_cutoff == 10.0
        assert_parent_atoms_or_noise(f, 10.0, scales)


class TestCosineProperty:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.floats(0.7, 2.0), min_size=2, max_size=3),
           st.floats(14.0, 16.0))
    def test_no_lattice_atom_dropped_none_off_the_lattice(self, scales, cutoff):
        scales = tuple(scales)
        f = cosine_product(scales)
        # frequencies apart (a tiny gap makes the series cutoff/gap powers deep,
        # and its rounding grows with them), lattices that meet only exactly,
        # and no lattice point at the cutoff
        assume(len(f) == 2 ** len(scales) and np.min(np.diff(f.freqs)) > 0.1)
        want = dual_atoms(scales, cutoff + 1.0)
        assume(np.min(np.diff([w for w, _ in want])) > 1e-6)
        assume(min(abs(w - cutoff) for w, _ in want) > 1e-6)
        want = dual_atoms(scales, cutoff)
        mu = logderiv_measure(f, cutoff)
        g, b = mu.positive()
        assert all(on_lattice(x, scales) for x in g)
        assert g.size == len(want)
        assert np.max(np.abs(b - [m for _, m in want])) < 1e-8
        assert_parent_atoms_or_noise(f, cutoff, scales)


class TestLeeYangAgainstTheParent:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 2 ** 16), st.sampled_from([8.3, 12.3]))
    def test_the_parent_coefficients_within_both_bounds(self, n, seed, cutoff):
        f = canonicalize([(w, complex(re, im)) for w, re, im in lee_yang_rows(n, seed)])
        c, _ = assert_product_path_atoms(f, cutoff)
        assert c.kept().sum() > 10


class TestCapacity:
    def test_the_solve_raises_above_max_terms(self, monkeypatch):
        f = cosine_product(SCALES3)
        assert logderiv_coefficients(f, 20.0).gammas.size > 200
        monkeypatch.setattr(wiener, "MAX_TERMS", 200)
        with pytest.raises(CapacityError, match="above the capacity 200"):
            logderiv_coefficients(f, 20.0)

    def test_the_solve_raises_above_the_workspace_cap(self, monkeypatch):
        # a band of the three-factor product has at least 2 live terms, each
        # with 7 products
        monkeypatch.setattr(wiener, "_WORK_CAP", 13)
        with pytest.raises(CapacityError, match="above the workspace cap 13"):
            logderiv_coefficients(cosine_product(SCALES3), 20.0)


def _mp_coefficients(f, cutoff, keys):
    """The truncated Neumann recursion and f'/f in 50-digit arithmetic on
    the float input f, the formal series at height 0, as {key: (frequency,
    b)} for the frequencies 0 < gamma < cutoff.  ``keys[j]`` is an integer
    tuple for the frequency of f's term j above f's lowest: path
    frequencies add as keys, which groups them without rounding."""
    with mpmath.workdps(50):
        w = [mpmath.mpf(float(x)) for x in f.freqs]
        q = [mpmath.mpc(complex(c)) for c in f.coeffs]
        H = [(keys[j], w[j] - w[0], q[j] / q[0]) for j in range(1, len(w))]

        def add(table, key, freq, value):
            table[key] = (freq, table[key][1] + value) if key in table else (freq, value)

        zero = tuple(0 for _ in keys[0])
        series = power = {zero: (mpmath.mpf(0), mpmath.mpc(1))}
        while power:
            nxt = {}
            for key, (fr, c) in power.items():
                for hk, hf, hv in H:
                    if fr + hf <= cutoff + FREQ_TOL:
                        add(nxt, tuple(a + b for a, b in zip(key, hk)), fr + hf, -c * hv)
            power = nxt
            for key, (fr, c) in power.items():
                add(series, key, fr, c)
        ld = {}
        for j in range(len(w)):
            df = q[j] * 2j * mpmath.pi * w[j]
            for key, (fr, c) in series.items():
                add(ld, tuple(a + b for a, b in zip(key, keys[j])), w[j] + fr - w[0],
                    df * c / q[0])
        return {key: (float(fr), 1j * value / (2 * mpmath.pi)) for key, (fr, value) in ld.items()
                if FREQ_TOL < fr < cutoff}


def assert_bounds_hold(f, cutoff, keys):
    exact = _mp_coefficients(f, cutoff, keys)
    c = logderiv_coefficients(f, cutoff)
    table = sorted(exact.values(), key=lambda t: t[0])
    freqs = np.array([fr for fr, _ in table])
    assert c.gammas.size == freqs.size  # every exact coefficient has a float one
    with mpmath.workdps(50):
        for gamma, b, bound in zip(c.gammas, c.masses, c.bounds):
            i = int(np.argmin(np.abs(freqs - gamma)))
            assert abs(freqs[i] - gamma) < 1e-12
            err = float(abs(mpmath.mpc(complex(b)) - table[i][1]))
            assert err <= bound, (gamma, complex(b), err, bound)
    return c


class TestBoundAgainstMpmath:
    @pytest.mark.parametrize("cutoff", [12.3, 20.3])
    def test_three_factor_product(self, cutoff):
        f = cosine_product(SCALES3)
        # f's frequencies above the lowest are a + b sqrt2 + c sqrt3, a, b, c in {0, 1}
        base = np.array(SCALES3)
        keys = []
        for w in f.freqs - f.freqs[0]:
            key = min(itertools.product((0, 1), repeat=3), key=lambda k: abs(base @ k - w))
            keys.append(key)
        c = assert_bounds_hold(f, cutoff, keys)
        kept = c.kept()
        assert kept.sum() == len(dual_atoms(SCALES3, cutoff))
        assert (~kept & (np.abs(c.masses) > 0)).any()  # noise is checked too

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generic_complex_sum(self, seed):
        # integer steps above the lowest frequency and complex coefficients
        # with no cancellation: every rounding path of the bound is exercised
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        f = canonicalize(list(zip(np.arange(5) - 1.75, coeffs)))
        keys = [(k,) for k in range(5)]
        c = assert_bounds_hold(f, 9.5, keys)
        assert c.kept().any()
        assert not ((np.abs(c.masses) > 1e-9) & ~c.kept()).any()
