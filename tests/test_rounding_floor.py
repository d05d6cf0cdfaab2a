"""The rounding floor of the log-derivative atoms: every coefficient of f'/f
carries a proven bound on its rounding error, and an atom whose mass is
not above its bound is dropped as noise.

Three oracles stand behind it: the closed-form atoms of a cosine product
(k*c with mass c*(-1)^k for every scale c), the earlier log-derivative
path kept below as ``_parent_atoms`` and run at height 0, where its
at_height and exp factors are exact 1s (every kept atom must be its atom
bit for bit), and the truncated Neumann recursion rerun in 50-digit
mpmath arithmetic on the same float input (every coefficient, kept or
dropped, must lie within its bound of the exact one).
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qclab import wiener
from qclab.diffraction import logderiv_coefficients, logderiv_measure
from qclab.wiener import FREQ_TOL, at_height, canonicalize, derivative

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


# the parent's path: the same series, products and sums, merged by the same
# rule, with every exact cancellation dropped and no bound

def _parent_merge(freqs, coeffs):
    order = np.argsort(freqs, kind="stable")
    freqs, coeffs = freqs[order], coeffs[order]
    new_group = np.empty(freqs.size, dtype=bool)
    new_group[0] = True
    np.greater(np.diff(freqs), FREQ_TOL, out=new_group[1:])
    starts = np.flatnonzero(new_group)
    merged = np.add.reduceat(coeffs, starts)
    reps = freqs if starts.size == freqs.size else freqs[wiener._representatives(
        np.abs(coeffs), new_group, starts)]
    keep = np.abs(merged) > 0.0
    return reps[keep], merged[keep]


def _parent_product(f, g, cutoff=None):
    freqs = (f[0][:, None] + g[0][None, :]).ravel()
    coeffs = (f[1][:, None] * g[1][None, :]).ravel()
    if cutoff is not None:
        low = freqs <= cutoff + FREQ_TOL
        freqs, coeffs = freqs[low], coeffs[low]
    if freqs.size == 0:
        return np.empty(0), np.empty(0, complex)
    return _parent_merge(freqs, coeffs)


def _parent_atoms(f, s, cutoff):
    """d and the positive atoms above 1e-9, as the parent computed them."""
    fs = at_height(f, s)
    w1, q1 = float(fs.freqs[0]), complex(fs.coeffs[0])
    H = (fs.freqs[1:] - w1, fs.coeffs[1:] / q1)
    series = power = (np.zeros(1), np.ones(1, complex))
    while power[0].size:
        power = _parent_product(power, H, cutoff)
        power = (power[0], power[1] * complex(-1.0))
        series = _parent_merge(np.concatenate([series[0], power[0]]),
                               np.concatenate([series[1], power[1]]))
    inv = _parent_product(series, (np.array([-w1]), np.array([1.0 / q1])))
    dfs = at_height(derivative(f), s)
    ldf, ldc = _parent_product((dfs.freqs, dfs.coeffs), inv)
    i0 = np.flatnonzero(np.abs(ldf) <= FREQ_TOL)
    p0 = complex(ldc[i0[0]]) if i0.size else 0j
    sel = (ldf > FREQ_TOL) & (ldf < cutoff)
    g = ldf[sel]
    b = 1j * ldc[sel] * np.exp(2.0 * math.pi * g * s) / (2.0 * math.pi)
    keep = np.abs(b) > 1e-9
    return float((1j * p0 / math.pi).real), g[keep], b[keep]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_parent_atoms_or_noise(f, cutoff, scales):
    """The kept atoms are the parent's atoms at height 0 on the lattice, bit
    for bit, and each parent atom that is gone is off the lattice."""
    d, g0, b0 = _parent_atoms(f, 0.0, cutoff)
    mu = logderiv_measure(f, cutoff)
    g, b = mu.positive()
    assert mu.d == d
    i = np.searchsorted(g0, g)
    assert np.array_equal(_bits(g0[i]), _bits(g)) and np.array_equal(_bits(b0[i]), _bits(b))
    gone = np.setdiff1d(np.arange(g0.size), i)
    assert not any(on_lattice(x, scales) for x in g0[gone])
    assert mu.noise_dropped == gone.size


class TestThreeFactorFloor:
    # at cutoff 40 no coefficient is noise; at 60 the lowest noise, 4,169
    # coefficients in all, sits at 15 + 10 sqrt2 + 8 sqrt3
    @pytest.mark.parametrize("cutoff, atoms, noise, certified", [
        (40.0, 90, 0, 40.0),
        (60.0, 135, 4169, 15 + 10 * math.sqrt(2) + 8 * math.sqrt(3))])
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
        c = logderiv_coefficients(cosine_product(SCALES3), 60.0)
        kept = c.kept()
        noise = (np.abs(c.masses) > 1e-9) & ~kept
        assert np.min(np.abs(c.masses[kept]) / c.bounds[kept]) > 1e9
        assert np.max(np.abs(c.masses[noise]) / c.bounds[noise]) < 1e-3

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
