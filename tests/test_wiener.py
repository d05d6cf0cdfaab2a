import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qclab import wiener
from qclab.apset import phi_fourier, phi_representation
from qclab.diffraction import bohr_means
from qclab.errors import CapacityError, DivergenceError, InvalidInputError
from qclab.wiener import (
    add,
    at_height,
    canonicalize,
    choose_height,
    constant,
    derivative,
    empty_sum,
    evaluate,
    exp_series,
    is_hermitian,
    multiply,
    neumann_inverse,
    scale,
)

from conftest import SQRT2, union_zeroset


def random_sum(rng, n_terms=12, freq_span=5.0):
    freqs = rng.uniform(-freq_span, freq_span, n_terms)
    coeffs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return canonicalize(list(zip(freqs, coeffs)))


class TestCanonicalize:
    def test_cos_already_canonical(self):
        f = canonicalize([(0.5, 0.5), (-0.5, 0.5)])
        assert f.terms() == [(-0.5, 0.5 + 0j), (0.5, 0.5 + 0j)]

    def test_exact_cancellation(self):
        assert len(canonicalize([(0.5, 1.0), (0.5, -1.0)])) == 0

    def test_merge_within_freq_tol(self):
        f = canonicalize([(0.5, 0.5), (0.5 + 1e-12, 0.5)])
        assert len(f) == 1
        assert abs(f.freqs[0] - 0.5) < 1e-9
        assert abs(f.coeffs[0] - 1.0) < 1e-15

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        f = random_sum(rng)
        g = canonicalize(f.terms())
        assert np.array_equal(f.freqs, g.freqs)
        assert np.array_equal(f.coeffs, g.coeffs)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            canonicalize([(np.inf, 1.0)])
        with pytest.raises(InvalidInputError):
            canonicalize([(0.0, np.nan)])

    def test_prunes_tiny_coefficients(self):
        f = canonicalize([(0.0, 1.0), (1.0, 1e-20)])
        assert len(f) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 1e-10, 5e-10, 1.0]),
                              st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf, np.nan])),
                    min_size=1, max_size=40))
    def test_representative_is_the_lexsort_pick(self, members):
        # gaps of 1e-10 and 5e-10 chain members into one group, 1.0 starts
        # a new one; magnitudes repeat (ties) and include inf and nan
        gaps, mag = (np.array(v, dtype=float) for v in zip(*members))
        freqs = np.cumsum(gaps)
        new_group = np.empty(freqs.size, dtype=bool)
        new_group[0] = True
        np.greater(np.diff(freqs), wiener.FREQ_TOL, out=new_group[1:])
        starts = np.flatnonzero(new_group)
        group = np.cumsum(new_group) - 1
        want = np.lexsort((-mag, group))[starts]
        assert np.array_equal(wiener._representatives(mag, new_group, starts), want)


class TestEvaluate:
    def test_cos_values(self, cos):
        assert evaluate(cos, 0.0) == pytest.approx(1.0)
        assert abs(evaluate(cos, 0.5)) < 1e-15
        assert evaluate(cos, 1j) == pytest.approx(math.cosh(math.pi), rel=1e-14)

    def test_hermitian_real_on_axis(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            freqs = rng.uniform(0.1, 4.0, 6)
            coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
            terms = list(zip(freqs, coeffs)) + list(zip(-freqs, np.conj(coeffs)))
            f = canonicalize(terms)
            assert is_hermitian(f)
            xs = rng.uniform(-10, 10, 50)
            vals = evaluate(f, xs.astype(complex))
            scale_ = np.max(np.abs(vals)) + 1e-30
            assert np.max(np.abs(vals.imag)) / scale_ < 1e-13

    def test_overflow_reported(self, cos):
        with pytest.raises(OverflowError):
            evaluate(cos, 1j * 1e6)

    def test_array_shape(self, cos):
        z = np.zeros((3, 4), complex)
        assert evaluate(cos, z).shape == (3, 4)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestExpKernel:
    """One exp pass serves evaluate, the Bohr means, phi_fourier and sup|g|:
    its values may not depend on the blocks or the budget."""

    # 5085 - 1 is a multiple of the 124 rows per block that an 8-term sum
    # gets at budget 997, so that call has a one-row last block to join;
    # a prefix of other points moves the block bounds over the points, and
    # 123 of them put the first point last in a block of 124 rows
    @pytest.mark.parametrize("n_points", [1, 2, 3, 5085])
    @pytest.mark.parametrize("budget", [wiener._EXP_BUDGET, 997, 41])
    @pytest.mark.parametrize("prefix", [0, 1, 123])
    def test_evaluate_equals_one_block(self, monkeypatch, n_points, budget, prefix):
        rng = np.random.default_rng(0)
        f = random_sum(rng, n_terms=8)
        assert len(f) == 8
        z = rng.uniform(-50.0, 50.0, n_points) + 1j * rng.uniform(-0.5, 0.5, n_points)
        # one block of at least two rows: a lone point is padded
        rows = np.resize(z, max(2, n_points))
        one_block = (np.exp(2j * np.pi * np.outer(rows, f.freqs)) @ f.coeffs)[:n_points]
        # the reason for the join and the pad: alone, a row rounds differently
        one_row = np.exp(2j * np.pi * np.outer(z[-1:], f.freqs)) @ f.coeffs
        assert one_row[0] != one_block[-1]
        before = rng.uniform(-50.0, 50.0, prefix) + 1j * rng.uniform(-0.5, 0.5, prefix)
        monkeypatch.setattr(wiener, "_EXP_BUDGET", budget)
        assert _same_bits(evaluate(f, np.concatenate([before, z]))[prefix:], one_block)

    @pytest.mark.parametrize("n_terms", [2, 8, 40])
    @pytest.mark.parametrize("complex_z", [False, True])
    @pytest.mark.parametrize("budget", [wiener._EXP_BUDGET, 997, 41])
    def test_value_does_not_depend_on_the_call(self, monkeypatch, n_terms, complex_z, budget):
        # the zero finder batches points of many pieces into one call; a
        # point must get the same bits alone, in a small call or in a batch
        rng = np.random.default_rng(n_terms)
        f = random_sum(rng, n_terms=n_terms)
        assert len(f) == n_terms
        z = rng.uniform(-50.0, 50.0, 257) + (1j * rng.uniform(-0.5, 0.5, 257) if complex_z else 0)
        monkeypatch.setattr(wiener, "_EXP_BUDGET", budget)
        batch = evaluate(f, z)
        for size in (1, 2, 3, 5):
            parts = [evaluate(f, z[i:i + size]) for i in range(0, z.size, size)]
            assert _same_bits(np.concatenate(parts), batch)
        assert all(evaluate(f, z[i]) == batch[i] for i in range(0, z.size, 16))

    @pytest.mark.parametrize("budget", [wiener._EXP_BUDGET, 997, 41])
    def test_phi_fourier_equals_one_block(self, monkeypatch, budget):
        phi = phi_representation(union_zeroset(500), 1.0 + SQRT2)
        N = 400
        thetas = np.array([0.0, 0.1, SQRT2 - 1.0, 0.25, -0.3, 1.0 / 3.0, 0.5])
        mask = np.abs(phi.n) <= N
        one_block = (np.exp(-2j * np.pi * np.outer(thetas, phi.n[mask]))
                     @ phi.values[mask]) / (2.0 * N)
        monkeypatch.setattr(wiener, "_EXP_BUDGET", budget)
        coeffs, _ = phi_fourier(phi, thetas, N=N)
        assert _same_bits(coeffs, one_block)

    def test_overflow_in_any_block_is_an_error_not_a_warning(self, monkeypatch, cos):
        monkeypatch.setattr(wiener, "_EXP_BUDGET", 997)  # 498 rows per block: three blocks
        z = np.linspace(-5.0, 5.0, 1000) + 1e3j
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError):
                evaluate(cos, z)

    @pytest.mark.parametrize("budget", [wiener._EXP_BUDGET, 500_000])
    def test_bohr_means_peak_is_one_buffer(self, monkeypatch, budget):
        # the exp is formed in place, so a pass of several blocks holds
        # one buffer of _EXP_BUDGET entries and no second array of that size
        monkeypatch.setattr(wiener, "_EXP_BUDGET", budget)
        A = union_zeroset(500)
        gammas = 0.01 * np.arange(2000)
        buffer = 16 * budget
        assert gammas.size * A.count > 4 * budget
        tracemalloc.start()
        try:
            bohr_means(A, gammas, [400.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buffer < peak < 1.25 * buffer


class TestAlgebraOps:
    def test_cos_squared(self, cos):
        sq = multiply(cos, cos)
        assert sq.terms() == [(-1.0, 0.25 + 0j), (0.0, 0.5 + 0j), (1.0, 0.25 + 0j)]

    def test_multiply_by_empty(self, cos):
        assert len(multiply(cos, empty_sum())) == 0

    def test_add_cancels(self, cos):
        assert len(add(cos, scale(cos, -1.0))) == 0

    def test_submultiplicative_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f, g = random_sum(rng), random_sum(rng)
            assert multiply(f, g).wiener_norm <= f.wiener_norm * g.wiener_norm * (1 + 1e-12)

    def test_product_evaluates_pointwise(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            f, g = random_sum(rng, 8, 2.0), random_sum(rng, 8, 2.0)
            z = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
            lhs = evaluate(multiply(f, g), z)
            rhs = evaluate(f, z) * evaluate(g, z)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_capacity_error(self, monkeypatch):
        rng = np.random.default_rng(4)
        f = random_sum(rng, 600, 1.0)
        monkeypatch.setattr(wiener, "MAX_TERMS", 1000)
        with pytest.raises(CapacityError):
            multiply(f, random_sum(rng, 600, 1000.0))


class TestDerivative:
    def test_cos_derivative_terms(self, cos):
        d = derivative(cos)
        expect = {-0.5: -0.5j * math.pi, 0.5: 0.5j * math.pi}
        for w, q in d.terms():
            assert q == pytest.approx(expect[w], rel=1e-15)

    def test_constant_and_empty(self):
        assert len(derivative(constant(3.0))) == 0
        assert len(derivative(empty_sum())) == 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        f = random_sum(rng, 10, 3.0)
        d = derivative(f)
        h = 1e-5
        xs = rng.uniform(-5, 5, 100).astype(complex)
        fd = (evaluate(f, xs + h) - evaluate(f, xs - h)) / (2 * h)
        dv = evaluate(d, xs)
        rel = np.abs(fd - dv) / (np.abs(dv) + 1.0)
        assert np.max(rel) < 1e-6


class TestAtHeight:
    def test_cos_at_height_one(self, cos):
        f = at_height(cos, 1.0)
        expect = {-0.5: math.exp(math.pi) / 2, 0.5: math.exp(-math.pi) / 2}
        for w, q in f.terms():
            assert q == pytest.approx(expect[w], rel=1e-14)

    def test_identity_at_zero(self, cos):
        f = at_height(cos, 0.0)
        assert np.array_equal(f.coeffs, cos.coeffs)

    def test_constant_invariant(self):
        c = constant(2.5)
        assert at_height(c, 7.0).terms() == c.terms()

    def test_matches_evaluation(self, cos):
        for s in (0.3, -1.2, 2.0):
            fs = at_height(cos, s)
            for x in (0.0, 0.7, -3.1):
                assert evaluate(fs, x) == pytest.approx(evaluate(cos, x + 1j * s), rel=1e-12)

    def test_heights_compose(self):
        rng = np.random.default_rng(6)
        f = random_sum(rng, 8, 2.0)
        a = at_height(at_height(f, 0.4), 0.35)
        b = at_height(f, 0.75)
        assert np.max(np.abs(a.coeffs - b.coeffs)) / b.wiener_norm < 1e-12


def _residual_below(fs, inv, cutoff):
    """||fs * inv - 1||_W over the frequencies up to the cutoff, where the
    truncated inverse is exact."""
    return add(multiply(fs, inv, keep_freqs_up_to=cutoff), constant(-1.0)).wiener_norm


class TestNeumannInverse:
    def test_geometric_series(self):
        f = canonicalize([(0.0, 1.0), (1.0, 0.5)])
        inv = neumann_inverse(f, 0.0, 40.0)
        assert inv.freqs[-1] == 40.0
        assert inv.wiener_norm == pytest.approx(2.0, abs=1e-9)
        assert _residual_below(at_height(f, 0.0), inv, 40.0) < 1e-10

    def test_single_term(self):
        f = canonicalize([(0.7, 2.0)])
        inv = neumann_inverse(f, 0.0, 10.0)
        assert inv.terms() == [(-0.7, 0.5 + 0j)]

    def test_cos_height_one_h_norm(self, cos):
        # the normalized remainder has a single term of size exp(-2*pi)
        fs = at_height(cos, 1.0)
        h = abs(fs.coeffs[1] / fs.coeffs[0])
        assert h == pytest.approx(math.exp(-2 * math.pi), rel=1e-12)
        inv = neumann_inverse(cos, 1.0, 10.0)
        assert inv.wiener_norm * abs(fs.coeffs[0]) < 3.0

    def test_auto_height_bounds(self):
        # spectral gaps bounded below, else the auto height (inverse to the
        # lowest gap) can overflow at_height
        rng = np.random.default_rng(7)
        for _ in range(50):
            freqs = np.cumsum(rng.uniform(0.05, 1.0, 10)) - 2.5
            coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
            f = canonicalize(list(zip(freqs, coeffs)))
            s = choose_height(f)
            fs = at_height(f, s)
            hnorm = float(np.sum(np.abs(fs.coeffs[1:]))) / abs(fs.coeffs[0])
            assert hnorm < 2.0 / 3.0
            inv = neumann_inverse(f, s, 4.0)
            assert _residual_below(fs, inv, 4.0) < 1e-10
            assert inv.wiener_norm * abs(fs.coeffs[0]) < 3.0

    def test_divergence_error(self):
        f = canonicalize([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(DivergenceError):
            neumann_inverse(f, 0.0, 10.0)


class TestExpSeries:
    def test_empty_gives_one(self):
        assert exp_series(empty_sum(), 1.0).terms() == [(0.0, 1 + 0j)]

    def test_rejects_a_spectrum_that_is_not_strictly_positive(self):
        for g in (canonicalize([(0.0, math.log(2.0)), (1.0, 0.1)]),
                  canonicalize([(-0.5, 0.1), (1.0, 0.1)])):
            with pytest.raises(InvalidInputError):
                exp_series(g, 10.0)
        with pytest.raises(InvalidInputError):
            exp_series(canonicalize([(1.0, 0.1)]), math.inf)

    def test_single_frequency_power_series(self):
        c = 0.3 - 0.2j
        e = exp_series(canonicalize([(1.0, c)]), 20.0)
        assert len(e) == 21
        for k, (w, q) in enumerate(e.terms()):
            assert w == pytest.approx(float(k))
            assert q == pytest.approx(c ** k / math.factorial(k), rel=1e-10, abs=1e-16)

    def test_matches_pointwise_exp(self):
        rng = np.random.default_rng(8)
        g = canonicalize([(0.5, 0.1), (1.3, 0.05 + 0.02j), (2.0, -0.07)])
        e = exp_series(g, 20.0)
        xs = rng.uniform(-5, 5, 40)
        lhs = evaluate(e, xs.astype(complex))
        rhs = np.exp(evaluate(g, xs.astype(complex)))
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-9

    def test_norm_bound(self):
        g = canonicalize([(0.5, 0.4), (1.0, -0.3j)])
        e = exp_series(g, 20.0)
        assert e.wiener_norm <= math.exp(g.wiener_norm) * (1 + 1e-12)


# Integer spectra: every series below is a power series in t = exp(2j*pi*x),
# so its truncation has a closed recurrence to compare with.
_small = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def _integer_sum(coeffs, constant_term=None):
    terms = [(float(k), c) for k, c in enumerate(coeffs, start=1)]
    if constant_term is not None:
        terms.append((0.0, constant_term))
    return canonicalize(terms, prune_tol=0.0)


def _dense(f, n):
    out = np.zeros(n + 1, complex)
    for w, q in f.terms():
        out[int(w)] = q
    return out


@st.composite
def _scaled_coeffs(draw, norm_max):
    # coefficients of t, t^2, ... with Wiener norm at most norm_max
    coeffs = draw(st.lists(_small, min_size=1, max_size=5))
    total = sum(abs(c) for c in coeffs)
    if total > norm_max:
        coeffs = [c * (norm_max / total) for c in coeffs]
    return coeffs


class TestTruncatedSeries:
    @settings(max_examples=40, deadline=None)
    @given(_scaled_coeffs(0.9), st.integers(1, 30))
    def test_neumann_matches_reciprocal_recurrence(self, h, N):
        inv = neumann_inverse(_integer_sum(h, 1.0), 0.0, N)
        assert inv.freqs[-1] <= N
        c = np.zeros(N + 1, complex)
        c[0] = 1.0
        for n in range(1, N + 1):
            c[n] = -sum(h[k - 1] * c[n - k] for k in range(1, min(n, len(h)) + 1))
        assert np.max(np.abs(_dense(inv, N) - c)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_scaled_coeffs(2.0), st.integers(1, 30))
    def test_exp_matches_power_series_recurrence(self, g, N):
        e = exp_series(_integer_sum(g), N)
        assert e.freqs[-1] <= N
        a = np.zeros(N + 1, complex)
        a[0] = 1.0
        for n in range(1, N + 1):
            a[n] = sum(k * g[k - 1] * a[n - k] for k in range(1, min(n, len(g)) + 1)) / n
        assert np.max(np.abs(_dense(e, N) - a)) < 1e-12 * math.exp(2.0)

    @settings(max_examples=25, deadline=None)
    @given(_scaled_coeffs(0.9), st.integers(1, 15))
    def test_doubling_the_bound_keeps_the_low_terms(self, x, X):
        f = _integer_sum(x, 1.0)
        g = _integer_sum(x)
        for series in (lambda b: neumann_inverse(f, 0.0, b), lambda b: exp_series(g, b)):
            low, high = series(X), series(2 * X)
            sel = high.freqs <= X
            assert np.array_equal(low.freqs, high.freqs[sel])
            assert np.array_equal(low.coeffs, high.coeffs[sel])


def _bits(f):
    return (np.ascontiguousarray(f.freqs).view(np.uint64).tolist(),
            np.ascontiguousarray(f.coeffs).view(np.uint64).tolist())


@st.composite
def _tied_sum(draw, step):
    # frequencies on a lattice of `step` (pairwise sums tie exactly and often),
    # some moved by a few ulps or by 1.5 FREQ_TOL, complex coefficients
    ks = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True))
    terms = []
    for k in ks:
        w = k * step + draw(st.sampled_from([0.0, 0.0, 1e-15, -2e-15, 1.5e-9]))
        terms.append((w, complex(draw(_small)) or 1.0))
    return canonicalize(terms, prune_tol=0.0)


class TestProductLayout:
    """``multiply`` lays the pairwise terms out by columns of g when the
    spectra are apart; the product is bit for bit the row layout's."""

    @staticmethod
    def _rows(monkeypatch, f, g, **kw):
        with monkeypatch.context() as m:
            m.setattr(wiener, "_runs_apart", lambda f, g: False)
            return multiply(f, g, **kw)

    @settings(max_examples=150, deadline=None)
    @given(_tied_sum(0.25), _tied_sum(0.5), st.sampled_from([None, 2.0, 30.0]))
    def test_columns_equal_rows(self, f, g, cutoff):
        mp = pytest.MonkeyPatch()
        try:
            rows = self._rows(mp, f, g, keep_freqs_up_to=cutoff)
        finally:
            mp.undo()
        assert wiener._runs_apart(f, g)
        assert _bits(multiply(f, g, keep_freqs_up_to=cutoff)) == _bits(rows)

    def test_close_frequencies_keep_the_row_layout(self, monkeypatch):
        # frequencies 1 ulp apart (not canonical): their pairwise sums tie
        # with i and j in the same order, which only the row layout orders
        w = np.array([1.0, np.nextafter(1.0, 2.0)])
        f = wiener._make(w, np.array([1.0, 3.0 + 1j]))
        g = wiener._make(w, np.array([2.0, 1j]))
        assert not wiener._runs_apart(f, g)
        assert _bits(multiply(f, g)) == _bits(self._rows(monkeypatch, f, g))


def _with_ghosts(f, ghosts):
    """f as a Majorized sum with extra zero terms at ``ghosts``."""
    freqs = np.concatenate([f.freqs, ghosts])
    order = np.argsort(freqs, kind="stable")
    coeffs = np.concatenate([f.coeffs, np.zeros(len(ghosts), complex)])
    return wiener._majorized(freqs[order], coeffs[order], np.abs(coeffs[order]) + 1.0, 2)


class TestMajorizedGhosts:
    """Ghost terms carry a majorant but never enter the coefficients: the
    live terms of a Majorized result are the canonical result bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(_tied_sum(0.25), _tied_sum(0.5),
           st.lists(st.sampled_from([0.1, 0.25 + 0.75e-9, 0.5 + 0.75e-9, 7.3]), max_size=3,
                    unique=True))
    def test_live_terms_are_the_canonical_result(self, f, g, ghosts):
        # ghosts 0.75 FREQ_TOL above a lattice point chain to a term 1.5
        # FREQ_TOL above it: the majorant's chain joins what the coefficients keep apart
        ghosts = [x for x in ghosts if np.min(np.abs(f.freqs - x)) > 0]
        F, G = _with_ghosts(f, ghosts), _with_ghosts(g, [])
        for plain, tracked in ((multiply(f, g), multiply(F, G)),
                               (multiply(f, g, keep_freqs_up_to=3.0),
                                multiply(F, G, keep_freqs_up_to=3.0)),
                               (add(f, g), add(F, G))):
            assert isinstance(tracked, wiener.Majorized)
            assert _bits(tracked.canonical()) == _bits(plain)
            assert np.all(np.diff(tracked.freqs) > 0)
            assert np.all(tracked.major >= np.abs(tracked.coeffs))

    def test_a_ghost_between_two_groups_gives_both_its_majorant(self):
        f = wiener._majorized(np.array([1.0, 1.0 + 1.5e-9]), np.array([1.0, 2.0 + 0j]),
                              np.array([1.0, 2.0]), 2)
        g = wiener._majorized(np.array([1.0 + 0.75e-9]), np.array([0j]), np.array([4.0]), 2)
        out = add(f, g)
        assert out.freqs.tolist() == [1.0, 1.0 + 1.5e-9]
        assert out.coeffs.tolist() == [1.0, 2.0]
        assert out.major.tolist() == [7.0, 7.0]

    def test_exact_cancellation_stays_a_ghost(self, cos):
        out = add(wiener.majorize(cos), scale(wiener.majorize(cos), -1.0))
        assert len(out.canonical()) == 0
        assert out.freqs.tolist() == [-0.5, 0.5]
        assert np.all(out.major == 1.0)

    def test_mixed_operands_rejected(self, cos):
        with pytest.raises(TypeError):
            multiply(wiener.majorize(cos), cos)

    def test_ghosts_do_not_count_toward_the_capacity(self, monkeypatch, cos):
        # 3 live terms and 2 ghosts times 2 terms: 6 live pairs of 10, and
        # a product of 4 live terms and 3 ghosts
        f = wiener._majorized(np.array([0.0, 0.25, 1.0, 1.25, 2.0]),
                              np.array([1.0, 0j, 1.0, 0j, 1.0]), np.ones(5), 2)
        g = wiener.majorize(cos)
        monkeypatch.setattr(wiener, "_WORK_CAP", 6)
        monkeypatch.setattr(wiener, "MAX_TERMS", 4)
        out = multiply(f, g)
        assert (len(out), len(out.canonical())) == (7, 4)
        monkeypatch.setattr(wiener, "_WORK_CAP", 5)
        with pytest.raises(CapacityError, match="6 raw terms"):
            multiply(f, g)
        monkeypatch.setattr(wiener, "_WORK_CAP", 6)
        monkeypatch.setattr(wiener, "MAX_TERMS", 3)
        with pytest.raises(CapacityError, match="4 terms"):
            multiply(f, g)


def _gamma(k):
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


class _Shadow:
    """The engine in 50-digit arithmetic on integer frequencies: for each
    frequency the exact value c and the path sum A of |products|."""

    def __init__(self, f):
        self.terms = {int(round(w)): (mpmath.mpc(complex(q)), abs(mpmath.mpc(complex(q))))
                      for w, q in zip(f.freqs, f.coeffs)}

    @classmethod
    def of(cls, terms):
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def add(self, other):
        terms = dict(self.terms)
        for k, (c, a) in other.terms.items():
            c0, a0 = terms.get(k, (0, 0))
            terms[k] = (c0 + c, a0 + a)
        return _Shadow.of(terms)

    def mul(self, other, cutoff=None):
        terms = {}
        for k1, (c1, a1) in self.terms.items():
            for k2, (c2, a2) in other.terms.items():
                if cutoff is None or k1 + k2 <= cutoff:
                    c0, a0 = terms.get(k1 + k2, (0, 0))
                    terms[k1 + k2] = (c0 + c1 * c2, a0 + a1 * a2)
        return _Shadow.of(terms)

    def scale(self, w):
        return _Shadow.of({k: (c * w, a * abs(w)) for k, (c, a) in self.terms.items()})

    def check(self, m):
        """The Majorized invariant of ``m``, ghosts included."""
        assert sorted(self.terms) == [int(round(w)) for w in m.freqs]
        g = _gamma(m.rounds)
        for w, q, major in zip(m.freqs, m.coeffs, m.major):
            c, a = self.terms[int(round(w))]
            assert abs(mpmath.mpc(complex(q)) - c) <= g * a
            assert a <= (1 + g) * major


class TestMajorantInvariant:
    """Every coefficient lies within gamma_r * A of its exact value, and the
    path sum A is at most (1 + gamma_r) * major, against 50-digit sums."""

    @settings(max_examples=40, deadline=None)
    @given(_scaled_coeffs(0.9), st.integers(1, 12), st.booleans())
    def test_power_series(self, x, N, neumann):
        # the proof assumes no underflow: products of up to 12 factors
        # above 1e-20 stay far from it
        assume(all(c == 0 or abs(c) > 1e-20 for c in x))
        f = _integer_sum(x)
        weight = (lambda k: -1.0) if neumann else (lambda k: 1.0 / k)
        with mpmath.workdps(50):
            got = wiener._power_series(wiener.majorize(f), weight, N)
            sx = _Shadow(f)
            series = power = _Shadow(constant(1.0))
            k = 0
            while power.terms:
                k += 1
                power = power.mul(sx, N).scale(weight(k))
                series = series.add(power)
            series.check(got)

    def test_ghost_with_an_exact_value(self):
        # 1 + 2**-60 - 1 cancels to 0 in floats but not exactly: the ghost at
        # frequency 1 passes 2**-61 and 2**-62 to its children, which join a
        # live term at 2
        parts = [canonicalize([(1.0, c)], prune_tol=0.0) for c in (1.0, 2.0 ** -60, -1.0)]
        d = canonicalize([(1.0, 0.5), (2.0, 0.25)])
        e = canonicalize([(2.0, 1e-3)])
        with mpmath.workdps(50):
            m = add(add(wiener.majorize(parts[0]), wiener.majorize(parts[1])),
                    wiener.majorize(parts[2]))
            s = _Shadow(parts[0]).add(_Shadow(parts[1])).add(_Shadow(parts[2]))
            assert m.coeffs.tolist() == [0j] and s.terms[1][0] == mpmath.mpf(2) ** -60
            s.check(m)
            m = add(multiply(m, wiener.majorize(d)), wiener.majorize(e))
            s = s.mul(_Shadow(d)).add(_Shadow(e))
            s.check(m)
            assert m.freqs.tolist() == [2.0, 3.0] and m.coeffs.tolist() == [1e-3, 0j]
