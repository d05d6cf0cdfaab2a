import inspect
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qclab
from qclab import errors, wiener
from qclab.apset import phi_representation
from qclab.diffraction import bohr_means
from qclab.errors import CapacityError, InvalidInputError
from qclab.wiener import (
    add,
    canonicalize,
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


_small = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


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
    """One exp pass serves evaluate, the Bohr means and sup|g|:
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
    def test_integer_frequency_rows_equal_one_block(self, monkeypatch, budget):
        # the Bohr means of phi's displacements: 801 integer frequencies
        # against seven points, which the budgets 997 and 41 split into
        # blocks of two rows
        phi = phi_representation(union_zeroset(500), 1.0 + SQRT2)
        mask = np.abs(phi.n) <= 400
        thetas = np.array([0.0, 0.1, SQRT2 - 1.0, 0.25, -0.3, 1.0 / 3.0, 0.5])
        one_block = np.exp(-2j * np.pi * np.outer(thetas, phi.n[mask])) @ phi.values[mask]
        monkeypatch.setattr(wiener, "_EXP_BUDGET", budget)
        rows = wiener._exp_rows(-thetas, phi.n[mask], lambda E: E @ phi.values[mask])
        assert _same_bits(rows, one_block)

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


def _residual_below(f, inv, cutoff):
    """||f * inv - 1||_W over the frequencies up to the cutoff, where the
    truncated inverse is exact."""
    return add(multiply(f, inv, keep_freqs_up_to=cutoff), constant(-1.0)).wiener_norm


class TestNeumannInverse:
    def test_geometric_series(self):
        f = canonicalize([(0.0, 1.0), (1.0, 0.5)])
        inv = neumann_inverse(f, 40.0)
        assert inv.freqs[-1] == 40.0
        assert inv.wiener_norm == pytest.approx(2.0, abs=1e-9)
        assert _residual_below(f, inv, 40.0) < 1e-10

    def test_single_term(self):
        f = canonicalize([(0.7, 2.0)])
        inv = neumann_inverse(f, 10.0)
        assert inv.terms() == [(-0.7, 0.5 + 0j)]

    def test_residual_at_height_zero(self):
        # ||H||_W is 3.3 to 44 here, so the inverse grows geometrically up
        # to the cutoff; the residual is exactly 0 below it, and the float
        # one is the rounding of the product's terms
        rng = np.random.default_rng(7)
        for _ in range(50):
            freqs = np.cumsum(rng.uniform(0.05, 1.0, 10)) - 2.5
            coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
            f = canonicalize(list(zip(freqs, coeffs)))
            inv = neumann_inverse(f, 4.0)
            assert inv.freqs[-1] <= 4.0 - f.freqs[0] + wiener.FREQ_TOL
            assert _residual_below(f, inv, 4.0) < 1e-14 * f.wiener_norm * inv.wiener_norm

    def test_a_gap_inside_a_chain_has_no_band(self):
        # H's lowest frequency 1.5 FREQ_TOL: y_0 and y_eta are one spectral
        # point, which the recursion would need before itself
        f = canonicalize([(0.0, 1.0), (1.5e-9, 0.5)])
        with pytest.raises(InvalidInputError, match="no band to solve"):
            neumann_inverse(f, 1.0)

    def test_takes_only_f_and_cutoff(self):
        # the inverse runs at height 0 only: no height argument and no
        # height algebra beside it
        assert list(inspect.signature(neumann_inverse).parameters) == ["f", "cutoff"]
        with pytest.raises(TypeError):
            neumann_inverse(canonicalize([(0.0, 1.0), (1.0, 0.5)]), 4.0, 0.5)
        for module in (qclab, wiener, errors):
            for name in ("at_height", "choose_height", "_power_series", "DivergenceError"):
                assert not hasattr(module, name)


class TestSolveCapacity:
    """The exponential and the inverse share ``_solve``'s two limits: the
    raw products of one band, and the live terms of the result."""

    @pytest.mark.parametrize("run", [
        lambda f: exp_series(f, 1.0),
        lambda f: neumann_inverse(add(constant(1.0), f), 1.0)])
    def test_a_band_above_the_workspace_cap(self, monkeypatch, run):
        # each band up to the cutoff is one term, times H's 3 live terms
        f = canonicalize([(1.0, 0.1), (SQRT2, 0.1), (math.pi, 0.1)])
        monkeypatch.setattr(wiener, "_WORK_CAP", 3)
        run(f)
        monkeypatch.setattr(wiener, "_WORK_CAP", 2)
        with pytest.raises(CapacityError, match="a band would create 3 raw terms"):
            run(f)

    @pytest.mark.parametrize("run", [
        lambda f: exp_series(f, 20.0),
        lambda f: neumann_inverse(add(constant(1.0), f), 20.0)])
    def test_a_result_above_the_term_capacity(self, monkeypatch, run):
        # a single frequency: 21 terms up to the cutoff, one per band
        f = canonicalize([(1.0, 0.5)])
        monkeypatch.setattr(wiener, "MAX_TERMS", 21)
        assert len(run(f)) == 21
        monkeypatch.setattr(wiener, "MAX_TERMS", 20)
        with pytest.raises(CapacityError, match="the solve has 21 terms"):
            run(f)


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

    def test_below_the_lowest_frequency_gives_one(self):
        g = canonicalize([(1.5, 0.25), (2.0, 0.1)])
        assert exp_series(g, 1.0).terms() == [(0.0, 1 + 0j)]
        assert exp_series(g, 1.5).terms() == [(0.0, 1 + 0j), (1.5, 0.25 + 0j)]

    def test_two_incommensurate_frequencies(self):
        # exp(a*e(x) + b*e(sqrt2*x)): the coefficient at j + k*sqrt2 is
        # a^j * b^k / (j! * k!), and no two such frequencies chain
        a, b = 0.6 - 0.2j, -0.3 + 0.4j
        e = exp_series(canonicalize([(1.0, a), (SQRT2, b)]), 6.0)
        want = sorted((j + k * SQRT2, a ** j * b ** k / (math.factorial(j) * math.factorial(k)))
                      for j in range(7) for k in range(5) if j + k * SQRT2 <= 6.0)
        assert len(e) == len(want)
        for (w, q), (w0, q0) in zip(e.terms(), want):
            assert w == pytest.approx(w0, abs=1e-14)
            assert q == pytest.approx(q0, rel=1e-13, abs=1e-17)

    @settings(max_examples=30, deadline=None)
    @given(*[st.lists(st.tuples(st.integers(1, 12), _small), min_size=1, max_size=6,
                      unique_by=lambda t: t[0])] * 2,
           st.sampled_from([1.0, 2.5, 3.0]))
    def test_a_sum_exponentiates_to_the_product(self, terms1, terms2, cutoff):
        # exp(G1 + G2) = exp(G1) * exp(G2), both sides on Majorized sums
        # within their bounds; the frequencies lie on a lattice of 0.25,
        # where every float sum of them is exact
        G1, G2 = (wiener.majorize(canonicalize(
            [(0.25 * k, complex(c) if abs(c) > 1e-3 else 0.5) for k, c in t], prune_tol=0.0))
            for t in (terms1, terms2))
        both = exp_series(add(G1, G2), cutoff)
        product = multiply(exp_series(G1, cutoff), exp_series(G2, cutoff),
                           keep_freqs_up_to=cutoff)
        assert_within_both_bounds(both, product)

    def test_the_inverse_is_the_exponential_of_minus_g(self):
        # both engines of the one solve: 1 / exp(g) = exp(-g)
        g = canonicalize([(0.5, 0.1), (1.3, 0.05 + 0.02j), (SQRT2, -0.04j), (2.0, -0.07)])
        inv = neumann_inverse(exp_series(g, 12.0), 12.0)
        want = exp_series(scale(g, -1.0), 12.0)
        assert len(inv) == len(want)
        assert add(inv, scale(want, -1.0)).wiener_norm < 1e-15

    def test_the_derivative_is_g_prime_times_the_exponential(self):
        # E' = G' * E, the identity that the recursion solves, checked
        # with the product; ``derivative`` prunes the terms below
        # PRUNE_TOL * ||E'||_W, which the product keeps
        g = canonicalize([(0.5, 0.1), (1.3, 0.05 + 0.02j), (SQRT2, -0.04j), (2.0, -0.07)])
        e = exp_series(g, 12.0)
        lhs, rhs = derivative(e), multiply(derivative(g), e, keep_freqs_up_to=12.0)
        gap = add(lhs, scale(rhs, -1.0))
        matched = np.min(np.abs(np.subtract.outer(gap.freqs, lhs.freqs)), axis=1) <= wiener.FREQ_TOL
        assert np.max(np.abs(gap.coeffs[matched])) < 1e-16 * rhs.wiener_norm
        assert np.max(np.abs(gap.coeffs)) < wiener.PRUNE_TOL * lhs.wiener_norm


# Integer spectra: every series below is a power series in t = exp(2j*pi*x),
# so its truncation has a closed recurrence to compare with.


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
        inv = neumann_inverse(_integer_sum(h, 1.0), N)
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
        for series in (lambda b: neumann_inverse(f, b), lambda b: exp_series(g, b)):
            low, high = series(X), series(2 * X)
            sel = high.freqs <= X
            assert np.array_equal(low.freqs, high.freqs[sel])
            assert np.array_equal(low.coeffs, high.coeffs[sel])


def _bits(f):
    return (np.ascontiguousarray(f.freqs).view(np.uint64).tolist(),
            np.ascontiguousarray(f.coeffs).view(np.uint64).tolist())


@st.composite
def _tied_sum(draw, step, floor=0.0):
    # frequencies on a lattice of `step` (pairwise sums tie exactly and often),
    # some moved by a few ulps or by 1.5 FREQ_TOL, complex coefficients above
    # `floor` in modulus (1.0 in place of one that is not)
    ks = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True))
    terms = []
    for k in ks:
        w = k * step + draw(st.sampled_from([0.0, 0.0, 1e-15, -2e-15, 1.5e-9]))
        c = complex(draw(_small))
        terms.append((w, c if abs(c) > floor else 1.0))
    return canonicalize(terms, prune_tol=0.0)


# The untracked algebra that plain sums ran on before every operation went
# through the majorized merge, kept as a reference: plain sums merged by the
# same rule, every exact cancellation dropped, no majorant and no ghosts.

def _ref_merge(freqs, coeffs):
    if freqs.size == 0:
        return empty_sum()
    order = np.argsort(freqs, kind="stable")
    freqs, coeffs = freqs[order], coeffs[order]
    new_group = np.empty(freqs.size, dtype=bool)
    new_group[0] = True
    np.greater(np.diff(freqs), wiener.FREQ_TOL, out=new_group[1:])
    starts = np.flatnonzero(new_group)
    merged = np.add.reduceat(coeffs, starts)
    reps = freqs if starts.size == freqs.size else freqs[wiener._representatives(
        np.abs(coeffs), new_group, starts)]
    keep = np.abs(merged) > 0.0
    return wiener._make(reps[keep], merged[keep])


def _ref_add(f, g):
    return _ref_merge(np.concatenate([f.freqs, g.freqs]), np.concatenate([f.coeffs, g.coeffs]))


def _ref_scale(f, c):
    if c == 0 or len(f) == 0:
        return empty_sum()
    return wiener._make(f.freqs, f.coeffs * complex(c))


def _ref_multiply(f, g, keep_freqs_up_to=None):
    if len(f) == 0 or len(g) == 0:
        return empty_sum()
    freqs = (f.freqs[:, None] + g.freqs[None, :]).ravel()
    coeffs = (f.coeffs[:, None] * g.coeffs[None, :]).ravel()
    if keep_freqs_up_to is not None:
        low = freqs <= keep_freqs_up_to + wiener.FREQ_TOL
        freqs, coeffs = freqs[low], coeffs[low]
    return _ref_merge(freqs, coeffs)


def _ref_power_series(x, weight, cutoff):
    series = power = constant(1.0)
    k = 0
    while len(power):
        k += 1
        power = _ref_scale(_ref_multiply(power, x, cutoff), weight(k))
        series = _ref_add(series, power)
    return series


def _ref_neumann_inverse(f, cutoff):
    w1, q1 = float(f.freqs[0]), complex(f.coeffs[0])
    H = wiener._make(f.freqs[1:] - w1, f.coeffs[1:] / q1)
    return _ref_multiply(_ref_power_series(H, lambda j: -1.0, cutoff),
                         canonicalize([(-w1, 1.0 / q1)]))


def _product_power_series(x, weight, cutoff):
    """``sum_k c_k * x^k`` with ``c_0 = 1`` and ``c_k = weight(k) * c_{k-1}``,
    truncated at the frequency ``cutoff``, as the series engine formed its
    series before the triangular solve: the powers one product at a time,
    summed, on ``Majorized`` sums, ghosts and majorant included.  The
    spectrum of x must be strictly positive, so that the truncated power
    empties.  Its canonical sum is ``_ref_power_series``'s bit for bit."""
    series = power = wiener.majorize(constant(1.0))
    k = 0
    while len(power):
        k += 1
        power = scale(multiply(power, x, keep_freqs_up_to=cutoff), weight(k))
        series = add(series, power)
    return series


def _product_neumann_series(f, cutoff):
    """The Neumann inverse from ``_product_power_series``: the powers of -H,
    shifted.  Its canonical sum is the reference's bit for bit."""
    H, shift = wiener._monic(f)
    return multiply(_product_power_series(H, lambda j: -1.0, cutoff), shift)


def _bound(m):
    # |c~ - c| <= gamma_r * A <= gamma_r * (1 + gamma_r) * major <= gamma_2r * major
    return _gamma(2 * m.rounds) * m.major


def assert_within_both_bounds(got, want):
    """Two Majorized sums of the same exact series agree: every FREQ_TOL
    chain of their terms together, ghosts included, holds a term of each,
    and the two sides' coefficients over it differ by at most the sum of
    their bounds."""
    freqs = np.concatenate([got.freqs, want.freqs])
    order = np.argsort(freqs, kind="stable")
    starts = np.flatnonzero(wiener._group_starts(freqs[order]))

    def per_chain(a, b):
        return np.add.reduceat(np.concatenate([a, b])[order], starts)

    assert np.all(per_chain(np.ones(len(got)), np.zeros(len(want))) > 0)
    assert np.all(per_chain(np.zeros(len(got)), np.ones(len(want))) > 0)
    gap = np.abs(per_chain(got.coeffs, -want.coeffs))
    assert np.all(gap <= per_chain(_bound(got), _bound(want)) * (1 + 1e-12))


class TestPlainReference:
    """Plain sums enter the majorized merge and leave as canonical sums:
    bit for bit the untracked reference's results.  The Neumann inverse
    and the exponential, triangular solves, sum their terms in another
    order than the reference's powers: they agree with the powers on
    ``Majorized`` sums within both bounds, and those are the reference's
    bit for bit."""

    # Coefficients of modulus above 1e-3 and at most 12 factors in a series
    # power keep every product far from underflow.  An underflow to 0 in
    # ``scale`` is where the two differ: the reference keeps the zero term,
    # which then joins merges; the engine drops it from the canonical sum
    # and carries it as a ghost.
    @settings(max_examples=150, deadline=None)
    @given(_tied_sum(0.25, 1e-3), _tied_sum(0.5, 1e-3),
           st.sampled_from([0.0, -1.0, 1.0, 0.3, 2.5 - 1j]), st.sampled_from([None, 2.0, 30.0]),
           st.sampled_from([1.0, 3.0]))
    def test_results_are_the_reference(self, f, g, c, keep, cutoff):
        # h = f + g - f: exact cancellations and rounded remainders
        h = add(add(f, g), scale(f, -1.0))
        ref_h = _ref_add(_ref_add(f, g), _ref_scale(f, -1.0))
        # a strictly positive spectrum from 0.25 for the exponential, and 1 + H
        # with ||H||_W = 0.9 and H from 0.5 for the Neumann inverse
        x = wiener._make(h.freqs - h.freqs[0] + 0.25, h.coeffs)
        one_plus_h = wiener._make(np.insert(h.freqs, 0, h.freqs[0] - 0.5),
                                  np.insert(h.coeffs * (0.9 / h.wiener_norm), 0, 1.0))
        for got, want in (
                (add(f, g), _ref_add(f, g)),
                (add(f, scale(f, -1.0)), _ref_add(f, _ref_scale(f, -1.0))),
                (h, ref_h),
                (scale(f, c), _ref_scale(f, c)),
                (multiply(f, g, keep_freqs_up_to=keep), _ref_multiply(f, g, keep)),
                (multiply(h, g, keep_freqs_up_to=keep), _ref_multiply(ref_h, g, keep))):
            assert type(got) is wiener.ExpSum
            assert _bits(got) == _bits(want)
        solved = wiener._neumann_series(one_plus_h, cutoff)
        powers = _product_neumann_series(one_plus_h, cutoff)
        assert _bits(neumann_inverse(one_plus_h, cutoff)) == _bits(solved.canonical())
        assert _bits(powers.canonical()) == _bits(_ref_neumann_inverse(one_plus_h, cutoff))
        assert_within_both_bounds(solved, powers)
        X = wiener.majorize(x)
        solved = exp_series(X, cutoff)
        powers = _product_power_series(X, lambda k: 1.0 / k, cutoff)
        assert _bits(exp_series(x, cutoff)) == _bits(solved.canonical())
        assert _bits(powers.canonical()) == _bits(_ref_power_series(x, lambda k: 1.0 / k, cutoff))
        assert_within_both_bounds(solved, powers)

    def test_an_underflow_in_scale_leaves_the_canonical_sum(self):
        f = canonicalize([(0.0, 1e-300), (1.0, 1.0)])
        assert scale(f, 1e-30).terms() == [(1.0, 1e-30 + 0j)]


def _with_ghosts(f, ghosts):
    """f as a Majorized sum with extra zero terms at ``ghosts``."""
    freqs = np.concatenate([f.freqs, ghosts])
    order = np.argsort(freqs, kind="stable")
    coeffs = np.concatenate([f.coeffs, np.zeros(len(ghosts), complex)])
    return wiener._majorized(freqs[order], coeffs[order], np.abs(coeffs[order]) + 1.0, 2)


def _ghosts_change_nothing(freqs, coeffs):
    """True if the merge of these raw terms, ghosts included, has the live
    terms' merge for its live terms bit for bit, up to the sign of a zero
    part (a ghost's +0 turns -0.0 into +0.0): no ghost chains two groups
    of live terms, and no chain that holds a ghost holds more than two
    live terms, whose sum numpy's pairwise summation could then associate
    otherwise."""
    order = np.argsort(freqs, kind="stable")
    freqs, live = freqs[order], coeffs[order] != 0
    if not live.any():
        return True
    chain = np.cumsum(wiener._group_starts(freqs))
    live_groups = chain[live][wiener._group_starts(freqs[live])]
    members = np.bincount(chain[live], minlength=chain[-1] + 1)
    return (np.unique(live_groups).size == live_groups.size
            and bool(np.all(members[chain[~live]] <= 2)))


class TestMajorizedGhosts:
    """A ghost term merges as a term of coefficient 0: it adds its
    majorant to its chain and nothing to the coefficient.  Where
    ``_ghosts_change_nothing`` holds, the live terms of a Majorized result
    are the canonical result bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(_tied_sum(0.25), _tied_sum(0.5),
           st.lists(st.sampled_from([0.1, 0.25 + 0.75e-9, 0.5 + 0.75e-9, 7.3]), max_size=3,
                    unique=True))
    def test_live_terms_are_the_canonical_result(self, f, g, ghosts):
        # ghosts 0.75 FREQ_TOL above a lattice point chain to a term 1.5
        # FREQ_TOL above it, and to one at the point: such a ghost joins them
        ghosts = [x for x in ghosts if np.min(np.abs(f.freqs - x)) > 0]
        F, G = _with_ghosts(f, ghosts), _with_ghosts(g, [])
        pairs = (np.add.outer(F.freqs, G.freqs).ravel(),
                 np.multiply.outer(F.coeffs, G.coeffs).ravel())
        low = pairs[0] <= 3.0 + wiener.FREQ_TOL
        for plain, tracked, raw in (
                (multiply(f, g), multiply(F, G), pairs),
                (multiply(f, g, keep_freqs_up_to=3.0), multiply(F, G, keep_freqs_up_to=3.0),
                 (pairs[0][low], pairs[1][low])),
                (add(f, g), add(F, G), (np.concatenate([F.freqs, G.freqs]),
                                        np.concatenate([F.coeffs, G.coeffs])))):
            assert isinstance(tracked, wiener.Majorized)
            if _ghosts_change_nothing(*raw):
                got, want = (wiener._make(x.freqs, x.coeffs + 0.0)  # +0.0 for -0.0
                             for x in (tracked.canonical(), plain))
                assert _bits(got) == _bits(want)
            assert np.all(np.diff(tracked.freqs) > 0)
            assert np.all(tracked.major >= np.abs(tracked.coeffs))

    def test_a_ghost_between_two_groups_joins_them(self):
        # one chain, at the representative of the largest coefficient
        f = wiener._majorized(np.array([1.0, 1.0 + 1.5e-9]), np.array([1.0, 2.0 + 0j]),
                              np.array([1.0, 2.0]), 2)
        g = wiener._majorized(np.array([1.0 + 0.75e-9]), np.array([0j]), np.array([4.0]), 2)
        out = add(f, g)
        assert out.freqs.tolist() == [1.0 + 1.5e-9]
        assert out.coeffs.tolist() == [3.0]
        assert out.major.tolist() == [7.0]

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

    def solve(self, h, cutoff):
        """y with (1 + h) * y = self at the keys up to the cutoff:
        y_n = self_n - sum_k h_k * y_(n-k), path sums alike."""
        terms = {}
        for n in range(min(self.terms, default=cutoff + 1), cutoff + 1):
            raw = [self.terms[n]] if n in self.terms else []
            raw += [(-hc * terms[n - k][0], ha * terms[n - k][1])
                    for k, (hc, ha) in h.terms.items() if n - k in terms]
            if raw:
                terms[n] = (sum(c for c, _ in raw), sum(a for _, a in raw))
        return _Shadow.of(terms)

    def exp(self, cutoff):
        """exp(self) at the keys up to the cutoff: E_0 = 1 and n * E_n =
        sum_k k * g_k * E_(n-k), path sums alike."""
        terms = {0: (mpmath.mpc(1), mpmath.mpf(1))}
        for n in range(1, cutoff + 1):
            raw = [(k * gc * terms[n - k][0], k * ga * terms[n - k][1])
                   for k, (gc, ga) in self.terms.items() if n - k in terms]
            if raw:
                terms[n] = (sum(c for c, _ in raw) / n, sum(a for _, a in raw) / n)
        return _Shadow.of(terms)

    def check(self, m):
        """The Majorized invariant of ``m``, ghosts included."""
        assert sorted(self.terms) == [int(round(w)) for w in m.freqs]
        g = _gamma(m.rounds)
        for w, q, major in zip(m.freqs, m.coeffs, m.major):
            c, a = self.terms[int(round(w))]
            assert abs(mpmath.mpc(complex(q)) - c) <= g * a
            assert a <= (1 + mpmath.mpf(g)) * mpmath.mpf(float(major))  # not rounded in floats


class TestMajorantInvariant:
    """Every coefficient lies within gamma_r * A of its exact value, and the
    path sum A is at most (1 + gamma_r) * major, against 50-digit sums."""

    @settings(max_examples=40, deadline=None)
    @given(_scaled_coeffs(2.0), st.integers(1, 12))
    def test_exp(self, x, N):
        # the proof assumes no underflow: products of up to 12 factors
        # above 1e-20 stay far from it.  g has a term at 1, so every band
        # is one integer n, with one raw term per term of g at most n
        assume(x[0] != 0 and all(c == 0 or abs(c) > 1e-20 for c in x))
        g = _integer_sum(x)
        with mpmath.workdps(50):
            got = exp_series(wiener.majorize(g), N)
            _Shadow(g).exp(N).check(got)
        # the proof's count: 2 for the band at 0, which holds r = 1 (r's 2
        # less 1, plus its one term), then max(1, q + R + 2) plus the band's
        # raw terms, plus 2 for the division by n, with q = 3: g's 2, and 1
        # for the weights k * g_k
        count = 2
        for n in range(1, N + 1):
            count = max(1, 3 + count + 2) + int(np.sum(g.freqs <= n)) + 2
        assert got.rounds == count

    @settings(max_examples=40, deadline=None)
    @given(_scaled_coeffs(0.9), st.integers(1, 12), st.booleans())
    def test_solve(self, x, N, derivative_rhs):
        # r = 1 (the Neumann inverse) or r = f' with f = 1 + H (f'/f); the
        # same underflow margin as above
        assume(all(c == 0 or abs(c) > 1e-20 for c in x))
        h = _integer_sum(x)
        r = derivative(_integer_sum(x, 1.0)) if derivative_rhs else constant(1.0)
        with mpmath.workdps(50):
            got = wiener._solve(wiener.majorize(h), wiener.majorize(r), N)
            _Shadow(r).solve(_Shadow(h), N).check(got)

    def test_a_chain_across_a_band_edge_stays_one_point(self):
        # r's terms 0.9 FREQ_TOL apart below 1 chain to the product at 1 of
        # the band from 0, and the first reaches below that band's last
        # 2 FREQ_TOL: the band ends before the chain, which is one point
        freqs = np.array([0.0, 1.0 - 2.7e-9, 1.0 - 1.8e-9, 1.0 - 0.9e-9])
        coeffs = np.array([1.0, 0.25, 0.25, 0.25], complex)
        r = wiener._majorized(freqs, coeffs, np.abs(coeffs), 2)
        H = wiener.majorize(canonicalize([(1.0, 0.5)]))
        got = wiener._solve(H, r, 3.0)
        assert got.freqs.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert got.coeffs.tolist() == [1.0, 0.25, -0.125, 0.0625]
        # the count of each band: max(r's - 1, H's + the last band's + 2) plus
        # its largest chain, from r's 2 and H's 2: 1 + 1, 6 + 4, 14 + 1, 19 + 1
        assert got.rounds == 20
        powers = _product_power_series(H, lambda j: -1.0, 3.0)
        assert_within_both_bounds(got, multiply(r, powers, keep_freqs_up_to=3.0))

    def test_a_ghost_feeds_a_later_band(self):
        # y_1 = r_1 - h * y_0 with h = y_0 = 1 + 2**-52 and r_1 = 1 + 2**-51:
        # the product rounds to r_1, so y_1 is 0 in floats and -2**-104
        # exactly, a ghost, whose exact value and path sum reach y_2 through
        # its ghost product: y_2 = 2**-100 errs by a sixteenth
        e = 2.0 ** -52
        r = canonicalize([(0.0, 1.0 + e), (1.0, 1.0 + 2 * e), (2.0, 2.0 ** -100)], prune_tol=0.0)
        h = canonicalize([(1.0, 1.0 + e)])
        with mpmath.workdps(50):
            got = wiener._solve(wiener.majorize(h), wiener.majorize(r), 2.0)
            shadow = _Shadow(r).solve(_Shadow(h), 2)
            assert got.freqs.tolist() == [0.0, 1.0, 2.0]
            assert got.coeffs.tolist() == [1.0 + e, 0j, 2.0 ** -100]
            assert shadow.terms[1][0] == -mpmath.mpf(2) ** -104
            shadow.check(got)

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

    def test_a_ghost_bridges_two_groups(self):
        # the ghost 1 + 2**-60 - 1 at 1 + 0.75 FREQ_TOL chains the live terms
        # at 1 and at 1 + 1.5 FREQ_TOL, which the exact run holds as one point
        # with the ghost's 2**-60 in it, and so does the float run
        w = 1.0 + 0.75e-9
        parts = [canonicalize([(w, c)], prune_tol=0.0) for c in (1.0, 2.0 ** -60, -1.0)]
        live = canonicalize([(1.0, 0.5), (1.0 + 1.5e-9, 0.25)])
        d = canonicalize([(1.0, 0.5), (2.0, 0.25)])
        with mpmath.workdps(50):
            m, s = wiener.majorize(parts[0]), _Shadow(parts[0])
            for x in parts[1:]:
                m, s = add(m, wiener.majorize(x)), s.add(_Shadow(x))
            m = add(m, wiener.majorize(live))
            for w, c in live.terms():  # _Shadow keys by the rounded frequency
                s = s.add(_Shadow(canonicalize([(w, c)])))
            assert m.freqs.tolist() == [1.0] and m.coeffs.tolist() == [0.75]
            assert s.terms[1][0] == mpmath.mpf(0.75) + mpmath.mpf(2) ** -60
            s.check(m)
            s.mul(_Shadow(d)).check(multiply(m, wiener.majorize(d)))
