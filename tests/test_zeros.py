import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import wiener, zeros
from qclab.diffraction import logderiv_measure
from qclab.errors import (
    BoundaryError,
    ContourError,
    ConvergenceError,
    InvalidInputError,
    QclabError,
)
from qclab.reconstruct import rebuild_dirichlet
from qclab.wiener import canonicalize, constant, derivative, evaluate, multiply
from qclab.zeros import (
    ZeroSet,
    _count_rectangles,
    find_real_zeros,
    realness_check,
)

from conftest import cos_sum


def _cos_product(cs):
    """The product of cos(pi*c*z) over c in ``cs``."""
    f = cos_sum(cs[0] / 2.0)
    for c in cs[1:]:
        f = multiply(f, cos_sum(c / 2.0))
    return f


def _lattice_zeros(cs, lo, hi):
    """Zeros (Z + 1/2)/c of that product in (lo, hi), one sorted multiset."""
    pts = []
    for c in cs:
        k = np.arange(math.floor(lo * c) - 1, math.ceil(hi * c) + 2)
        p = (k + 0.5) / c
        pts.append(p[(p > lo) & (p < hi)])
    return np.sort(np.concatenate(pts))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _plain_bisect(fn, lo, hi, flo, iters=48):
    # Reference: every halving evaluates every bracket.
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        go_right = flo * fm > 0
        lo = np.where(go_right, mid, lo)
        flo = np.where(go_right, fm, flo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _plain_newton(f, df, x, lo, hi, iters=10):
    # Reference: every step evaluates f and f' at every point.
    for _ in range(iters):
        fx = zeros._real_values(f, x)
        dfx = zeros._real_values(df, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dfx != 0, fx / np.where(dfx == 0, 1.0, dfx), 0.0)
        xn = x - step
        x = np.where((xn >= lo) & (xn <= hi), xn, x)
    return x


def _sign_cells(f, lo, hi, step):
    """The sign-change cells of f on the grid of ``step`` over (lo, hi), as
    the scan forms them: their ends and f at their left ends."""
    xs = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
    v = zeros._real_values(f, xs)
    c = np.flatnonzero(v[:-1] * v[1:] < 0)
    return xs[c], xs[c + 1], v[c]


@pytest.fixture
def box_calls(monkeypatch):
    """Counts the winding-number contours find_real_zeros integrates: every
    rectangle of every batch, each nudged retry again."""
    calls = []
    real = zeros._count_rectangles

    def counted(f, rects):
        calls.extend(rects)
        return real(f, rects)

    monkeypatch.setattr(zeros, "_count_rectangles", counted)
    return calls


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Counts the evaluate calls of the zero finder."""
    calls = []
    real = zeros.evaluate

    def counted(f, z):
        calls.append(z)
        return real(f, z)

    monkeypatch.setattr(zeros, "evaluate", counted)
    return calls


class TestCountZerosRectangle:
    """Winding counts of ``_count_rectangles``, the batched contour walk
    the zero finder runs: a count per rectangle, -1 and a ContourError
    where a contour fails."""

    def test_cos_single_zero(self, cos):
        counts, failed, _ = _count_rectangles(cos, [(0.0, 1.0, -1.0, 1.0)])
        assert counts.tolist() == [1] and not failed

    def test_cos_empty_box(self, cos):
        counts, failed, _ = _count_rectangles(cos, [(0.6, 0.9, -1.0, 1.0)])
        assert counts.tolist() == [0] and not failed

    def test_cos_squared_double_zero(self, cos):
        sq = multiply(cos, cos)
        counts, failed, _ = _count_rectangles(sq, [(0.0, 1.0, -1.0, 1.0)])
        assert counts.tolist() == [2] and not failed

    def test_many_zeros(self, cos):
        counts, failed, _ = _count_rectangles(cos, [(-10.2, 10.2, -1.0, 1.0)])
        assert counts.tolist() == [20] and not failed

    def test_complex_zero_found(self):
        # zero where exp(2*pi*i*z) = 4, i.e. z = k - i*log(4)/(2*pi)
        f = canonicalize([(0.0, 1.0), (1.0, -0.25)])
        y = -math.log(4.0) / (2 * math.pi)
        counts, failed, _ = _count_rectangles(f, [(-0.5, 0.5, y - 0.2, y + 0.2),
                                               (-0.5, 0.5, -0.05, 0.05)])
        assert counts.tolist() == [1, 0] and not failed

    def test_contour_through_zero_errors(self, cos):
        # the failed contour stops only its own rectangle
        counts, failed, _ = _count_rectangles(cos, [(0.0, 1.0, -1.0, 1.0), (0.5, 1.0, -1.0, 1.0)])
        assert counts.tolist() == [1, -1]
        assert list(failed) == [1] and isinstance(failed[1], ContourError)

    def test_constant_has_no_zeros(self):
        counts, failed, _ = _count_rectangles(constant(2.0), [(-3.0, 3.0, -1.0, 1.0)])
        assert counts.tolist() == [0] and not failed

    def test_empty_sum_rejected(self):
        from qclab.wiener import empty_sum
        with pytest.raises(InvalidInputError):
            _count_rectangles(empty_sum(), [(0.0, 1.0, -1.0, 1.0)])


class TestFindRealZeros:
    def test_cos_window(self, cos):
        A = find_real_zeros(cos, (-10.2, 10.2))
        expect = np.arange(-10, 10) + 0.5
        assert A.count == 20
        assert np.all(A.mults == 1)
        assert np.max(np.abs(A.points - expect)) < 1e-10

    def test_cos_squared_multiplicities(self, cos):
        A = find_real_zeros(multiply(cos, cos), (-2.0, 2.0))
        assert A.points.tolist() == pytest.approx([-1.5, -0.5, 0.5, 1.5], abs=1e-10)
        assert A.mults.tolist() == [2, 2, 2, 2]

    def test_constant_is_flagged_empty(self):
        with pytest.warns(UserWarning):
            A = find_real_zeros(constant(1.0), (-5.0, 5.0))
        assert len(A) == 0

    def test_residual_bound(self, funion):
        A = find_real_zeros(funion, (-30.0, 30.0))
        vals = np.abs(evaluate(funion, A.points.astype(complex)))
        assert np.max(vals) < 1e-9 * funion.wiener_norm

    def test_completeness_union(self, funion):
        A = find_real_zeros(funion, (-30.0, 30.0))
        counts, _, _ = _count_rectangles(funion, [(-30.0, 30.0, -0.05, 0.05)])
        assert A.count == counts[0]

    def test_refinement_stability(self, funion):
        # certifying the window from half the first step finds the same zeros
        A = find_real_zeros(funion, (-15.0, 15.0))
        half_step = 1.0 / (32.0 * funion.max_abs_freq)
        counts, nudges, _ = zeros._count_boxes(funion, [(-15.0, 15.0, -half_step, half_step)])
        piece = zeros._Piece(-15.0, 15.0, int(counts[0]), half_step * nudges[0], half_step)
        points, mults = zeros._certify(funion, [piece], half_step * zeros._FINEST)
        assert int(np.sum(mults)) == counts[0] == A.count
        assert len(A) == points.size
        assert np.max(np.abs(A.points - points)) < 1e-9

    def test_odd_zeros_are_sign_changes(self, cos):
        A = find_real_zeros(cos, (-5.2, 5.2))
        eps = 1e-5
        for a, m in zip(A.points, A.mults):
            if m % 2 == 1:
                left = evaluate(cos, a - eps).real
                right = evaluate(cos, a + eps).real
                assert left * right < 0

    def test_boundary_zero_errors(self, cos):
        with pytest.raises(BoundaryError):
            find_real_zeros(cos, (-10.5, 10.5 + 1e-9))

    def test_no_real_zeros(self):
        f = canonicalize([(0.0, 1.0), (1.0, -0.25)])
        A = find_real_zeros(f, (-5.2, 5.2))
        assert A.count == 0


class TestCountCertificate:
    """The strip count certifies sign-change brackets without per-zero boxes."""

    def test_cos_needs_only_the_strip_count(self, cos, box_calls):
        A = find_real_zeros(cos, (-1000.25, 1000.25))
        assert A.count == 2000 and np.all(A.mults == 1)
        assert np.max(np.abs(A.points - (np.arange(-1000, 1000) + 0.5))) < 1e-10
        assert len(box_calls) <= len(zeros._NUDGE)

    def test_simple_zero_residuals_share_one_evaluate_call(self, cos, monkeypatch):
        calls = []
        real = zeros.evaluate

        def counted(f, z):
            calls.append(z)
            return real(f, z)

        monkeypatch.setattr(zeros, "evaluate", counted)
        A = find_real_zeros(cos, (-1000.25, 1000.25))
        assert A.count == 2000
        assert len(calls) < 400

    def test_three_factor_product_boxes_only_its_candidates(self, box_calls, evaluate_calls):
        cs = (1.0, math.sqrt(2.0), math.sqrt(3.0))
        A = find_real_zeros(_cos_product(cs), (-20.001, 20.001))
        expect = _lattice_zeros(cs, -20.001, 20.001)
        assert A.count == expect.size
        assert np.max(np.abs(A.expand() - expect)) < 1e-10
        assert len(box_calls) < 30
        # each round batches its pieces: 320 calls (1585 one piece at a time)
        assert len(evaluate_calls) < 450

    def test_odd_order_above_one_is_still_boxed(self, cos):
        # a triple zero changes sign like a simple one; only its box sees m = 3
        A = find_real_zeros(multiply(multiply(cos, cos), cos), (-5.2, 5.2))
        assert A.points.tolist() == pytest.approx(np.arange(-5, 5) + 0.5, abs=1e-8)
        assert A.mults.tolist() == [3] * 10

    def test_failed_box_moves_to_a_finer_pass(self):
        # the first pass boxes two near-coincident zeros with an edge too
        # close to one of them; a finer pass separates them
        cs = (1.0, math.sqrt(2.0), math.sqrt(3.0))
        A = find_real_zeros(_cos_product(cs), (-40.001, 40.001))
        expect = _lattice_zeros(cs, -40.001, 40.001)
        assert A.count == expect.size
        assert np.max(np.abs(A.expand() - expect)) < 1e-10

    @pytest.mark.parametrize("cs, half", [
        ((1.0, math.sqrt(2.0)), 500.1),
        ((1.0, 1.0, math.sqrt(2.0)), 15.1),
    ])
    def test_close_pairs_are_cut_apart(self, cs, half):
        # zeros 1.3e-4 apart (the union) and a double zero 4.3e-3 from a
        # simple one: only the piece or box around them is rescanned finer
        A = find_real_zeros(_cos_product(cs), (-half, half))
        expect = _lattice_zeros(cs, -half, half)
        assert A.count == expect.size
        assert np.max(np.abs(A.expand() - expect)) < 1e-9

    def test_refinement_stays_local(self, box_calls, evaluate_calls):
        cs = (1.0, math.sqrt(2.0), math.sqrt(3.0))
        A = find_real_zeros(_cos_product(cs), (-200.001, 200.001))
        expect = _lattice_zeros(cs, -200.001, 200.001)
        assert A.count == expect.size
        assert np.max(np.abs(A.expand() - expect)) < 1e-9
        assert len(box_calls) <= 150
        # 1407 calls in rounds (15,421 one piece at a time)
        assert len(evaluate_calls) < 2000

    def test_zero_off_the_line_is_certified(self):
        # Newton from a candidate lands on k - 0.0168i; a box around it that
        # stays off the real line counts it, so the strip count can never
        # be met by real zeros
        f = canonicalize([(0.0, 1.0), (1.0, -0.9)])
        with pytest.raises(ConvergenceError, match="off the real line"):
            find_real_zeros(f, (-5.2, 5.2))

    def test_pair_too_close_to_the_line_fails_at_the_finest_step(self):
        # cos(pi z) + 1.001 has the zeros k +- 0.0142i at each odd k: the
        # strip counts them, and no cut of their piece can resolve them
        f = canonicalize([(-0.5, 0.5), (0.0, 1.001), (0.5, 0.5)])
        with pytest.raises(ConvergenceError, match="not accounted for at the finest scan step"):
            find_real_zeros(f, (-2.2, 2.2))

    def test_non_real_zeros_in_the_strip_fail_fast(self):
        # 1 - 0.9 e^{2 pi i z} has its zeros at k - 0.0168i, inside the
        # strip |Im z| < 1/16 but off the real line
        f = canonicalize([(0.0, 1.0), (1.0, -0.9)])
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            find_real_zeros(f, (-50.2, 50.2))
        assert time.perf_counter() - start < 0.5

    def test_non_hermitian_simple_zeros_found(self):
        # 0.5 e^{-i pi z} + 0.5 e^{0.3i} e^{i pi z} has only real, simple
        # zeros, and none of them is a sign change of a real function
        f = canonicalize([(-0.5, 0.5), (0.5, 0.5 * np.exp(0.3j))])
        A = find_real_zeros(f, (-10.2, 10.2))
        expect = np.arange(-10, 10) + 0.5 - 0.3 / (2 * np.pi)
        assert A.count == 20 and np.all(A.mults == 1)
        assert np.max(np.abs(A.points - expect)) < 1e-10


@st.composite
def _cosine_products(draw):
    n = draw(st.integers(2, 4))
    cs = [draw(st.floats(0.5, 3.0)) for _ in range(n)]
    if draw(st.integers(0, 9)) < 3:
        # a near-coincident pair of lattices: zeros closer than the scan step
        cs[1] = cs[0] * (1.0 + draw(st.floats(1e-4, 1e-2)))
    ends = [draw(st.floats(1.0, 10.0)) for _ in range(2)]
    return cs, ends


def _clear_end(cs, t):
    """Midpoint of the widest zero gap in [t - 1/2, t + 1/2]."""
    pts = np.concatenate([[t - 0.5], _lattice_zeros(cs, t - 0.5, t + 0.5), [t + 0.5]])
    i = int(np.argmax(np.diff(pts)))
    return 0.5 * (pts[i] + pts[i + 1])


class TestNeverAWrongAnswer:
    def test_cluster_is_not_one_triple_zero(self):
        # a double zero at 1 and a simple one at 1/1.0001 share a box; the
        # residual at the inflection point between them is below 1e-13
        cs = (0.5, 0.50005, 0.5)
        try:
            A = find_real_zeros(_cos_product(cs), (-1.25, 1.25))
        except QclabError:
            return
        assert np.max(np.abs(A.expand() - _lattice_zeros(cs, -1.25, 1.25))) < 1e-9

    @settings(max_examples=12, deadline=None)
    @given(_cosine_products())
    def test_cosine_products(self, case):
        cs, (a, b) = case
        lo, hi = -_clear_end(cs, a), _clear_end(cs, b)
        expect = _lattice_zeros(cs, lo, hi)
        assert np.min(np.abs(np.concatenate([expect - lo, hi - expect]))) >= 0.01
        try:
            A = find_real_zeros(_cos_product(cs), (lo, hi))
        except QclabError:
            return
        assert A.count == expect.size
        assert np.max(np.abs(A.expand() - expect)) < 1e-9


class TestFusedPass:
    """f and f' from one exp pass equal two ``evaluate`` calls bit for
    bit, whatever the budget and the other points of the call."""

    @pytest.mark.parametrize("n_points", [1, 5085])
    @pytest.mark.parametrize("budget", [wiener._EXP_BUDGET, 997, 41])
    @pytest.mark.parametrize("prefix", [0, 1, 123])
    @pytest.mark.parametrize("zero_freq", [False, True])
    def test_equals_two_evaluate_calls(self, monkeypatch, n_points, budget, prefix, zero_freq):
        rng = np.random.default_rng(n_points + prefix)
        freqs = rng.uniform(-3.0, 3.0, 8)
        if zero_freq:
            freqs[0] = 0.0  # f' drops that column
        f = canonicalize(list(zip(freqs, rng.normal(size=8) + 1j * rng.normal(size=8))))
        df = derivative(f)
        assert len(f) == 8 and len(df) == (7 if zero_freq else 8)
        z = rng.uniform(-50.0, 50.0, n_points) + 1j * rng.uniform(-0.5, 0.5, n_points)
        before = rng.uniform(-50.0, 50.0, prefix) + 1j * rng.uniform(-0.5, 0.5, prefix)
        monkeypatch.setattr(wiener, "_EXP_BUDGET", budget)
        fz, dfz = zeros._with_derivative(f, df, np.concatenate([before, z]))
        assert _same_bits(fz[prefix:], evaluate(f, z))
        assert _same_bits(dfz[prefix:], evaluate(df, z))

    def test_overflow_is_an_error(self, cos):
        with pytest.raises(OverflowError):
            zeros._with_derivative(cos, derivative(cos), np.array([0.0, 1e3j]))


@st.composite
def _bisection_cases(draw):
    """A cosine product or its derivative with its sign-change cells on a
    grid of a drawn step; or cos(pi z) on a grid through its zeros, which
    puts every root at a cell end."""
    if draw(st.integers(0, 3)) == 0:
        f = cos_sum()
        lo = -0.5 - draw(st.integers(0, 2000))
        return f, _sign_cells(f, lo, lo + draw(st.integers(2, 100)),
                              draw(st.sampled_from([0.25, 0.125, 0.0625])))
    f = _cos_product([draw(st.floats(0.5, 3.0)) for _ in range(draw(st.integers(1, 3)))])
    if draw(st.booleans()):
        f = derivative(f)
    lo = -draw(st.floats(1.0, 200.0))
    step = draw(st.sampled_from([1.0, 0.5, 0.25, 1 / 3])) / (16.0 * f.max_abs_freq)
    return f, _sign_cells(f, lo, lo + draw(st.floats(2.0, 40.0)), step)


class TestSignCertifiedBisection:
    """``_bisect_real`` with sign certificates, and ``_newton_real`` with
    its fixed-point and 2-cycle stops, equal the plain loops bit for bit."""

    def test_both_paths_on_the_three_factor_product(self):
        f = _cos_product((1.0, math.sqrt(2.0), math.sqrt(3.0)))
        lo, hi, flo = _sign_cells(f, -200.001, 200.001, 1.0 / (16.0 * f.max_abs_freq))
        a, b = zeros._sign_certificates(f, derivative(f), lo, hi, flo)
        certified = int(np.sum(~np.isnan(a)))
        # 1124 of the first scan's 1534 brackets are certified
        assert certified > 1000 and lo.size - certified > 300
        fn = lambda x: zeros._real_values(f, x)  # noqa: E731
        assert _same_bits(zeros._bisect_real(fn, lo, hi, flo, a, b),
                          _plain_bisect(fn, lo, hi, flo))

    def test_roots_on_grid_points_are_certified(self, cos):
        # every root of cos(pi z) on (-2000.25, 2000.25) is a cell end
        lo, hi, flo = _sign_cells(cos, -2000.25, 2000.25, 0.125)
        assert lo.size == 4000
        a, b = zeros._sign_certificates(cos, derivative(cos), lo, hi, flo)
        assert not np.any(np.isnan(a)) and np.sum(a < lo) > 1000
        fn = lambda x: zeros._real_values(cos, x)  # noqa: E731
        assert _same_bits(zeros._bisect_real(fn, lo, hi, flo, a, b),
                          _plain_bisect(fn, lo, hi, flo))

    @settings(max_examples=60, deadline=None)
    @given(_bisection_cases())
    def test_equals_the_plain_loop(self, case):
        f, (lo, hi, flo) = case
        fn = lambda x: zeros._real_values(f, x)  # noqa: E731
        plain = _plain_bisect(fn, lo, hi, flo)
        certs = zeros._sign_certificates(f, derivative(f), lo, hi, flo)
        assert _same_bits(zeros._bisect_real(fn, lo, hi, flo, *certs), plain)
        assert _same_bits(zeros._bisect_real(fn, lo, hi, flo), plain)

    def test_no_certificate_where_the_derivative_vanishes(self, cos):
        # cos(pi z) on [0.9, 1.6] has its minimum at 1 and its root at 1.5
        lo, hi = np.array([0.9, 1.2]), np.array([1.6, 1.6])
        a, _ = zeros._sign_certificates(cos, derivative(cos), lo, hi, zeros._real_values(cos, lo))
        assert np.isnan(a[0]) and not np.isnan(a[1])

    def test_tiny_sums_are_not_certified(self):
        # at 1e-160 the plain loop's products underflow to 0 near the roots
        f = canonicalize([(-0.5, 0.5e-160), (0.5, 0.5e-160)])
        lo, hi, flo = _sign_cells(f, -20.2, 20.2, 0.125)
        a, b = zeros._sign_certificates(f, derivative(f), lo, hi, flo)
        assert np.all(np.isnan(a))
        fn = lambda x: zeros._real_values(f, x)  # noqa: E731
        assert _same_bits(zeros._bisect_real(fn, lo, hi, flo, a, b),
                          _plain_bisect(fn, lo, hi, flo))

    def test_newton_two_cycles(self, cos, monkeypatch):
        lo, hi, flo = _sign_cells(cos, -2000.25, 2000.25, 0.125)
        x = _plain_bisect(lambda t: zeros._real_values(cos, t), lo, hi, flo)
        df = derivative(cos)
        # the points whose plain iterates alternate between two values
        x1 = _plain_newton(cos, df, x, lo, hi, iters=1)
        x2 = _plain_newton(cos, df, x1, lo, hi, iters=1)
        assert np.sum((x2 == x) & (x1 != x)) > 600  # 652 of the 4000
        passes = []
        real = zeros._exp_rows
        monkeypatch.setattr(zeros, "_exp_rows", lambda *args: passes.append(1) or real(*args))
        newton = zeros._newton_real(cos, df, x, lo, hi)
        # the fixed points stop after one step, the 2-cycles after two
        assert len(passes) == 2
        assert _same_bits(newton, _plain_newton(cos, df, x, lo, hi))

    @settings(max_examples=60, deadline=None)
    @given(_bisection_cases(), st.integers(0, 2 ** 32 - 1), st.integers(1, 10))
    def test_newton_equals_the_plain_loop(self, case, seed, iters):
        f, (lo, hi, _) = case
        rng = np.random.default_rng(seed)
        # starts anywhere in the cells, and within a few ulps of a root
        x = np.where(rng.random(lo.size) < 0.5, lo + rng.random(lo.size) * (hi - lo),
                     _plain_bisect(lambda t: zeros._real_values(f, t), lo, hi,
                                   zeros._real_values(f, lo)))
        df = derivative(f)
        assert _same_bits(zeros._newton_real(f, df, x, lo, hi, iters),
                          _plain_newton(f, df, x, lo, hi, iters))


@pytest.fixture
def walked_sides(monkeypatch):
    """The edges per rectangle of every contour walk."""
    sides = []
    real = zeros._walk_edges

    def spy(f, edges, per_rect):
        sides.extend(per_rect)
        return real(f, edges, per_rect)

    monkeypatch.setattr(zeros, "_walk_edges", spy)
    return sides


def _symmetric_rects(f):
    """Rectangles symmetric about the real line: strips, realness strips
    and boxes around the zeros."""
    step = 1.0 / (16.0 * f.max_abs_freq)
    A = find_real_zeros(f, (-20.2, 20.2))
    hw = 0.4 * np.min(np.diff(A.points))
    return ([(-20.2, 20.2, -step, step), (-20.2, 20.2, -0.5, 0.5), (-3.1, 7.05, -step, step)]
            + [(x - hw, x + hw, -hw, hw) for x in A.points[::7]])


class TestHalfContours:
    """A Hermitian sum is counted on the lower half of each rectangle
    symmetric about the real line; everything else walks four edges."""

    @pytest.mark.parametrize("cs", [(1.0,), (1.0, 1.0), (1.0, math.sqrt(2.0)),
                                    (1.0, math.sqrt(2.0), math.sqrt(3.0))])
    def test_equals_the_full_contour_on_cosine_products(self, monkeypatch, walked_sides, cs):
        self._check(monkeypatch, walked_sides, _cos_product(cs), exact=True)

    def test_equals_the_full_contour_on_the_rebuilt_sum(self, monkeypatch, walked_sides):
        # the rebuilt three-factor sum is Hermitian only up to about 1e-15
        f = rebuild_dirichlet(logderiv_measure(
            _cos_product((1.0, math.sqrt(2.0), math.sqrt(3.0))), 40.0))
        assert 0 < np.max(np.abs(f.freqs + f.freqs[::-1])) < 1e-14
        self._check(monkeypatch, walked_sides, f, exact=False)

    def _check(self, monkeypatch, walked_sides, f, exact):
        rects = _symmetric_rects(f)
        assert (zeros._hermitian_defect(f, 0.5, 21.0) == 0) == exact
        walked_sides.clear()
        half, failed, _ = _count_rectangles(f, rects)
        assert not failed and walked_sides == [3] * len(rects)
        monkeypatch.setattr(zeros, "_hermitian_defect", lambda f, h, zabs: np.inf)
        walked_sides.clear()
        full, failed, _ = _count_rectangles(f, rects)
        assert not failed and walked_sides == [4] * len(rects)
        assert half.tolist() == full.tolist()
        assert half[0] == find_real_zeros(f, (-20.2, 20.2)).count

    @pytest.mark.parametrize("terms", [[(-0.5, 0.5), (0.5, 0.5 + 1e-9j)],
                                       [(-0.5, 0.5), (0.5 + 1e-9, 0.5)]])
    def test_larger_defect_walks_four_edges(self, walked_sides, terms):
        f = canonicalize(terms)
        assert zeros._hermitian_defect(f, 1.0, 1.0) > 1e-9
        counts, failed, _ = _count_rectangles(f, [(0.0, 1.0, -1.0, 1.0)])
        assert counts.tolist() == [1] and not failed and walked_sides == [4]

    def test_off_axis_boxes_walk_four_edges(self, cos, walked_sides):
        counts, failed, _ = _count_rectangles(cos, [(0.0, 1.0, -1.0, 1.0), (0.0, 1.0, 0.1, 0.5),
                                                 (0.0, 1.0, -1.0, 0.9)])
        assert counts.tolist() == [1, 0, 1] and not failed and walked_sides == [3, 4, 4]

    def test_off_the_line_box_of_the_finder_walks_four_edges(self, walked_sides):
        # the box that certifies the zero at k - 0.0168i sits clear of the line
        with pytest.raises(ConvergenceError, match="off the real line"):
            find_real_zeros(canonicalize([(0.0, 1.0), (1.0, -0.9)]), (-5.2, 5.2))
        assert walked_sides[-1] == 4


class TestContourFloor:
    """find_real_zeros keeps its strip: the contour's height and a certified
    lower bound on |f| along it, mirrored half included."""

    @pytest.mark.parametrize("cs, window", [((1.0, math.sqrt(2.0), math.sqrt(3.0)), 20.001),
                                            ((1.0, 1.0), 20.2)])
    def test_floor_is_below_the_sampled_contour(self, cs, window):
        f = _cos_product(cs)
        A = find_real_zeros(f, (-window, window))
        h = A.strip_height
        x = np.linspace(-window, window, 49_000)
        y = np.linspace(-h, h, 1_000)
        contour = np.concatenate([x - 1j * h, x + 1j * h, window + 1j * y, -window + 1j * y])
        sampled = float(np.min(np.abs(evaluate(f, contour))))
        assert 0 < A.contour_floor <= sampled
        assert A.contour_floor > 0.5 * sampled  # the walk refines until |f'| seg <= |f| / 2
        assert h == pytest.approx(1.0 / (16.0 * f.max_abs_freq), rel=0.5)

    def test_a_set_not_from_the_finder_has_no_strip(self):
        A = ZeroSet((-1.0, 1.0), np.array([0.5]), np.array([1]))
        assert A.strip_height is None and A.contour_floor is None


class TestRoucheRadii:
    """Each disc holds as many zeros of a nearby sum as its point's order."""

    @pytest.mark.parametrize("eta", [1e-6, 1e-10])
    def test_simple_zeros_of_cos_plus_a_constant(self, cos, eta):
        # cos(pi z) + eta vanishes at k + 1/2 shifted by about eta / pi
        A = find_real_zeros(cos, (-10.2, 10.2))
        radii = zeros.rouche_radii(cos, A, eta)
        shift = np.abs(np.arcsin(eta) / np.pi)
        assert np.all(shift < radii) and np.all(radii < 3 * eta / np.pi + 1e-12)

    def test_double_zeros_of_cos_squared_minus_a_constant(self, cos):
        # cos^2(pi z) - eta splits each double zero into k + 1/2 -+ about sqrt(eta) / pi
        eta = 1e-8
        f = multiply(cos, cos)
        A = find_real_zeros(f, (-5.2, 5.2))
        assert np.all(A.mults == 2)
        radii = zeros.rouche_radii(f, A, eta)
        shift = np.arcsin(np.sqrt(eta)) / np.pi
        assert np.all(shift < radii) and np.all(radii < 3 * shift)

    def test_a_large_distance_fails_the_test(self, cos):
        A = find_real_zeros(cos, (-3.2, 3.2))
        assert np.all(np.isinf(zeros.rouche_radii(cos, A, 0.9)))


class TestRealnessCheck:
    def test_cos_all_real(self, cos):
        rep = realness_check(cos, find_real_zeros(cos, (-10.2, 10.2)))
        assert rep.all_real
        assert rep.real_count == rep.total_count == 20

    def test_complex_zeros_detected(self):
        f = canonicalize([(0.0, 1.0), (1.0, -0.25)])
        rep = realness_check(f, find_real_zeros(f, (-5.2, 5.2)))
        assert not rep.all_real
        assert rep.real_count == 0
        assert rep.total_count == 11

    def test_constant_vacuous(self):
        with pytest.warns(UserWarning):
            A = find_real_zeros(constant(4.0), (-3.0, 3.0))
        rep = realness_check(constant(4.0), A)
        assert rep.all_real
        assert rep.real_count == rep.total_count == 0


class TestZeroSet:
    def test_expand_respects_multiplicity(self):
        A = ZeroSet((-1.0, 1.0), np.array([0.25, 0.5]), np.array([2, 1]))
        assert A.expand().tolist() == [0.25, 0.25, 0.5]
        assert A.count == 3
