import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import zeros
from qclab.errors import (
    BoundaryError,
    ContourError,
    ConvergenceError,
    InvalidInputError,
    QclabError,
)
from qclab.wiener import canonicalize, constant, evaluate, multiply
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
        counts, failed = _count_rectangles(cos, [(0.0, 1.0, -1.0, 1.0)])
        assert counts.tolist() == [1] and not failed

    def test_cos_empty_box(self, cos):
        counts, failed = _count_rectangles(cos, [(0.6, 0.9, -1.0, 1.0)])
        assert counts.tolist() == [0] and not failed

    def test_cos_squared_double_zero(self, cos):
        sq = multiply(cos, cos)
        counts, failed = _count_rectangles(sq, [(0.0, 1.0, -1.0, 1.0)])
        assert counts.tolist() == [2] and not failed

    def test_many_zeros(self, cos):
        counts, failed = _count_rectangles(cos, [(-10.2, 10.2, -1.0, 1.0)])
        assert counts.tolist() == [20] and not failed

    def test_complex_zero_found(self):
        # zero where exp(2*pi*i*z) = 4, i.e. z = k - i*log(4)/(2*pi)
        f = canonicalize([(0.0, 1.0), (1.0, -0.25)])
        y = -math.log(4.0) / (2 * math.pi)
        counts, failed = _count_rectangles(f, [(-0.5, 0.5, y - 0.2, y + 0.2),
                                               (-0.5, 0.5, -0.05, 0.05)])
        assert counts.tolist() == [1, 0] and not failed

    def test_contour_through_zero_errors(self, cos):
        # the failed contour stops only its own rectangle
        counts, failed = _count_rectangles(cos, [(0.0, 1.0, -1.0, 1.0), (0.5, 1.0, -1.0, 1.0)])
        assert counts.tolist() == [1, -1]
        assert list(failed) == [1] and isinstance(failed[1], ContourError)

    def test_constant_has_no_zeros(self):
        counts, failed = _count_rectangles(constant(2.0), [(-3.0, 3.0, -1.0, 1.0)])
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
        counts, _ = _count_rectangles(funion, [(-30.0, 30.0, -0.05, 0.05)])
        assert A.count == counts[0]

    def test_refinement_stability(self, funion):
        # certifying the window from half the first step finds the same zeros
        A = find_real_zeros(funion, (-15.0, 15.0))
        half_step = 1.0 / (32.0 * funion.max_abs_freq)
        counts, nudges = zeros._count_boxes(funion, [(-15.0, 15.0, -half_step, half_step)])
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
