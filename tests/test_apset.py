import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import apset, wiener
from qclab.apset import (
    almost_periods,
    counting_constants,
    density,
    krein_levin_diagnostic,
    lindelof_sum,
    phi_representation,
)
from qclab.diffraction import bohr_means
from qclab.errors import DomainError
from qclab.zeros import ZeroSet

from conftest import SQRT2, lattice_points, lattice_zeroset, union_zeroset


def _oracle_counts(e: np.ndarray, h: float, lo: float, hi: float) -> np.ndarray:
    # Reference: #A in [x, x+h) for x in [lo, hi-h]; the count only changes
    # at x = a_j and x = a_j - h, so probe both sides of each with one
    # binary search per probe.
    xs = np.concatenate([e, e - h])
    xs = np.concatenate([xs - 1e-9, xs + 1e-9, [lo, hi - h]])
    xs = xs[(xs >= lo) & (xs <= hi - h)]
    return np.searchsorted(e, xs + h, side="left") - np.searchsorted(e, xs, side="left")


def _slide_extremes(e: np.ndarray, h: float, lo: float, hi: float) -> tuple[int, int]:
    # Reference: exact max/min of #A in [x, x+h) over x in [lo, hi-h].
    cnt = _oracle_counts(e, h, lo, hi)
    if cnt.size == 0:
        return 0, 0
    return int(cnt.max()), int(cnt.min())


def _oracle_extremes(e, h_grid, lo, hi):
    return np.array([_slide_extremes(e, float(h), lo, hi) for h in h_grid],
                    dtype=np.int64).reshape(-1, 2)


@st.composite
def _hard_sets(draw):
    """Small zero sets on a step grid, with multiplicities up to 3, points
    within 1e-9 of each other and of the window ends, and 1 to 3 points
    in some windows; plus window lengths that hit point spacings exactly."""
    lo = draw(st.sampled_from([0.0, -3.0, -10.5]))
    length = draw(st.sampled_from([1.0, 2.5, 7.0, 20.0]))
    hi = lo + length
    step = draw(st.sampled_from([0.25, 0.5, 1.0 / 3.0, SQRT2 / 2.0]))
    top = int(length / step)
    few = draw(st.booleans())
    ks = draw(st.lists(st.integers(0, top), min_size=1, max_size=3 if few else 25))
    pts = [lo + k * step for k in ks]
    nudges = draw(st.lists(
        st.tuples(st.integers(0, len(pts) - 1),
                  st.sampled_from([-2e-9, -1e-9, -5e-10, 1e-12, 5e-10, 1e-9, 2e-9])),
        max_size=0 if few else 6))
    pts += [pts[i] + dx for i, dx in nudges]
    pts += draw(st.lists(st.sampled_from([lo, lo + 5e-10, lo + 1e-9, hi - 1e-9, hi]),
                         max_size=0 if few else 3))
    pts = np.unique([p for p in pts if lo <= p <= hi])
    mults = np.array(draw(st.lists(st.integers(1, 3), min_size=pts.size, max_size=pts.size)),
                     dtype=np.int64)
    A = ZeroSet((lo, hi), pts, mults)
    e = A.expand()
    spacings = np.unique(e[:, None] - e[None, :])
    hs = [float(x) for x in spacings if 0 < x <= length]
    hs = draw(st.lists(st.sampled_from(hs), max_size=8)) if hs else []
    hs += draw(st.lists(st.floats(1e-3, 1.2 * length), max_size=3))
    # generic lengths, for which ((a - h) - 1e-9) + h often rounds away from a - 1e-9
    hs += [1.2 * length * k / 2**30 for k in draw(st.lists(st.integers(1, 2**30),
                                                          min_size=1, max_size=4))]
    hs += [k * step for k in draw(st.lists(st.integers(1, top + 1), max_size=4))]
    return A, np.unique(hs)


class TestDensity:
    def test_lattice(self, lat500):
        est = density(lat500)
        assert est.d == pytest.approx(1.0, abs=0.01)
        assert est.error_bound <= 0.01

    def test_union(self, uni500):
        est = density(uni500)
        assert est.d == pytest.approx(1.0 + SQRT2, abs=0.02)

    def test_single_point_rejected(self):
        A = ZeroSet((-1.0, 1.0), np.array([0.3]), np.array([1]))
        with pytest.raises(DomainError):
            density(A)

    def test_error_bound_covers_reference(self, lat500, uni500):
        for A, d_ref in ((lat500, 1.0), (uni500, 1.0 + SQRT2)):
            est = density(A)
            assert abs(est.d - d_ref) <= est.error_bound


class TestCountingConstants:
    def test_lattice(self, lat500):
        cc = counting_constants(lat500)
        assert cc.k1 == 1
        assert cc.k2 == 1

    def test_doubled_lattice(self, lat500):
        A = ZeroSet(lat500.window, lat500.points, 2 * lat500.mults)
        assert counting_constants(A).k1 == 2

    def test_union_bound(self, uni500):
        cc = counting_constants(uni500)
        assert 2 <= cc.k1 <= 3

    def test_counting_bounds_on_random_windows(self, uni500):
        cc = counting_constants(uni500)
        e = uni500.expand()
        lo, hi = uni500.window
        rng = np.random.default_rng(11)
        for _ in range(5000):
            h = float(rng.uniform(0.01, (hi - lo) / 4))
            x1, x2 = rng.uniform(lo, hi - h, 2)
            c1 = int(np.searchsorted(e, x1 + h) - np.searchsorted(e, x1))
            c2 = int(np.searchsorted(e, x2 + h) - np.searchsorted(e, x2))
            assert c1 <= cc.k1 * (h + 1)
            assert abs(c1 - c2) <= cc.k2
        # discrepancy also bounds a window against its M-fold average
        for _ in range(2000):
            h = float(rng.uniform(0.01, 40.0))
            M = int(rng.integers(1, 6))
            x = float(rng.uniform(lo, hi - M * h))
            c1 = int(np.searchsorted(e, x + h) - np.searchsorted(e, x))
            cM = int(np.searchsorted(e, x + M * h) - np.searchsorted(e, x))
            assert abs(c1 - cM / M) <= cc.k2


class TestCountingSweep:
    @settings(max_examples=150, deadline=None)
    @given(_hard_sets())
    def test_sweep_matches_oracle_per_length(self, case):
        A, hs = case
        lo, hi = A.window
        e = A.expand()
        got = apset._count_extremes(e, hs, lo, hi)
        assert np.array_equal(got, _oracle_extremes(e, hs, lo, hi))
        # one length at a time, longest first: no length carries anything
        # into the row of the next
        for k in reversed(range(len(hs))):
            assert np.array_equal(apset._count_extremes(e, hs[k:k + 1], lo, hi), got[k:k + 1])

    @settings(max_examples=60, deadline=None)
    @given(_hard_sets())
    def test_counting_constants_match_oracle(self, case):
        A, hs = case
        for h_grid in (None, hs):
            got = counting_constants(A, h_grid)
            with mock.patch.object(apset, "_count_extremes", _oracle_extremes):
                want = counting_constants(A, h_grid)
            assert got == want

    def test_union_matches_oracle(self, uni500):
        got = counting_constants(uni500)
        with mock.patch.object(apset, "_count_extremes", _oracle_extremes):
            assert got == counting_constants(uni500)

    def test_density_carries_its_constants(self, uni500):
        assert density(uni500).counting == counting_constants(uni500)


def _clusters():
    """Clusters of 3-4 points within 1e-9 of each other, multiplicities 1-3,
    and the first 40 point spacings as window lengths: every guess of the
    sweep is wrong somewhere, some by a dozen."""
    rng = np.random.default_rng(7)
    offsets = np.array([0.0, 4e-10, 7e-10, 1e-9])
    pts = np.concatenate([c + offsets[:rng.integers(3, 5)] for c in 0.37 * np.arange(1, 22)])
    A = ZeroSet((0.0, 8.5), pts, rng.integers(1, 4, pts.size))
    e = A.expand()
    spacings = np.unique(e[:, None] - e[None, :])
    return A, spacings[spacings > 0][:40]


@contextmanager
def _searches():
    """Records the lengths at which apset._count_extremes counts probes
    by binary search."""
    lengths = []
    searched = apset._searched_counts

    def spy(e, x, h):
        lengths.append(h)
        return searched(e, x, h)

    with mock.patch.object(apset, "_searched_counts", spy):
        yield lengths


class TestSweepChecks:
    def test_default_grid_on_the_2100_union_matches_oracle(self, uni2100):
        # the symmetric window makes h_max = 1050 a lattice spacing, where
        # points sit exactly at a + h and two checks fail
        got = counting_constants(uni2100)
        with mock.patch.object(apset, "_count_extremes", _oracle_extremes):
            assert got == counting_constants(uni2100)

    def test_every_check_fails_matches_oracle(self):
        # every length has events within the fuzz of each other, so the
        # sharpness check fails and every probe is searched
        A, hs = _clusters()
        lo, hi = A.window
        e = A.expand()
        with _searches() as lengths:
            got = apset._count_extremes(e, hs, lo, hi)
        assert np.array_equal(got, _oracle_extremes(e, hs, lo, hi))
        assert lengths == list(hs)

    def test_high_multiplicity_at_a_plus_h_matches_oracle(self):
        # every 20th lattice point has multiplicity 500 and integer lengths
        # land a + h on it, so the events a - h and a coincide and every
        # length is searched
        pts = lattice_points(0.5, 1.0, 100)
        mults = np.where(np.arange(pts.size) % 20 == 0, 500, 1)
        A = ZeroSet((-100.0, 100.0), pts, mults)
        lo, hi = A.window
        e = A.expand()
        hs = np.arange(1.0, 51.0)
        with _searches() as lengths:
            got = apset._count_extremes(e, hs, lo, hi)
        assert np.array_equal(got, _oracle_extremes(e, hs, lo, hi))
        assert lengths == list(hs)
        # a window gains a 500-fold point where another loses a simple one
        assert np.max(got[:, 0] - got[:, 1]) == 499

    @pytest.mark.parametrize("flip", [False, True])
    def test_event_within_the_fuzz_of_a_window_end_matches_oracle(self, flip):
        # a point 5e-10 below lo + h has its event a - h 5e-10 below lo
        # (flipped: a point, so an event a, 5e-10 above hi - h), just
        # outside the window; the count at that end is the window's
        # minimum, and the count just past that event is one less
        dense = 2.5 + 0.1 * SQRT2 * np.arange(53)
        pts = np.append(dense, 2.0 - 5e-10)
        if flip:
            pts = 10.0 - pts
        e = np.sort(pts)
        with _searches() as lengths:
            got = apset._count_extremes(e, [2.0], 0.0, 10.0)
        assert np.array_equal(got, _oracle_extremes(e, [2.0], 0.0, 10.0))
        assert got.tolist() == [[15, 1]]
        assert lengths == [2.0]

    def test_plateau_seen_by_one_probe_matches_oracle(self):
        # the events 3 (5 - h, multiplicity 3), 3 + 3e-10 (a point, 3) and
        # 3 + 1.1e-9 (a point): only the lower probe of the last one lands
        # between the first two, where the count is the window's largest
        e = np.array([3.0 + 3e-10] * 3 + [3.0 + 1.1e-9] + [5.0] * 3)
        with _searches() as lengths:
            got = apset._count_extremes(e, [2.0], 0.0, 10.0)
        assert np.array_equal(got, _oracle_extremes(e, [2.0], 0.0, 10.0))
        assert got.tolist() == [[7, 0]]
        assert lengths == [2.0]

    @settings(max_examples=40, deadline=None)
    @given(_hard_sets(), st.sampled_from([4e5, 6e5, 1e7, -3e8]))
    def test_far_window_matches_oracle(self, case, shift):
        # past |x| ~ 5.6e5 the rounding of x + h rivals the 1e-9 probe
        # offset, and every probe is searched
        A, hs = case
        lo, hi = (x + shift for x in A.window)
        e = A.expand() + shift
        e = e[(e >= lo) & (e <= hi)]
        if e.size:
            assert np.array_equal(apset._count_extremes(e, hs, lo, hi),
                                  _oracle_extremes(e, hs, lo, hi))

    @pytest.mark.parametrize("h", [math.nan, math.inf, -1.0, 0.0])
    def test_invalid_window_length_rejected(self, h):
        A = lattice_zeroset(0.5, 1.0, 10)
        with pytest.raises(DomainError):
            counting_constants(A, [2.0, h])


@st.composite
def _regular_sets(draw):
    """Lattices, jittered lattices, two-lattice unions and uniform random
    sets of 20 to 300 points, some doubled, some spilling past the window
    or leaving a stretch of it empty: sets whose lengths mostly take the
    spans, from counts at the window ends both near and far from the
    counts inside."""
    kind = draw(st.sampled_from(["lattice", "jittered", "union", "random"]))
    n = draw(st.integers(20, 300))
    spacing = draw(st.sampled_from([1.0, 0.5, 1.0 / 3.0, SQRT2 / 2.0]))
    lo = draw(st.sampled_from([0.0, -7.25, -100.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    k = np.arange(n) + 0.5
    if kind == "lattice":
        pts = k * spacing
    elif kind == "jittered":
        pts = (k + draw(st.sampled_from([1e-3, 0.05, 0.3])) * rng.uniform(-1, 1, n)) * spacing
    elif kind == "union":
        pts = np.concatenate([k * spacing, np.arange(0.25, n, SQRT2) * spacing])
    else:
        pts = rng.uniform(0.0, n * spacing, n)
    length = n * spacing * draw(st.sampled_from([1.0, 0.8, 1.5]))
    # the window ends on the lattice of points or off it
    lo += draw(st.sampled_from([0.0, 0.0625 * spacing, 0.123]))
    pts = np.sort(lo + pts)
    mults = np.where(rng.random(pts.size) < draw(st.sampled_from([0.0, 0.1])), 2, 1)
    hs = np.concatenate([np.linspace(0.05, length / 2, draw(st.integers(1, 40))),
                         spacing * np.array(draw(st.lists(st.integers(1, 20), max_size=3)))])
    return np.repeat(pts, mults), hs, lo, lo + length


class TestSpanPath:
    """Which lengths take the spans of the points and which the probes."""

    def test_span_path_on_the_benchmark_union(self):
        # the zeroset-diffract set, a window off the lattice spacings
        A = union_zeroset(2100.18)
        with _searches() as lengths:
            counting_constants(A)
        assert A.count == 10140
        assert lengths == []

    def test_span_path_on_a_4000_point_lattice_matches_oracle(self):
        # the half-integers in a window off the lattice, as in the cos-zeros run
        pts = lattice_points(0.5, 1.0, 2000)
        A = ZeroSet((-2000.18, 2000.17), pts, np.ones(pts.size, np.int64))
        with _searches() as lengths:
            got = counting_constants(A)
        assert A.count == 4000
        assert lengths == []
        with mock.patch.object(apset, "_count_extremes", _oracle_extremes):
            assert got == counting_constants(A)

    def test_far_lattice_takes_the_probes_and_matches_oracle(self):
        # 3000 half-integers past 1e6, where 8 eps S passes the 1e-9 probe
        # offset: no length is sharp, so every one counts the probes
        pts = 1e6 + lattice_points(0.5, 1.0, 1500)
        A = ZeroSet((1e6 - 1500.18, 1e6 + 1500.17), pts, np.ones(pts.size, np.int64))
        with _searches() as lengths:
            got = counting_constants(A)
        assert A.count == 3000
        # one search per length of the default grid
        assert lengths and len(lengths) == got.windows_sampled // (2 * A.count + 2)
        with mock.patch.object(apset, "_count_extremes", _oracle_extremes):
            assert got == counting_constants(A)

    @settings(max_examples=80, deadline=None)
    @given(_regular_sets())
    def test_matches_oracle(self, case):
        e, hs, lo, hi = case
        got = apset._count_extremes(e, hs, lo, hi)
        assert np.array_equal(got, _oracle_extremes(e, hs, lo, hi))
        # in any order of the lengths, each row is the same
        order = np.random.default_rng(hs.size).permutation(hs.size)
        assert np.array_equal(apset._count_extremes(e, hs[order], lo, hi), got[order])

    def test_counts_at_the_window_ends_far_below_the_band(self):
        # the points fill only the middle of the window, so the counts at lo
        # and at hi - h are 0 and the max steps past every k below the band
        e = 45.0 + 0.05 * (np.arange(200) + 0.5)
        hs = np.linspace(0.5, 25.0, 50) + 0.0123
        with _searches() as lengths:
            got = apset._count_extremes(e, hs, 0.0, 100.0)
        assert lengths == []
        assert np.array_equal(got, _oracle_extremes(e, hs, 0.0, 100.0))

    def test_wide_band_takes_the_probes(self):
        # a gap of 40 puts a span above every h in each row, so the band
        # holds every k up to about h / 0.05; past _BAND_ROWS it takes the probes
        e = np.concatenate([0.05 * (np.arange(600) + 0.5), 70.0 + 0.05 * (np.arange(600) + 0.5)])
        hs = np.linspace(0.5, 25.0, 50) + 0.0123
        with _searches() as lengths:
            got = apset._count_extremes(e, hs, 0.0, 100.0)
        assert lengths == [h for h in hs if h > 0.05 * apset._BAND_ROWS]
        assert np.array_equal(got, _oracle_extremes(e, hs, 0.0, 100.0))


class TestUnsortedZeroSet:
    def test_same_constants_and_means_as_sorted_copy(self):
        A = union_zeroset(60)
        mults = np.arange(A.points.size) % 3 + 1
        B = ZeroSet(A.window, A.points, mults)
        perm = np.random.default_rng(5).permutation(A.points.size)
        C = ZeroSet(A.window, B.points[perm], B.mults[perm])
        assert np.array_equal(C.points, B.points)
        assert np.array_equal(C.mults, B.mults)
        assert counting_constants(C) == counting_constants(B)
        gammas = np.linspace(-3.0, 3.0, 25)
        Ts = [50.0, 25.0, 12.5]
        assert np.array_equal(bohr_means(C, gammas, Ts), bohr_means(B, gammas, Ts))

    def test_stable_for_repeated_points(self):
        A = ZeroSet((0.0, 3.0), [2.0, 1.0, 1.0], [1, 2, 3])
        assert A.points.tolist() == [1.0, 1.0, 2.0]
        assert A.mults.tolist() == [2, 3, 1]


def _reference_periods(A, epsilon, tau_range):
    # Reference: the scan that takes both medians at every shift.
    e = A.expand()
    lo, hi = A.window
    d = A.count / (hi - lo)
    t0, t1 = map(float, tau_range)
    h_cap = min(int(np.ceil(t1 * d)) + 2, e.size - apset._MIN_PAIRS)
    periods = []
    for h in range(1, max(h_cap, 0) + 1):
        diffs = e[h:] - e[:-h]
        tau0 = float(np.median(diffs))
        if tau0 > t1 + epsilon:
            break
        band = max(1.0, tau0)
        inside = (e[:-h] >= lo + band) & (e[h:] <= hi - band)
        if int(inside.sum()) < apset._MIN_PAIRS:
            continue
        tau = float(np.median(diffs[inside]))
        sup_dev = float(np.max(np.abs(diffs[inside] - tau)))
        if sup_dev < epsilon and abs(tau - h / d) <= epsilon and t0 <= tau <= t1:
            periods.append((tau, h, sup_dev))
    return periods


@st.composite
def _period_sets(draw):
    """Lattices, jittered lattices, lattices jittered only within 1 or 4 of
    the window ends (outside the pairs the test of a shift looks at, for
    all shifts or the longer ones), two-lattice unions and uniform random sets of 40 to 400 points, with
    an epsilon and a tau range."""
    kind = draw(st.sampled_from(["lattice", "jittered", "ragged", "union", "random"]))
    n = draw(st.integers(40, 400))
    spacing = draw(st.sampled_from([1.0, 0.5, SQRT2 / 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    k = np.arange(n) + 0.5
    if kind == "lattice":
        pts = k * spacing
    elif kind == "jittered":
        pts = (k + draw(st.sampled_from([1e-3, 0.01, 0.05, 0.3])) * rng.uniform(-1, 1, n)) * spacing
    elif kind == "ragged":
        reach = draw(st.sampled_from([1.0, 4.0]))
        edge = (k * spacing < reach) | (k * spacing > n * spacing - reach)
        pts = (k + np.where(edge, rng.uniform(-0.3, 0.3, n), 0.0)) * spacing
    elif kind == "union":
        pts = np.concatenate([k * spacing, np.arange(0.25, n, SQRT2) * spacing])
    else:
        pts = rng.uniform(0.0, n * spacing, n)
    lo = draw(st.sampled_from([0.0, -50.3]))
    A = ZeroSet((lo, lo + n * spacing), lo + pts, np.ones(pts.size, np.int64))
    epsilon = draw(st.sampled_from([0.01, 0.05, 0.2]))
    tau_range = (draw(st.sampled_from([0.0, 1.0])), draw(st.sampled_from([5.0, 20.0, 50.0])))
    return A, epsilon, tau_range


class TestAlmostPeriods:
    def test_lattice_exact_periods(self, lat500):
        rep = almost_periods(lat500, 0.01, (0.0, 10.0))
        taus = [round(t) for t, _, _ in rep.periods]
        assert taus == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert all(dev == 0.0 for _, _, dev in rep.periods)
        assert all(h == round(t) for t, h, _ in rep.periods)

    def test_union_nonempty_and_consistent(self, uni500):
        d = density(uni500).d
        rep = almost_periods(uni500, 0.05, (0.0, 200.0))
        assert len(rep.periods) > 0
        for tau, h, dev in rep.periods:
            assert dev < 0.05
            assert abs(tau - h / d) <= 0.05

    def test_perturbed_lattice_empty(self):
        rng = np.random.default_rng(2)
        pts = np.sort(np.arange(-500, 500) + 0.5 + rng.uniform(-0.3, 0.3, 1000))
        A = ZeroSet((-500.0, 500.0), pts, np.ones(1000, np.int64))
        rep = almost_periods(A, 0.01, (0.0, 50.0))
        assert rep.periods == []

    @pytest.mark.parametrize("tau_range, taus, max_gap", [
        ((0.5, 1.5), [1], None),
        ((1.5, 1.9), [], None),
        ((0.5, 3.5), [1, 2, 3], 1.0),
    ])
    def test_max_gap_needs_two_periods(self, lat500, tau_range, taus, max_gap):
        rep = almost_periods(lat500, 0.01, tau_range)
        assert [round(t) for t, _, _ in rep.periods] == taus
        assert rep.max_gap == max_gap

    @settings(max_examples=150, deadline=None)
    @given(_period_sets())
    def test_matches_the_full_scan(self, case):
        A, epsilon, tau_range = case
        assert almost_periods(A, epsilon, tau_range).periods == _reference_periods(A, epsilon, tau_range)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    def test_spread_of_exactly_two_epsilon(self, eps):
        # integers 1024.. with every other one moved up by eps', eps rounded
        # to the grid of [1024, 2048), so every difference is exact: at shift
        # 1 the pairs inside differ by 1 -+ eps', 98 of each, their median
        # is 1 and their spread exactly 2 eps'.  At epsilon = eps' the
        # sup deviation eps' fails the test; one ulp above, it passes
        eps1 = (1025 + eps) - 1025
        j = np.arange(199)
        pts = 1024.0 + j + np.where(j % 2, eps1, 0.0)
        A = ZeroSet((1023.75, 1222.75), pts, np.ones(199, np.int64))
        inside = (pts[1:] - pts[:-1])[1:197]
        assert inside.max() - inside.min() == 2 * eps1
        for epsilon, first in ((eps1, []), (np.nextafter(eps1, 1.0), [(1.0, 1, eps1)])):
            got = almost_periods(A, epsilon, (0.5, 3.5)).periods
            assert got == _reference_periods(A, epsilon, (0.5, 3.5))
            assert [p for p in got if p[1] == 1] == first


class TestPhiRepresentation:
    def test_lattice_constant_half(self, lat500):
        phi = phi_representation(lat500, 1.0)
        assert np.all(phi.values == 0.5)
        assert lat500.expand()[phi.index_offset] == 0.5

    def test_union_bounded_nonconstant(self, uni500):
        phi = phi_representation(uni500, density(uni500).d)
        assert phi.sup_abs < 1.0
        assert np.ptp(phi.values) > 0.01

    def test_reconstruction_bit_exact(self, uni500):
        phi = phi_representation(uni500, density(uni500).d)
        assert np.array_equal(phi.reconstruct(), uni500.expand())


def _phi_means(phi, thetas, N):
    """Bohr means (1/2N) * sum_{|n|<=N} phi(n) exp(-2j*pi*theta*n) of the
    displacements, one pass of the exp kernel, with the O(1/N) boundary
    allowance 4*sup|phi|/N."""
    mask = np.abs(phi.n) <= N
    coeffs = wiener._exp_rows(-np.asarray(thetas, dtype=float), phi.n[mask],
                              lambda E: E @ phi.values[mask]) / (2.0 * N)
    return coeffs, 4.0 * phi.sup_abs / N


class TestPhiFourier:
    """The displacements of an almost periodic zero set are almost
    periodic in n: their Bohr means settle as N grows."""

    def test_constant_at_zero(self, lat500):
        phi = phi_representation(lat500, 1.0)
        c, err = _phi_means(phi, [0.0], int(min(-phi.n.min(), phi.n.max())))
        assert c[0] == pytest.approx(0.5, abs=err)

    def test_constant_off_zero(self, lat500):
        phi = phi_representation(lat500, 1.0)
        c, err = _phi_means(phi, [0.3], int(min(-phi.n.min(), phi.n.max())))
        assert abs(c[0]) <= err

    def test_union_dominant_frequency_stable(self):
        # the interleaving pattern puts the dominant phi frequency at 1/d
        uni = union_zeroset(4200)
        phi = phi_representation(uni, 1.0 + SQRT2)
        theta = SQRT2 - 1.0
        c3, _ = _phi_means(phi, [theta], 1000)
        c4, _ = _phi_means(phi, [theta], 10000)
        assert abs(c4[0]) > 0.05
        assert abs(c3[0] - c4[0]) < 0.01


class TestLindelofSum:
    def test_symmetric_lattice_vanishes(self):
        A = lattice_zeroset(0.5, 1.0, 10 ** 4)
        sums, cauchy = lindelof_sum(A, [10 ** 3, 5 * 10 ** 3, 10 ** 4])
        assert abs(sums[-1]) < 1e-3
        assert cauchy < 1e-3

    def test_three_quarters_lattice(self):
        # symmetric partial sums of 1/(n + 3/4) converge to pi*cot(3*pi/4)
        A = lattice_zeroset(0.75, 1.0, 10 ** 6)
        sums, _ = lindelof_sum(A, [10 ** 4, 10 ** 5, 10 ** 6])
        assert sums[-1] == pytest.approx(-math.pi, abs=1e-3)

    def test_union_cauchy(self):
        A = union_zeroset(10 ** 4 + 10)
        n_list = [10 ** 3, 2 * 10 ** 3, 5 * 10 ** 3, 10 ** 4]
        _, cauchy = lindelof_sum(A, n_list)
        assert cauchy < 1e-3

    def test_zero_in_set_rejected(self):
        A = ZeroSet((-5.0, 5.0), np.array([-1.0, 0.0, 1.5]), np.ones(3, np.int64))
        with pytest.raises(DomainError, match="translate"):
            lindelof_sum(A, [5])

    @pytest.mark.parametrize("n_list", [[-10.2, -5.1, -2.55, 2.0], [0.0, 5.0]])
    def test_nonpositive_n_rejected(self, n_list):
        A = ZeroSet((10.2, 50.2), np.arange(10.5, 50.0), np.ones(40, np.int64))
        with pytest.raises(DomainError, match="must be positive"):
            lindelof_sum(A, n_list)


class TestKreinLevin:
    def test_constant_phi_vanishes(self, lat500):
        phi = phi_representation(lat500, 1.0)
        assert krein_levin_diagnostic(phi, range(1, 21), 100) == 0.0

    def test_union_stable_between_scales(self):
        uni = union_zeroset(4200)
        phi = phi_representation(uni, 1.0 + SQRT2)
        v3 = krein_levin_diagnostic(phi, range(1, 51), 1000)
        v4 = krein_levin_diagnostic(phi, range(1, 51), 10000)
        assert v4 > 0
        assert abs(v4 - v3) / v4 < 0.10

    def test_random_phi_contrast(self):
        # i.i.d. displacements score several times above the structured set
        rng = np.random.default_rng(2)
        n = 1100
        pts = np.sort(np.arange(-n, n + 1) + 0.5 + rng.uniform(-0.3, 0.3, 2 * n + 1))
        A = ZeroSet((-n - 1.0, n + 1.0), pts, np.ones(pts.size, np.int64))
        phi_noise = phi_representation(A, 1.0)
        noise_val = krein_levin_diagnostic(phi_noise, range(1, 51), 1000)

        uni = union_zeroset(1101)
        phi_uni = phi_representation(uni, 1.0 + SQRT2)
        uni_val = krein_levin_diagnostic(phi_uni, range(1, 51), 1000)
        assert noise_val > 3.0 * uni_val

    def test_window_too_short(self, lat500):
        phi = phi_representation(lat500, 1.0)
        with pytest.raises(DomainError):
            krein_levin_diagnostic(phi, [10], 1000)
