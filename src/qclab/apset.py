"""Almost-periodic-set analytics: density, counting constants, almost
periods, the n/d + phi(n) representation and its diagnostics.

All statistics are computed on a finite window of an (ideally infinite)
point set, so every windowed quantity excludes an edge band and every
bound is an empirical certificate at finite scale, not a theorem.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .zeros import ZeroSet

_MIN_PAIRS = 32  # fewest index pairs inside the window that test a shift h
# most rows of spans a window length checks before it counts the probes;
# on 10^4 points that many rows cost about a third of one count of the probes
_BAND_ROWS = 32


@dataclass(frozen=True)
class CountingConstants:
    k1: int
    k2: int
    windows_sampled: int


@dataclass(frozen=True)
class DensityEstimate:
    d: float
    error_bound: float
    counting: CountingConstants


@dataclass(frozen=True)
class PhiRepresentation:
    """Displacements phi(n) = a_n - n/d, indexed so a_0 is the smallest
    nonnegative point."""

    d: float
    index_offset: int
    n: np.ndarray
    values: np.ndarray

    @property
    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def reconstruct(self) -> np.ndarray:
        return self.n / self.d + self.values


@dataclass(frozen=True)
class AlmostPeriodReport:
    periods: list[tuple[float, int, float]]  # (tau, shift h, sup deviation)
    max_gap: float | None  # largest gap between found periods; None below two


def _searched_counts(e: np.ndarray, x: np.ndarray, h) -> np.ndarray:
    # #A in [x, x+h) at each probe x, one binary search per end; h a length
    # or an array of them that broadcasts against x
    return np.searchsorted(e, x + h) - np.searchsorted(e, x)


def _count_extremes(e: np.ndarray, h_grid, lo: float, hi: float) -> np.ndarray:
    """Exact max and min of #A in [x, x+h) over x in [lo, hi-h], one row
    (max, min) per window length h of h_grid; (0, 0) where hi - h < lo.

    Exact means equal to the counts at every probe where the count can
    change, a -+ 1e-9 and (a - h) -+ 1e-9 for each distinct point a, plus
    lo and hi - h, each probe in [lo, hi-h] counted by binary search.  A
    length that is not sharp with room, or whose band holds more than
    ``_BAND_ROWS`` rows (a set with a gap wider than h puts every k up to
    the count of a window in it), counts exactly these probes.

    The count rises just after an event a - h and falls just after an
    event a.  Let S bound |a|, |lo| and |hi| plus h.  Each of the three
    roundings between an event and a probe's ranks (a - h, b -+ 1e-9 and
    x + h) moves it by at most eps/2 * S, so with fuzz >= 1e-9 + 1.5 eps S
    the probes of an event b with no other event, nor lo or hi - h,
    within fuzz of it count the stretches just before and just after b,
    and they lie in the window exactly when b does.  ``fuzz`` is
    2e-9 + 8 eps S, which also covers the roundings of its own
    comparisons.  Once 8 eps S reaches 1e-9 (S above about 5.6e5), the
    offset no longer decides which side of its event a probe lands on,
    so fuzz = inf and no length is sharp.

    A length is sharp with room when, with f = 2*fuzz + 4 eps S, h > f,
    no two distinct points lie within f of each other, no point lies
    within f of lo, hi - h, lo + h or hi, and no span of k + 1
    consecutive points, s_k = e[i+k] - e[i], lies within f of h; only the
    k of the band of ``_Spans`` need a look.  Every gap between two
    events is then a gap between points or a span minus h, and every gap
    between an event and a window end a gap between a point and lo,
    hi - h, lo + h or hi, so each is at least f up to roundings below
    2 eps S, more than fuzz.  The probes then count lo, hi - h and the
    stretches just before and just after each event in the window.  The
    stretch before an event is the one after the event before it, or
    holds lo, so the probed counts are those at lo and hi - h and just
    after the events in the window, and ``_span_extremes`` reads the same
    numbers off the spans.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    out = np.zeros((h_grid.size, 2), np.int64)
    reach = max(abs(lo), abs(hi), float(np.max(np.abs(e), initial=0.0)))
    eps = np.finfo(float).eps
    top = hi - h_grid
    rounding = 8.0 * eps * (reach + h_grid)
    fuzz = np.where(rounding < 1e-9, 2e-9 + rounding, np.inf)
    f = 2.0 * fuzz + 4.0 * eps * (reach + h_grid)
    points = e[np.flatnonzero(np.diff(e, prepend=-np.inf))]
    gap = np.min(np.diff(points), initial=np.inf)

    def rank(x, side="left"):
        return np.searchsorted(e, x, side)

    def clear(x):  # no point within f of x
        return rank(x - f) == rank(x + f, "right")

    sharp = ((top >= lo) & (gap > f) & (h_grid > f) & clear(lo) & clear(top)
             & clear(lo + h_grid) & clear(hi))
    # with room, the rises a - h in the window are those of e[r0:r1], the
    # falls a those of e[f0:f1], and the counts at lo and hi - h follow
    r0, f1 = rank(lo + h_grid), rank(top, "right")
    r1, f0 = int(rank(hi, "right")), int(rank(lo))
    c_lo, c_top = r0 - f0, rank(top + h_grid) - f1
    spans = _Spans(e)
    for g in np.argsort(h_grid, kind="stable"):
        if top[g] < lo:
            continue
        h = float(h_grid[g])
        if sharp[g]:
            band = spans.band(h, f[g])
            if band is not None and spans.clear(h, f[g], *band):
                out[g] = _span_extremes(spans, band, h, int(c_lo[g]), int(c_top[g]),
                                        (int(r0[g]), r1), (f0, int(f1[g])))
                continue
        x = np.concatenate([points, points - h])
        x = np.concatenate([x - 1e-9, x + 1e-9, [lo, top[g]]])
        c = _searched_counts(e, x[(x >= lo) & (x <= top[g])], h)
        out[g] = c.max(), c.min()
    return out


class _Spans:
    """The spans s_k = e[k:] - e[:-k] of k + 1 consecutive points, for
    the band of k whose spans can lie within f of a length h.

    min s_k and max s_k grow with k, so the band {k : min s_k <= h + f and
    max s_k >= h - f} is a run of k, and for ascending h it only moves up:
    a row is computed when the band reaches it and dropped once the band
    has passed it.  Every span of a k below the band lies below h - f,
    every span of a k above it above h + f.

    The band skips the rows that s_{a+b}(i) = s_a(i) + s_b(i+a) puts
    below it: max s_{a+b} <= max s_a + max s_b, for any row b computed
    before, with 4 eps of room for the roundings of the three spans.
    """

    def __init__(self, e: np.ndarray):
        self.e = e
        self.first = 1  # the k of rows[0]; s_0 = 0 lies below h - f as h > f
        self.below = 0.0  # an upper bound on max s_{first - 1}
        self.rows = deque()  # (s_k, min s_k, max s_k) for k = first, first + 1, ...
        self.ks, self.maxs = [], []  # every row computed so far and its max

    def band(self, h: float, f: float) -> tuple[int, int] | None:
        """First and last k of the band at h, last < first when it is
        empty, or None when it holds more than ``_BAND_ROWS`` rows; h must
        not fall below an earlier call's."""
        e, rows = self.e, self.rows
        while True:
            if not rows:
                self._skip(h - f)
                if self.first >= e.size:
                    return self.first, self.first - 1
                self._append()
            if rows[0][2] >= h - f:
                break
            _, _, self.below = rows.popleft()
            self.first += 1
        while rows[-1][1] <= h + f and self.first + len(rows) < e.size:
            if len(rows) > _BAND_ROWS:
                return None
            self._append()
        return self.first, self.first + len(rows) - 1 - int(rows[-1][1] > h + f)

    def clear(self, h: float, f: float, first: int, last: int) -> bool:
        """Whether no span of the band lies within f of h."""
        return all(np.abs(self.row(k) - h).min() > f for k in range(first, last + 1))

    def row(self, k: int) -> np.ndarray:
        return self.rows[k - self.first][0]

    def _skip(self, limit: float):
        # rows first .. first - 1 + b lie below limit when below + max s_b does
        j = bisect_left(self.maxs, limit - self.below)
        while j > 0:
            bound = (self.below + self.maxs[j - 1]) * (1.0 + 4.0 * np.finfo(float).eps)
            if bound < limit:
                self.first += self.ks[j - 1]
                self.below = bound
                return
            j -= 1

    def _append(self):
        k = self.first + len(self.rows)
        s = self.e[k:] - self.e[:-k]
        self.rows.append((s, s.min(), s.max()))
        self.ks.append(k)
        self.maxs.append(self.rows[-1][2])


def _span_extremes(spans: _Spans, band, h: float, c_lo: int, c_top: int,
                   rises, falls) -> tuple[int, int]:
    """(max, min) of the count at a sharp length h with room, from the
    counts at lo and hi - h and the spans; the points of index r0 <= i < r1
    have their rise in the window, those of f0 <= j < f1 their fall.

    After the rise a_i - h, the count is #A in (a_i - h, a_i], which is at
    least k + 1 exactly when s_k = e_i - e_{i-k} < h (i the last index of
    its point; a smaller index of the same point has no smaller span).
    After the fall a_j it is #A in (a_j, a_j + h], at most k - 1 exactly
    when s_k = e_{j+k} - e_j > h (j likewise; k never exceeds the count at
    hi - h, at most n - f1, so e_{j+k} exists).  The count on a stretch
    after a fall is at most the one before it, and after a rise at least,
    so the max is the largest count at lo, at hi - h or after a rise, and
    the min the smallest at lo, at hi - h or after a fall.  Each steps
    from the counts at the window ends one k at a time inside the band,
    and over the k below it (max) or above it (min) at once.
    """
    first, last = band
    (r0, r1), (f0, f1) = rises, falls
    top = max(c_lo, c_top)
    if r0 < r1 and top < first:  # every span of these k lies below h
        top = min(first, r1)
    while top <= last and max(r0, top) < r1 and \
            spans.row(top)[max(r0 - top, 0):r1 - top].min() < h:
        top += 1
    bottom = min(c_lo, c_top)
    if f0 < f1:
        bottom = min(bottom, last)  # every span of these k lies above h
        while bottom >= first and spans.row(bottom)[f0:f1].max() > h:
            bottom -= 1
    return top, bottom


def counting_constants(A: ZeroSet, h_grid=None) -> CountingConstants:
    """Empirical k1 (unit-window bound) and k2 (equal-length discrepancy).

    k1 is the exact sliding maximum over half-open unit windows
    (``ZeroSet.k1``, computed once per set).  k2 is, for each probed
    window length h, the exact spread max - min of the sliding count,
    maximized over a grid of lengths; this dominates every sampled pair
    of equal-length windows at those lengths.  A length that is sharp
    with room reads its spread off the spans of consecutive points;
    every other length counts, by binary search, every probe where the
    count can change.  Either way the spread equals that of the probes
    (see ``_count_extremes``).
    ``density`` carries the result, so a run needs only one call.  An
    explicit ``h_grid`` must hold finite positive lengths.
    """
    if A.count == 0:
        raise DomainError("counting constants need a nonempty set")
    e = A.expand()
    lo, hi = A.window
    length = hi - lo
    d_rough = max(A.count / length, 1e-12)
    h0 = min(0.5, 0.25 / d_rough)
    h_max = length / 4.0
    if h_grid is None:
        if h_max <= h0:
            h_grid = np.array([h_max])
        else:
            # irrational-step grids dodge resonances with lattice spacings
            golden = 0.5 * (np.sqrt(5.0) - 1.0)
            h_grid = np.unique(np.concatenate([
                np.linspace(h0, min(6.0 / d_rough, h_max), 97) + h0 * golden * 1e-3,
                np.linspace(h0, h_max, 257) + h0 * golden * 1e-2,
                np.linspace(h0, h_max, 64),
            ]))
            h_grid = h_grid[(h_grid >= h0) & (h_grid <= h_max)]
    else:
        h_grid = np.asarray(h_grid, dtype=float)
        if not np.all(np.isfinite(h_grid) & (h_grid > 0)):
            raise DomainError("window lengths must be finite and positive")
    ext = _count_extremes(e, h_grid, lo, hi)
    k2 = int(np.max(ext[:, 0] - ext[:, 1], initial=0))
    sampled = len(h_grid) * (2 * e.size + 2)
    return CountingConstants(k1=A.k1, k2=int(k2), windows_sampled=sampled)


def density(A: ZeroSet) -> DensityEstimate:
    """Point density over the window with the counting-constant error
    bound (2*k2 + 2*k1) / length; the constants it used ride along as
    ``counting``."""
    if A.count == 0:
        raise DomainError("cannot estimate the density of an empty set")
    lo, hi = A.window
    length = hi - lo
    if A.count < 10:
        raise DomainError("window too short for a density estimate (needs >= 10 points)")
    cc = counting_constants(A)
    d = A.count / length
    return DensityEstimate(d=d, error_bound=(2.0 * cc.k2 + 2.0 * cc.k1) / length, counting=cc)


def almost_periods(A: ZeroSet, epsilon: float, tau_range) -> AlmostPeriodReport:
    """Scan integer index shifts h for epsilon-almost periods.

    For each h the candidate translation is tau_h = median(a_{n+h} - a_n)
    over the interior of the window; (tau_h, h) is reported when the sup
    deviation stays below epsilon and tau_h is consistent with h/d, which
    makes both report invariants hold by construction.  A shift needs at
    least 32 index pairs inside the window.  ``max_gap`` is the largest
    gap between consecutive periods, None when fewer than two are found.

    The scan stops at the first shift whose median of all differences
    exceeds t1 + epsilon.  The median lies between the least and the
    largest difference, so those two decide it unless they straddle
    t1 + epsilon.  The pairs inside the widest band max(1, largest
    difference) are inside the band of the shift, so differences there
    spreading by more than 2 epsilon force sup_dev >= epsilon, whatever
    the median: such a shift is skipped before either median is taken.
    The 4 eps of room covers the roundings of the spread and of each
    deviation.  The skipped shifts are exactly ones the full test rejects.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    e = A.expand()
    lo, hi = A.window
    d = A.count / (hi - lo)  # the density estimate of ``density``
    t0, t1 = map(float, tau_range)
    h_cap = min(int(np.ceil(t1 * d)) + 2, e.size - _MIN_PAIRS)
    stop = t1 + epsilon
    spread = 2.0 * epsilon * (1.0 + 4.0 * np.finfo(float).eps)

    def inside(h, band):  # the diffs of the pairs in [lo + band, hi - band]
        return diffs[np.searchsorted(e, lo + band):np.searchsorted(e, hi - band, "right") - h]

    periods = []
    for h in range(1, max(h_cap, 0) + 1):
        diffs = e[h:] - e[:-h]
        least, most = diffs.min(), diffs.max()
        if least > stop:
            break
        tau0 = float(np.median(diffs)) if most > stop else None
        if tau0 is not None and tau0 > stop:
            break
        core = inside(h, max(1.0, most))
        if core.size and core.max() - core.min() > spread:
            continue
        if tau0 is None:
            tau0 = float(np.median(diffs))
        pairs = inside(h, max(1.0, tau0))
        if pairs.size < _MIN_PAIRS:
            continue
        tau = float(np.median(pairs))
        sup_dev = float(np.max(np.abs(pairs - tau)))
        if sup_dev < epsilon and abs(tau - h / d) <= epsilon and t0 <= tau <= t1:
            periods.append((tau, h, sup_dev))
    taus = sorted(p[0] for p in periods)
    max_gap = float(np.max(np.diff(taus))) if len(taus) >= 2 else None
    return AlmostPeriodReport(periods=periods, max_gap=max_gap)


def phi_representation(A: ZeroSet, d: float) -> PhiRepresentation:
    """phi(n) = a_n - n/d with indices centered at the smallest
    nonnegative point; the reconstruction n/d + phi(n) is the identity."""
    if d <= 0:
        raise DomainError("density must be positive")
    if A.count == 0:
        raise DomainError("empty set has no representation")
    e = A.expand()
    i0 = int(np.searchsorted(e, 0.0, side="left"))
    i0 = min(i0, e.size - 1)
    n = np.arange(e.size, dtype=np.int64) - i0
    return PhiRepresentation(d=float(d), index_offset=i0, n=n, values=e - n / d)


def lindelof_sum(A: ZeroSet, N_list):
    """Partial sums sum_{|a_n| < N} 1/a_n, N > 0, and their Cauchy
    statistic (max pairwise spread over the top half of N_list)."""
    if any(float(N) <= 0 for N in N_list):
        raise DomainError(f"N must be positive, so the window must contain 0; got {N_list}")
    e = A.expand()
    if e.size and np.min(np.abs(e)) < 1e-12:
        raise DomainError("0 is in the set; translate the set before summing 1/a_n")
    sums = []
    for N in N_list:
        mask = np.abs(e) < float(N)
        sums.append(float(np.sum(1.0 / e[mask])))
    ordered = [s for _, s in sorted(zip(N_list, sums))]
    top = ordered[len(ordered) // 2:]
    cauchy = float(max(top) - min(top)) if len(top) >= 2 else 0.0
    return sums, cauchy


def krein_levin_diagnostic(phi: PhiRepresentation, tau_list, N: int) -> float:
    """Truncated sup over integer tau of |sum_{0<|n|<=N} [phi(n+tau)-phi(n)]/n|."""
    n = phi.n
    n_min, n_max = int(n.min()), int(n.max())
    taus = [int(t) for t in tau_list]
    if not taus:
        raise DomainError("tau_list must be nonempty")
    if N + max(max(taus), 0) > n_max or -N + min(min(taus), 0) < n_min:
        raise DomainError("phi window does not cover n + tau for |n| <= N")
    ks = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    vals = phi.values
    base = vals[ks - n_min]
    best = 0.0
    for tau in taus:
        shifted = vals[ks + tau - n_min]
        s = float(np.sum((shifted - base) / ks))
        best = max(best, abs(s))
    return best
