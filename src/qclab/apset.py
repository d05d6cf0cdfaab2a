"""Almost-periodic-set analytics: density, counting constants, almost
periods, the n/d + phi(n) representation and its diagnostics.

All statistics are computed on a finite window of an (ideally infinite)
point set, so every windowed quantity excludes an edge band and every
bound is an empirical certificate at finite scale, not a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .wiener import _exp_rows
from .zeros import ZeroSet

_MIN_PAIRS = 32  # fewest index pairs inside the window that test a shift h


@dataclass(frozen=True)
class CountingConstants:
    k1: int
    k2: int
    windows_sampled: int


@dataclass(frozen=True)
class DensityEstimate:
    d: float
    window_length: float
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

    def items(self) -> list[tuple[int, float]]:
        return [(int(k), float(v)) for k, v in zip(self.n, self.values)]


@dataclass(frozen=True)
class AlmostPeriodReport:
    epsilon: float
    periods: list[tuple[float, int, float]]  # (tau, shift h, sup deviation)
    search_range: tuple[float, float]
    max_gap: float


def unit_window_max(expanded: np.ndarray) -> int:
    """Largest count over half-open unit windows [x, x+1) (the sliding
    max is attained with the left end on a point).

    The right edge carries a 1e-9 guard so that root-finding noise on a
    point sitting exactly one unit away cannot flip the boundary tie.
    """
    if expanded.size == 0:
        return 0
    right = np.searchsorted(expanded, expanded + (1.0 - 1e-9), side="left")
    return int(np.max(right - np.arange(expanded.size)))


def _searched_counts(e: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    # #A in [x, x+h) at each probe x, one binary search per end
    return np.searchsorted(e, x + h) - np.searchsorted(e, x)


def _count_extremes(e: np.ndarray, h_grid, lo: float, hi: float) -> np.ndarray:
    """Exact max and min of #A in [x, x+h) over x in [lo, hi-h], one row
    (max, min) per window length h of h_grid; (0, 0) where hi - h < lo.

    Exact means equal to the counts at every probe where the count can
    change, a -+ 1e-9 and (a - h) -+ 1e-9 for each point a, plus lo and
    hi - h, each probe in [lo, hi-h] counted by binary search.

    The count rises just after an event a - h and falls just after an
    event a.  One stable merge of the distinct points shifted to a - h
    with the points a orders the events, and the running sum of their
    signed multiplicities is the count on the stretch after each event.

    An event is sharp when no other event, nor lo or hi - h, lies within
    ``fuzz`` of it.  The probe offset is 1e-9, and each of the three
    roundings between an event and a probe's ranks (a - h, b -+ 1e-9 and
    x + h) moves it by at most eps/2 * S, where S bounds |a|, |lo| and
    |hi| plus h.  So with fuzz >= 1e-9 + 1.5 eps S, the probes of a sharp
    event b count the stretches just before and just after b, and they
    lie in the window exactly when b does.  ``fuzz`` is 2e-9 + 8 eps S,
    which also covers the roundings of its own comparisons.  Once
    8 eps S reaches 1e-9 (S above about 5.6e5), the offset no longer
    decides which side of its event a probe lands on, so every event is
    fuzzy.

    The lower probe of a sharp event b counts the stretch after the
    event c before it.  The upper probe of c counts it too, as b lies
    more than fuzz above c, or, where that probe falls below the window,
    the probe at lo does.  So the probed counts are the running sums
    after the sharp events in the window, the probes of the fuzzy
    events, counted by binary search, and the counts at lo and hi - h.
    With no fuzzy event these are one slice of running sums.
    """
    starts = np.flatnonzero(np.diff(e, prepend=-np.inf))
    mults = np.diff(starts, append=e.size)
    n = starts.size
    signed = np.concatenate([mults, -mults])
    events = np.empty(2 * n)  # the runs a - h and a, reused for every length
    events[n:] = e[starts]
    level = np.zeros(2 * n + 1, np.int64)  # the count after the first k events
    reach = max(abs(lo), abs(hi), float(np.max(np.abs(e), initial=0.0)))
    ulps = 8.0 * np.finfo(float).eps
    out = np.zeros((len(h_grid), 2), np.int64)
    for k, h in enumerate(h_grid):
        top = hi - h
        if top < lo:
            continue
        rounding = ulps * (reach + h)
        fuzz = 2e-9 + rounding if rounding < 1e-9 else np.inf
        np.subtract(events[n:], h, out=events[:n])
        order = np.argsort(events, kind="stable")
        np.cumsum(signed[order], out=level[1:])
        merged = events[order]
        # the events whose probes can fall in the window
        i0 = np.searchsorted(merged, lo - fuzz)
        i1 = np.searchsorted(merged, top + fuzz, side="right")
        w = merged[i0:i1]
        gaps = np.diff(w)
        if not w.size or (w[0] > lo + fuzz and w[-1] < top - fuzz
                          and np.min(gaps, initial=np.inf) > fuzz):
            c = level[i0:i1 + 1]
            out[k] = c.max(), c.min()
            continue
        close = gaps <= fuzz
        fuzzy = (w <= lo + fuzz) | (w >= top - fuzz)
        fuzzy[1:] |= close
        fuzzy[:-1] |= close
        sharp = i0 + np.flatnonzero(~fuzzy)
        x = w[fuzzy]
        x = np.concatenate([x - 1e-9, x + 1e-9, [lo, top]])
        x = x[(x >= lo) & (x <= top)]
        c = np.concatenate([level[sharp + 1], _searched_counts(e, x, h)])
        out[k] = c.max(), c.min()
    return out


def counting_constants(A: ZeroSet, h_grid=None) -> CountingConstants:
    """Empirical k1 (unit-window bound) and k2 (equal-length discrepancy).

    k1 is the exact sliding maximum over half-open unit windows.  k2 is,
    for each probed window length h, the exact spread max - min of the
    sliding count, maximized over a grid of lengths; this dominates every
    sampled pair of equal-length windows at those lengths.  The spreads
    come from one merge of the events a - h and a per length, with binary
    search only for the probes of events closer than a rounding margin to
    another event or to the window ends (see ``_count_extremes``);
    ``density`` carries the result, so a run needs only one call.  An
    explicit ``h_grid`` must hold finite positive lengths.
    """
    if A.count == 0:
        raise DomainError("counting constants need a nonempty set")
    e = A.expand()
    lo, hi = A.window
    k1 = unit_window_max(e)
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
    return CountingConstants(k1=k1, k2=int(k2), windows_sampled=sampled)


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
    return DensityEstimate(d=d, window_length=length,
                           error_bound=(2.0 * cc.k2 + 2.0 * cc.k1) / length, counting=cc)


def almost_periods(A: ZeroSet, epsilon: float, tau_range) -> AlmostPeriodReport:
    """Scan integer index shifts h for epsilon-almost periods.

    For each h the candidate translation is tau_h = median(a_{n+h} - a_n)
    over the interior of the window; (tau_h, h) is reported when the sup
    deviation stays below epsilon and tau_h is consistent with h/d, which
    makes both report invariants hold by construction.  A shift needs at
    least 32 index pairs inside the window.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    e = A.expand()
    lo, hi = A.window
    d = A.count / (hi - lo)  # the density estimate of ``density``
    t0, t1 = map(float, tau_range)
    h_cap = min(int(np.ceil(t1 * d)) + 2, e.size - _MIN_PAIRS)
    periods = []
    for h in range(1, max(h_cap, 0) + 1):
        diffs = e[h:] - e[:-h]
        tau0 = float(np.median(diffs))
        if tau0 > t1 + epsilon:
            break
        band = max(1.0, tau0)
        inside = (e[:-h] >= lo + band) & (e[h:] <= hi - band)
        if int(inside.sum()) < _MIN_PAIRS:
            continue
        tau = float(np.median(diffs[inside]))
        sup_dev = float(np.max(np.abs(diffs[inside] - tau)))
        if sup_dev < epsilon and abs(tau - h / d) <= epsilon and t0 <= tau <= t1:
            periods.append((tau, h, sup_dev))
    taus = sorted(p[0] for p in periods)
    if len(taus) >= 2:
        max_gap = float(np.max(np.diff(taus)))
    else:
        max_gap = t1 - t0
    return AlmostPeriodReport(epsilon=float(epsilon), periods=periods,
                              search_range=(t0, t1), max_gap=max_gap)


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


def phi_fourier(phi: PhiRepresentation, freqs, N: int | None = None):
    """Bohr means (1/2N) * sum_{|n|<=N} phi(n) exp(-2j*pi*theta*n).

    Returns (coefficients, error_bound) with the O(1/N) boundary
    heuristic 4*sup|phi|/N.  N <= min(-n_min, n_max), the default.
    """
    n = phi.n
    n_sym = int(min(-n.min(), n.max()))
    N = n_sym if N is None else N
    if not 1 <= N <= n_sym:
        raise DomainError(f"N = {N} is outside 1..{n_sym}, the symmetric index range of phi")
    mask = np.abs(n) <= N
    ns = n[mask]
    vs = phi.values[mask]
    thetas = np.atleast_1d(np.asarray(freqs, dtype=float))
    coeffs = _exp_rows(-thetas, ns, lambda E: E @ vs) / (2.0 * N)
    err = 4.0 * phi.sup_abs / N
    return coeffs, err


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
