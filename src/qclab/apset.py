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


def _merge(e: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(#{e < y} for each sorted key y, #{keys <= e_j} for each point e_j).

    A stable sort of the two sorted runs is one linear merge; with the
    keys first, a key tied with a point sorts before it.
    """
    at_key = np.argsort(np.concatenate([keys, e]), kind="stable") < keys.size
    return (np.flatnonzero(at_key) - np.arange(keys.size),
            np.flatnonzero(~at_key) - np.arange(e.size))


def _settle(ep: np.ndarray, keys: np.ndarray, r: np.ndarray) -> np.ndarray:
    """#{e < y} for each key y from the guesses r, on ep = [-inf, e, +inf]:
    a guess with e[r - 1] < y <= e[r] is the rank, and every other one is
    found by binary search, so any start gives the exact ranks."""
    bad = np.flatnonzero((ep[r] >= keys) | (ep[r + 1] < keys))
    if bad.size:
        r = r.copy()
        r[bad] = np.searchsorted(ep[1:-1], keys[bad])
    return r


def _padded(e: np.ndarray) -> np.ndarray:
    return np.concatenate([[-np.inf], e, [np.inf]])


def _gaps(ep: np.ndarray, fixed) -> list[float]:
    # each fixed probe family's distance to the set
    return [min(np.min(x - ep[r]), np.min(ep[r + 1] - x)) for x, r in fixed]


def _fixed_ranks(ep: np.ndarray, keys: np.ndarray, x: np.ndarray, r: np.ndarray,
                 gap: float) -> np.ndarray:
    """#{e < y} for keys y within a rounding of the fixed probes x: their
    ranks r hold while every shift |y - x| stays below the probes'
    distance to the set (halved against the rounding of both)."""
    if np.max(np.abs(keys - x), initial=0.0) < 0.5 * gap:
        return r
    return _settle(ep, keys, r)


def _inside(x: np.ndarray, lo: float, top: float) -> slice:
    # the sorted probes x with lo <= x <= top
    return slice(np.searchsorted(x, lo, side="left"), np.searchsorted(x, top, side="right"))


def _probe_counts(e: np.ndarray, h: float, lo: float, hi: float, fixed) -> np.ndarray:
    """#A in [x, x+h) at every probe x of window length h.

    One merge per length gives one probe family's ranks exactly; the
    other three families start from guesses that a check either proves
    or hands to ``_settle``, which searches only the guesses that fail,
    so every count equals a binary search per probe (see
    ``_length_counts``).  ``fixed`` holds the probes a -+ 1e-9 with their
    ranks #{e < x}, which do not depend on h.  This pads e and measures
    the gaps for one length; ``_count_extremes`` does both once for all
    lengths.
    """
    ep = _padded(e)
    return _length_counts(ep, fixed, _gaps(ep, fixed), h, lo, hi)


def _length_counts(ep: np.ndarray, fixed, gaps, h: float, lo: float, hi: float) -> np.ndarray:
    """#A in [x, x+h) at every probe x of window length h, from one merge.

    The count only changes at x = a and x = a - h, so it is probed on
    both sides of each: the families a -+ 1e-9 and (a - h) -+ 1e-9, plus
    lo and hi - h, kept in [lo, hi-h].  A count is the rank #{e < x + h}
    less the rank #{e < x}.  Each family is sorted, so the window keeps
    a slice of it.  One merge of (a - 1e-9) + h with e gives the upper
    ranks of a - 1e-9 exactly; every other rank starts from a guess and
    is kept only where a check proves it, else ``_settle`` searches
    for it, so the counts equal one binary search per probe:

    - a + 1e-9 starts from the upper ranks of a - 1e-9, which can only be
      low: one check e[r] >= y;
    - (a - h) + 1e-9 starts from the merge's point positions
      #{(a - 1e-9) + h <= e_j}, within a rounding of its lower ranks;
    - (a - h) - 1e-9 starts from those, which can only be high: one
      check e[r - 1] < y;
    - the upper ends ((a - h) -+ 1e-9) + h round to within a few ulps of
      a -+ 1e-9, whose fixed ranks hold while that shift stays below the
      fixed probes' distance to the set (``gaps``).

    ``ep`` is e padded as [-inf, e, +inf], so no check needs a clip.
    """
    top = hi - h
    if top < lo:
        return np.zeros(0, np.int64)
    e = ep[1:-1]
    (x1, r1), (x2, r2) = fixed
    u1, below = _merge(e, x1 + h)
    s1, s2 = _inside(x1, lo, top), _inside(x2, lo, top)
    y2 = x2[s2] + h
    u2 = u1[s2]
    if (ep[u2 + 1] < y2).any():
        u2 = _settle(ep, y2, u2)
    eh = e - h
    x3, x4 = eh - 1e-9, eh + 1e-9
    s3, s4 = _inside(x3, lo, top), _inside(x4, lo, top)
    w = slice(s4.start, s3.stop)  # x3 <= x4, so both slices lie in w
    l4 = _settle(ep, x4[w], below[w])
    l3 = l4
    if (ep[l3] >= x3[w]).any():
        l3 = _settle(ep, x3[w], l3)
    u3, u4 = (_fixed_ranks(ep, x[w] + h, xf[w], rf[w], gap)
              for x, (xf, rf), gap in zip((x3, x4), fixed, gaps))
    i3 = slice(s3.start - w.start, s3.stop - w.start)
    i4 = slice(0, s4.stop - w.start)
    ends = np.array([lo, top])
    return np.concatenate([
        u1[s1] - r1[s1], u2 - r2[s2], (u3 - l3)[i3], (u4 - l4)[i4],
        np.searchsorted(e, ends + h) - np.searchsorted(e, ends),
    ])


def _count_extremes(e: np.ndarray, h_grid, lo: float, hi: float) -> np.ndarray:
    """Exact max and min of #A in [x, x+h) over x in [lo, hi-h], one row
    (max, min) per window length h of h_grid; (0, 0) where no probe fits."""
    fixed = [(x, np.searchsorted(e, x)) for x in (e - 1e-9, e + 1e-9)]
    ep = _padded(e)
    gaps = _gaps(ep, fixed)
    out = np.zeros((len(h_grid), 2), np.int64)
    for k, h in enumerate(h_grid):
        c = _length_counts(ep, fixed, gaps, h, lo, hi)
        if c.size:
            out[k] = c.max(), c.min()
    return out


def counting_constants(A: ZeroSet, h_grid=None) -> CountingConstants:
    """Empirical k1 (unit-window bound) and k2 (equal-length discrepancy).

    k1 is the exact sliding maximum over half-open unit windows.  k2 is,
    for each probed window length h, the exact spread max - min of the
    sliding count, maximized over a grid of lengths; this dominates every
    sampled pair of equal-length windows at those lengths.  The spreads
    come from one exact rank sweep over the probes at which the count
    can change, one merge per length (see ``_probe_counts``); ``density``
    carries the result, so a run needs only one call.  An explicit
    ``h_grid`` must hold finite positive lengths.
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


def almost_periods(
    A: ZeroSet,
    epsilon: float,
    tau_range,
    *,
    d: float | None = None,
    min_pairs: int = 32,
) -> AlmostPeriodReport:
    """Scan integer index shifts h for epsilon-almost periods.

    For each h the candidate translation is tau_h = median(a_{n+h} - a_n)
    over the interior of the window; (tau_h, h) is reported when the sup
    deviation stays below epsilon and tau_h is consistent with h/d, which
    makes both report invariants hold by construction.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    e = A.expand()
    lo, hi = A.window
    if d is None:
        d = density(A).d
    t0, t1 = map(float, tau_range)
    h_cap = min(int(np.ceil(t1 * d)) + 2, e.size - min_pairs)
    periods = []
    for h in range(1, max(h_cap, 0) + 1):
        diffs = e[h:] - e[:-h]
        tau0 = float(np.median(diffs))
        if tau0 > t1 + epsilon:
            break
        band = max(1.0, tau0)
        inside = (e[:-h] >= lo + band) & (e[h:] <= hi - band)
        if int(inside.sum()) < min_pairs:
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
    """Partial sums sum_{|a_n| < N} 1/a_n and their Cauchy statistic
    (max pairwise spread over the top half of N_list)."""
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
