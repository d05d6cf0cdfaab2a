"""Real zeros of exponential sums, certified by the argument principle.

The scan step 1/(16*B), with B the largest |frequency|, comes from the
Bernstein bound |f'| <= 2*pi*B*||f||_W: simple zeros separated by more
than one step cannot hide between grid points.  A winding-number count
over the window strip says how many zeros the scan must account for.

The count does the certifying (Delves & Lyness, 1967).  A sign-change
bracket of a Hermitian sum holds an odd number of zeros, so at least
one.  Candidates without a sign change (even-order minima and grid-exact
hits) get a winding box each.  Those boxes lie inside the strip and are
disjoint from every bracket cell and from each other, so when the
brackets plus the box counts add up to the strip count, every bracket
holds exactly one simple zero and needs no box.

One rule refines what does not add up.  Winding counts over the pieces
of a cut strip add (Kravanja & Van Barel, LNM 1727, 2000), so the piece
is cut at the grid point of largest |f| between its middle two roots,
both pieces are counted, and each is certified again at half the step.
A piece left with a single root boxes it for its multiplicity: a zero
of odd order above 1 changes sign like a simple one.  A box count m > 1
is reported as one zero of order m only when the centred second moment
of the box's zeros vanishes to rounding; otherwise the box is certified
by the same rule with count m.  The step never drops below 2**-12 of
the first one; that fixed bound caps the work, and a piece still short
there is a ConvergenceError.  Sign changes whose two ends both lie
within the rounding of ``evaluate`` are not brackets, so the rounding
noise around a multiple zero is never certified as simple zeros.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryError,
    ContourError,
    ConvergenceError,
    InvalidInputError,
)
from .wiener import ExpSum, derivative, evaluate, is_hermitian

_EDGE_POINT_CAP = 4_000_000
_NUDGE = (1.0, 0.8311, 1.2137, 0.6473, 1.4159)
_RESID_TOL = 1e-9  # largest |f| at a reported zero, relative to max(1, ||f||_W)
_BOUNDARY_TOL = 1e-6  # least distance of a zero from the window edge
_FINEST = 2.0 ** -12  # finest scan step, relative to the first one


@dataclass(frozen=True)
class ZeroSet:
    """Sorted real zero multiset over a stated window.

    Points given out of order are sorted on construction, each keeping
    its multiplicity; Bohr means and counting constants rely on the order.
    """

    window: tuple[float, float]
    points: np.ndarray
    mults: np.ndarray

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=float)
        mults = np.ascontiguousarray(self.mults, dtype=np.int64)
        if np.any(np.diff(points) < 0):
            order = np.argsort(points, kind="stable")
            points, mults = points[order], mults[order]
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "mults", mults)

    def __len__(self) -> int:
        return self.points.size

    @property
    def count(self) -> int:
        """Number of points counted with multiplicity."""
        return int(np.sum(self.mults))

    def expand(self) -> np.ndarray:
        """Sorted array with each point repeated by its multiplicity."""
        return np.repeat(self.points, self.mults)


@dataclass(frozen=True)
class RealnessReport:
    real_count: int
    total_count: int
    all_real: bool


def _empty_zeroset(window) -> ZeroSet:
    return ZeroSet(tuple(map(float, window)), np.empty(0), np.empty(0, np.int64))


def _edge_bounds(f: ExpSum, y0: float, y1: float, zabs: float) -> tuple[float, float]:
    """sup |f'| over any segment whose imaginary part stays in [y0, y1], and
    the rounding of ``evaluate`` there at |z| <= zabs: n terms summed, each
    with a phase 2*pi*w*z of relative error eps, so 16 eps (n sup|f| + |z| sup|f'|)."""
    w = f.freqs
    with np.errstate(over="ignore"):
        size = np.abs(f.coeffs) * np.maximum(np.exp(-2 * np.pi * w * y0),
                                              np.exp(-2 * np.pi * w * y1))
        lbound = float(np.sum(2 * np.pi * np.abs(w) * size))
    if not np.isfinite(lbound):
        raise ContourError("derivative bound overflowed on a contour edge")
    return lbound, 16 * np.finfo(float).eps * (len(f) * float(np.sum(size)) + zabs * lbound)


def _walk_edge(f: ExpSum, z0: complex, z1: complex) -> float:
    """Total argument increment of f along the segment z0 -> z1.

    Subdivides until each sub-segment is certified zero-free (|f| above
    the rounding of ``evaluate``) and its phase step is provably below
    pi/6; the principal-value phase sum is then the exact argument
    variation.
    """
    lbound, margin = _edge_bounds(f, min(z0.imag, z1.imag), max(z0.imag, z1.imag),
                                  max(abs(z0), abs(z1)))
    length = abs(z1 - z0)
    ts = np.linspace(0.0, 1.0, 1024)
    vals = evaluate(f, z0 + ts * (z1 - z0))
    for _ in range(64):
        absv = np.abs(vals)
        seg = np.diff(ts) * length
        lo = np.minimum(absv[:-1], absv[1:])
        m_seg = 0.5 * (absv[:-1] + absv[1:] - lbound * seg)
        bad = (m_seg <= margin) | (lbound * seg > 0.5 * lo)
        if not bad.any():
            break
        hopeless = bad & (lbound * seg <= 0.2 * margin)
        if hopeless.any():
            raise ContourError(
                "contour passes within the edge margin of a zero; perturb the rectangle"
            )
        # a segment ends in pieces with lbound * piece <= |f| / 2; with |f|
        # near its larger end along it, that is the samples still to come,
        # so an edge through a flat cluster of zeros fails at once
        with np.errstate(divide="ignore"):
            need = np.maximum(1.0, 2 * lbound * seg / np.maximum(absv[:-1], absv[1:]))
        if np.sum(need) > _EDGE_POINT_CAP:
            raise ContourError("edge refinement would exceed its sample budget")
        mids = (0.5 * (ts[:-1] + ts[1:]))[bad]
        vals = np.concatenate([vals, evaluate(f, z0 + mids * (z1 - z0))])
        ts = np.concatenate([ts, mids])
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        vals = vals[order]
    else:
        raise ContourError("contour refinement did not certify after 64 rounds")
    return float(np.sum(np.angle(vals[1:] / vals[:-1])))


def count_zeros_rectangle(f: ExpSum, rect) -> int:
    """Zeros of f inside an axis-aligned rectangle, counted with multiplicity.

    ``rect`` is (x0, x1, y0, y1).  That |f| stays above the rounding of
    ``evaluate`` on the boundary is verified while integrating; the
    winding number is exact once every phase step is certified.
    """
    if len(f) == 0:
        raise InvalidInputError("cannot count zeros of the empty (identically zero) sum")
    x0, x1, y0, y1 = map(float, rect)
    if not (x0 < x1 and y0 < y1):
        raise InvalidInputError("rectangle must satisfy x0 < x1 and y0 < y1")
    c0, c1, c2, c3 = complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)
    total = 0.0
    for a, b in ((c0, c1), (c1, c2), (c2, c3), (c3, c0)):
        total += _walk_edge(f, a, b)
    winding = total / (2 * np.pi)
    n = int(round(winding))
    if abs(winding - n) > 0.25 or n < 0:
        raise ContourError(f"winding number {winding:.3f} not certified as an integer")
    return n


def _count_with_retries(f, rect, attempts=_NUDGE):
    """Winding count on ``rect``, retried with its height scaled by each
    nudge in turn; returns the count and the scale whose contour certified."""
    x0, x1, y0, y1 = rect
    err = None
    for k in attempts:
        try:
            return count_zeros_rectangle(f, (x0, x1, y0 * k, y1 * k)), k
        except ContourError as exc:
            err = exc
    raise err


def _real_values(f, x):
    return np.real(evaluate(f, np.asarray(x, dtype=float) + 0j))


def _bisect_real(fn, lo, hi, iters=48):
    """Bisect the real function ``fn`` on brackets [lo, hi] with a sign change."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        go_right = flo * fm > 0
        lo = np.where(go_right, mid, lo)
        flo = np.where(go_right, fm, flo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _newton_real(f, x, lo, hi, iters=10):
    df = derivative(f)
    x = np.array(x, dtype=float)
    for _ in range(iters):
        fx = _real_values(f, x)
        dfx = _real_values(df, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dfx != 0, fx / np.where(dfx == 0, 1.0, dfx), 0.0)
        xn = x - step
        x = np.where((xn >= lo) & (xn <= hi), xn, x)
    return x


def _newton_complex(f, z0, iters=30, tol=1e-13):
    df = derivative(f)
    z = complex(z0)
    for _ in range(iters):
        fz = evaluate(f, z)
        dfz = evaluate(df, z)
        if dfz == 0:
            break
        zn = z - fz / dfz
        if abs(zn - z) < tol * max(1.0, abs(zn)):
            z = zn
            break
        z = zn
    return z


def _refine_multiple(f, a, mult, halfwidth):
    # a zero of order m is a simple zero of the (m-1)-th derivative
    g = f
    for _ in range(mult - 1):
        g = derivative(g)
    if is_hermitian(g):
        va, vb = _real_values(g, a - halfwidth), _real_values(g, a + halfwidth)
        if va * vb < 0:
            root = _bisect_real(lambda x: _real_values(g, x),
                                np.array([a - halfwidth]), np.array([a + halfwidth]))
            root = _newton_real(g, root, a - halfwidth, a + halfwidth)
            return float(root[0])
    z = _newton_complex(g, a)
    if abs(z.imag) < 1e-8 and abs(z.real - a) <= halfwidth:
        return float(z.real)
    return float(a)


def _one_point(f, center, m, hw):
    """True when the m zeros of a box around ``center`` sit at one point.

    Delves-Lyness moments mu_k = (1/2 pi i) oint (z - center)^k f'/f dz,
    by the trapezoidal rule on the circle of radius hw/2, give the count
    mu_0 and the centred second moment sum (z_i - mean)^2 =
    mu_2 - mu_1^2 / mu_0.  It vanishes for one zero of order m and is
    about s^2 for a cluster of spread s; the residual |f| of a cluster
    point is only O(s^m), so the residual test alone would accept it.
    The moment is compared with its rounding floor.
    """
    w = 0.5 * hw * np.exp(2j * np.pi * np.arange(64) / 64)
    df = derivative(f)
    fv = evaluate(f, center + w)
    dv = evaluate(df, center + w)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = w * dv / fv
        mu0, mu1, mu2 = (np.mean(q * w ** k) for k in range(3))
        if not (np.isfinite(mu2) and abs(mu0 - m) < 0.25):
            return False
        # |error of f'/f| <= eps * (1 + 2 pi B |z|) * (||f'|| + |f'/f| ||f||) / |f|;
        # mu_k carries r^(k+1) times that, so with |mean - center| <= r the
        # centred moment carries at most 4 r^3 times it
        kappa = np.finfo(float).eps * (1.0 + 2 * np.pi * f.max_abs_freq * abs(center))
        err = kappa * np.max((df.wiener_norm + np.abs(dv / fv) * f.wiener_norm) / np.abs(fv))
        floor = 4.0 * (0.5 * hw) ** 3 * err
    return bool(abs(mu2 - mu1 ** 2 / mu0) <= floor)


def find_real_zeros(f: ExpSum, window, *, scan_step: float | None = None) -> ZeroSet:
    """Real zero multiset of f over the window.

    The strip |Im z| < step over the window is counted by a winding
    contour, and the zeros found must account for that count.  One rule
    does it: scan the piece at the step; sign-change brackets, plus the
    winding boxes of the other candidates, must add up to the piece's
    count.  If they do not, cut the piece at the grid point of largest
    |f| between its middle two roots, count both pieces on the same
    strip height and certify each at half the step.  A piece left with
    a single root boxes it for its multiplicity, and a box of m > 1
    zeros that do not sit at one point is certified by the same rule
    with count m.  ``scan_step`` sets the first step (default 1/(16 B)).

    Raises ``ConvergenceError`` when a piece is still short at 2**-12 of
    the first step (its zeros are not real, or closer than that step),
    and ``BoundaryError`` for a zero within 1e-6 of the window edge.
    """
    if len(f) == 0:
        raise InvalidInputError("the empty sum is identically zero")
    lo, hi = map(float, window)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidInputError("window must be a finite interval")
    if len(f) == 1:
        warnings.warn("a single exponential has no zeros; returning an empty set")
        return _empty_zeroset((lo, hi))
    step = scan_step if scan_step is not None else 1.0 / (16.0 * f.max_abs_freq)

    try:
        expected, nudge = _count_with_retries(f, (lo, hi, -step, step))
    except ContourError:
        edge_vals = np.abs(evaluate(f, np.array([lo, hi], dtype=complex)))
        if np.min(edge_vals) < 1e-3 * f.wiener_norm:
            raise BoundaryError(
                "a zero lies too close to the window boundary; shift the window"
            ) from None
        raise

    points, mults = _certify(f, lo, hi, expected, step * nudge, step, step * _FINEST)
    if points.size and (points[0] - lo < _BOUNDARY_TOL or hi - points[-1] < _BOUNDARY_TOL):
        raise BoundaryError("a zero lies within 1e-6 of the window edge; shift the window")
    if int(np.sum(mults)) != expected:
        raise ConvergenceError(
            f"scan found {int(np.sum(mults))} zeros but the contour count is {expected}; "
            "zeros may be non-real or closer than the refined scan step"
        )
    return ZeroSet((lo, hi), points, mults)


def _certify(f, lo, hi, count, h, step, finest):
    """Real zeros of f in (lo, hi) that account for the ``count`` zeros of
    the strip (lo, hi) x (-h, h): sorted points and multiplicities."""
    if count == 0:
        return np.empty(0), np.empty(0, np.int64)
    if step < finest:
        raise ConvergenceError(
            f"zeros in ({lo:.9g}, {hi:.9g}) are not accounted for at the finest scan step; "
            "they may be non-real or closer than that step"
        )
    xs, absv, roots, is_bracket, cell_lo, cell_hi = _scan(f, lo, hi, step)

    # boxes sized by the local gap and kept inside the piece and its strip
    gaps = np.full(roots.size, np.inf)
    if roots.size > 1:
        d = np.diff(roots)
        gaps[:-1] = np.minimum(gaps[:-1], d)
        gaps[1:] = np.minimum(gaps[1:], d)
    hws = np.minimum(np.minimum(h, 0.45 * gaps), np.minimum(roots - lo, hi - roots))
    mults = np.zeros(roots.size, dtype=np.int64)
    tops = np.zeros(roots.size)

    def count_box(i):
        mults[i], k = _count_with_retries(
            f, (roots[i] - hws[i], roots[i] + hws[i], -hws[i], hws[i]))
        tops[i] = hws[i] * k

    # boxes for the candidates first; the count may then certify the
    # brackets without boxes
    boxed = np.flatnonzero(~is_bracket)
    for i in boxed:
        count_box(i)
    if _brackets_certified(count, h, cell_lo, cell_hi, int(np.sum(is_bracket)),
                           roots[boxed] - hws[boxed], roots[boxed] + hws[boxed],
                           mults[boxed], tops[boxed]):
        mults[is_bracket] = 1
    elif roots.size == 1 and is_bracket[0]:
        # a lone bracket is boxed for its multiplicity: a zero of odd
        # order above 1 changes sign like a simple one
        count_box(0)
        if mults[0] != count or tops[0] > h:
            return _cut(f, lo, hi, count, h, step, finest, xs, absv, roots)
    else:
        return _cut(f, lo, hi, count, h, step, finest, xs, absv, roots)

    # simple roots keep their scan position, so one evaluate call tests
    # all their residuals; a multiple root is refined and tested alone
    tol = _RESID_TOL * max(1.0, f.wiener_norm)
    ok = mults == 1
    ok[ok] = np.abs(evaluate(f, roots[ok] + 0j)) < tol
    pts, ms = roots[ok], mults[ok]
    for i in np.flatnonzero(mults > 1):
        a = _refine_multiple(f, roots[i], mults[i], hws[i])
        if abs(evaluate(f, complex(a))) < tol and _one_point(f, roots[i], mults[i], hws[i]):
            got = [a], mults[i]
        else:
            # the box holds m zeros but no point of that order: a cluster
            # of distinct zeros tighter than the scan step
            got = _certify(f, roots[i] - hws[i], roots[i] + hws[i], mults[i], tops[i],
                           min(step, hws[i]) / 2, finest)
        pts, ms = np.append(pts, got[0]), np.append(ms, got[1])
    order = np.argsort(pts)
    return pts[order], ms[order]


def _cut(f, lo, hi, count, h, step, finest, xs, absv, roots):
    # winding counts over the two pieces of a cut strip add up, so each
    # piece can be certified on its own.  The cut is the grid point of
    # largest |f| in the middle half of the gap between the middle two
    # roots (the piece's ends count as roots), or the grid point nearest
    # that gap's middle when the half holds none
    ends = np.concatenate([[lo], roots, [hi]])
    a, b = ends[ends.size // 2 - 1], ends[ends.size // 2]
    off = np.abs(xs[1:-1] - 0.5 * (a + b))
    inside = np.flatnonzero(off < 0.25 * (b - a))
    c = xs[1 + (inside[np.argmax(absv[1:-1][inside])] if inside.size else np.argmin(off))]
    left = _count_with_retries(f, (lo, c, -h, h))
    # on the same height the right piece holds the rest of the count
    right = (count - left[0], 1.0) if left[1] == 1.0 else _count_with_retries(f, (c, hi, -h, h))
    (pl, ml), (pr, mr) = (_certify(f, x0, x1, m, h * k, step / 2, finest)
                          for (x0, x1), (m, k) in (((lo, c), left), ((c, hi), right)))
    return np.concatenate([pl, pr]), np.concatenate([ml, mr])


def _scan(f, lo, hi, step):
    """Roots of f that a grid of spacing ``step`` over (lo, hi) reveals.

    Returns the grid, |f| on it, the sorted roots, which roots are
    sign-change brackets, and the (lo, hi) ends of the bracket cells.
    """
    n = max(3, int(np.ceil((hi - lo) / step)) + 1)
    xs = np.linspace(lo, hi, n)
    B = f.max_abs_freq
    norm = f.wiener_norm
    herm = is_hermitian(f)

    roots = []
    brackets = cell_lo = cell_hi = np.empty(0)
    if herm:
        # a zero without a sign change has even order, so |f| is O(step^2)
        # at the nearest grid point
        min_thresh = (2 * np.pi * B) ** 2 * norm * step ** 2
        vals = _real_values(f, xs)
        # around a multiple zero rounding flips signs at random: a sign
        # change whose two ends are both within it brackets nothing
        _, noise = _edge_bounds(f, 0.0, 0.0, max(abs(lo), abs(hi)))
        big = np.abs(vals) > noise
        cells = np.flatnonzero((vals[:-1] * vals[1:] < 0) & (big[:-1] | big[1:]))
        if cells.size:
            cell_lo, cell_hi = xs[cells], xs[cells + 1]
            brackets = _bisect_real(lambda x: _real_values(f, x), cell_lo, cell_hi)
            brackets = _newton_real(f, brackets, cell_lo, cell_hi)
            roots.extend(brackets.tolist())
        absv = np.abs(vals)
    else:
        # a simple zero may sit step/2 from the nearest grid point, where
        # |f| <= |f'| * step / 2 <= pi * B * ||f|| * step
        min_thresh = np.pi * B * norm * step
        absv = np.abs(evaluate(f, xs.astype(complex)))

    # minima of |f| below the grid-resolution threshold (plus grid-exact
    # hits): candidates for zeros without a strict sign change
    interior = np.arange(1, n - 1)
    is_min = (absv[interior] <= absv[interior - 1]) & (absv[interior] <= absv[interior + 1])
    cand = xs[interior[is_min & (absv[interior] < min_thresh)]]
    exact = xs[absv == 0.0]
    if exact.size:
        cand = np.unique(np.concatenate([cand, exact]))
    df = derivative(f) if cand.size else None

    def u(t):
        # sign of the derivative of f^2 / 2, for locating |f| minima
        return _real_values(f, t) * _real_values(df, t)

    roots.sort()
    for x0 in cand:
        i = bisect.bisect_left(roots, x0)
        if any(abs(roots[j] - x0) < 2 * step for j in (i - 1, i) if 0 <= j < len(roots)):
            continue
        if herm:
            ua, ub = u(np.array([x0 - step])), u(np.array([x0 + step]))
            if ua[0] * ub[0] < 0:
                bisect.insort(roots, float(_bisect_real(u, [x0 - step], [x0 + step])[0]))
            else:
                bisect.insort(roots, float(x0))
        else:
            z = _newton_complex(f, complex(x0))
            if abs(z.imag) <= 1e-8 * max(1.0, abs(z.real)) and lo <= z.real <= hi:
                bisect.insort(roots, float(z.real))

    # refinement noise around even-order zeros can split one root into
    # twins a few 1e-9 apart; merge below a radius well under the step
    merge_radius = max(1e-9, min(1e-7, 1e-3 * step))
    roots = np.unique(np.asarray(roots, dtype=float))
    keep = np.ones(roots.size, dtype=bool)
    last = -np.inf
    for i in range(roots.size):
        if roots[i] - last < merge_radius:
            keep[i] = False
        else:
            last = roots[i]
    roots = roots[keep]
    return xs, absv, roots, np.isin(roots, brackets), cell_lo, cell_hi


def _brackets_certified(count, height, cell_lo, cell_hi, n_bracket_roots,
                        box_lo, box_hi, box_counts, box_top):
    """True when ``count`` proves that each bracket cell holds one simple zero.

    Every cell has a sign change, so it holds an odd number of zeros.  If
    the candidate boxes lie inside the strip and clear of every cell (the
    boxes are disjoint from each other by their gap-sized widths) and the
    cells plus the box counts add up to the strip count, no cell can hold
    more than one zero.
    """
    if n_bracket_roots != cell_lo.size:
        return False  # two bracket roots merged into one
    if cell_lo.size + int(np.sum(box_counts)) != count or np.any(box_top > height):
        return False
    # the last cell starting left of a box's right edge is the only one
    # that can overlap the box
    j = np.searchsorted(cell_lo, box_hi, side="left") - 1
    return not cell_lo.size or not np.any((j >= 0) & (cell_hi[np.maximum(j, 0)] > box_lo))


def realness_check(
    f: ExpSum,
    window,
    strip_height: float,
    *,
    zeros: ZeroSet | None = None,
) -> RealnessReport:
    """Compare the real-zero count with the winding count over a strip.

    ``zeros`` may pass a precomputed ZeroSet for the same window to skip
    the rescan.
    """
    lo, hi = map(float, window)
    if zeros is None:
        zeros = find_real_zeros(f, (lo, hi))
    total, _ = _count_with_retries(f, (lo, hi, -float(strip_height), float(strip_height)))
    real = zeros.count
    return RealnessReport(real_count=real, total_count=total, all_real=real == total)
