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
of the box's zeros vanishes to rounding; otherwise the box becomes a
piece with count m.  The step never drops below 2**-12 of the first
one; that fixed bound caps the work, and a piece still short there is
a ConvergenceError.  Sign changes whose two ends both lie within the
rounding of ``evaluate`` are not brackets, so the rounding noise around
a multiple zero is never certified as simple zeros.

Because every piece is certified on its own, the open pieces are
handled in rounds, not one after another.  A round makes one
``evaluate`` scan over all their grids, one bisection (plus Newton) of
all their sign-change brackets, one bisection of all their other
candidates, one refinement per multiplicity, and one batched contour
walk per batch of boxes, each edge-refinement step one ``evaluate``
call over every pending edge.  A point's value does not depend on the
call it is evaluated in, so the rounds find the same zeros, bit for
bit, as pieces certified one at a time.  The nudged retries of a box,
the sample budget of an edge and the finest step stay per box and per
piece.

Two proofs skip kernel work whose outcome is known, and leave every
result bit for bit as it was.  A sum that is Hermitian, f(conj z) =
conj f(z), up to a bound D below the contour's margin winds on a
rectangle symmetric about the real line twice as much as along its
lower half, so only that half is walked (``_count_rectangles``).  A
sign-change bracket on which f is proven monotone, with f beyond its
rounding at two points a < b on either side of the root, fixes the
sign of every bisection midpoint outside (a, b), so only the
midpoints in between are evaluated, and the plain 48-step loop is
replayed exactly (``_bisect_real``).  Bisection and Newton stop a
point once a step repeats, and f and f' at the same points come from
one ``_exp_rows`` pass.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryError,
    ContourError,
    ConvergenceError,
    InvalidInputError,
)
from .wiener import ExpSum, _exp_rows, derivative, evaluate, is_hermitian

_EDGE_POINT_CAP = 4_000_000
_NUDGE = (1.0, 0.8311, 1.2137, 0.6473, 1.4159)
_RESID_TOL = 1e-9  # largest |f| at a reported zero, relative to max(1, ||f||_W)
_BOUNDARY_TOL = 1e-6  # least distance of a zero from the window edge
_FINEST = 2.0 ** -12  # finest scan step, relative to the first one


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


@dataclass(frozen=True)
class ZeroSet:
    """Sorted real zero multiset over a stated window.

    Points given out of order are sorted on construction, each keeping
    its multiplicity; Bohr means and counting constants rely on the order.
    A set from ``find_real_zeros`` also carries its strip: f has ``count``
    zeros in the rectangle (window) x [-strip_height, strip_height], and
    |f| >= contour_floor on its contour.  Both are None otherwise.
    """

    window: tuple[float, float]
    points: np.ndarray
    mults: np.ndarray
    strip_height: float | None = None
    contour_floor: float | None = None

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

    @cached_property
    def k1(self) -> int:
        """The counting constant k1, ``unit_window_max`` of the expanded
        points, computed once per set."""
        return unit_window_max(self.expand())


@dataclass(frozen=True)
class RealnessReport:
    real_count: int
    total_count: int
    all_real: bool


def _empty_zeroset(window) -> ZeroSet:
    return ZeroSet(tuple(map(float, window)), np.empty(0), np.empty(0, np.int64))


class _Piece(NamedTuple):
    """A piece (lo, hi) of the window whose strip (lo, hi) x (-h, h) holds
    ``count`` zeros, to be certified at scan step ``step``."""

    lo: float
    hi: float
    count: int
    h: float
    step: float


class _Scan(NamedTuple):
    """What a piece's grid reveals: the grid, |f| on it, the sorted roots,
    which roots are sign-change brackets, and the ends of the bracket cells."""

    xs: np.ndarray
    absv: np.ndarray
    roots: np.ndarray
    is_bracket: np.ndarray
    cell_lo: np.ndarray
    cell_hi: np.ndarray


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


def _split(values, sizes):
    """``values`` cut into consecutive parts of the given sizes."""
    return np.split(values, np.cumsum(sizes)[:-1])


def _walk_edges(f: ExpSum, edges, sides):
    """Total argument increment of f along each segment (z0, z1, lbound,
    margin) of ``edges``: rectangle r owns the next ``sides[r]`` of them,
    lbound bounds |f'| along the segment and margin is its zero-free margin.

    Each edge is subdivided until every sub-segment is certified
    zero-free (|f| above the margin) and its phase step is provably
    below pi/6; the principal-value phase sum is then the exact argument
    variation.  All pending edges are refined together, one ``evaluate``
    call per round.  An edge that fails stops the other sides of its
    rectangle.  Returns the increments, per rectangle with a failed side
    its first ContourError, and the least m_seg - margin of each certified
    edge: a lower bound on |f| along it, since m_seg bounds the computed
    |f| on a sub-segment and the margin covers its rounding.
    """
    owner = np.repeat(np.arange(len(sides)), sides)
    inc = np.zeros(len(edges))
    low = np.full(len(edges), np.nan)
    failed, ts, vals = {}, {}, {}
    todo = {i: np.linspace(0.0, 1.0, 1024) for i in range(len(edges))}
    for rounds in range(65):
        if not todo:
            break
        new = evaluate(f, np.concatenate([edges[i][0] + t * (edges[i][1] - edges[i][0])
                                          for i, t in todo.items()]))
        for (i, t), v in zip(todo.items(), _split(new, [t.size for t in todo.values()])):
            if i in ts:
                t = np.concatenate([ts[i], t])
                v = np.concatenate([vals[i], v])
                order = np.argsort(t, kind="stable")
                t, v = t[order], v[order]
            ts[i], vals[i] = t, v
        if rounds == 64:
            for i in todo:
                failed.setdefault(owner[i], ContourError(
                    "contour refinement did not certify after 64 rounds"))
            break
        pending, todo = todo, {}
        for i in pending:
            if owner[i] in failed:
                continue
            z0, z1, lbound, margin = edges[i]
            absv = np.abs(vals[i])
            seg = np.diff(ts[i]) * abs(z1 - z0)
            lo = np.minimum(absv[:-1], absv[1:])
            m_seg = 0.5 * (absv[:-1] + absv[1:] - lbound * seg)
            bad = (m_seg <= margin) | (lbound * seg > 0.5 * lo)
            if not bad.any():
                inc[i] = float(np.sum(np.angle(vals[i][1:] / vals[i][:-1])))
                low[i] = float(np.min(m_seg)) - margin
                continue
            if (bad & (lbound * seg <= 0.2 * margin)).any():
                failed[owner[i]] = ContourError(
                    "contour passes within the edge margin of a zero; perturb the rectangle")
                continue
            # a segment ends in pieces with lbound * piece <= |f| / 2; with |f|
            # near its larger end along it, that is the samples still to come,
            # so an edge through a flat cluster of zeros fails at once
            with np.errstate(divide="ignore"):
                need = np.maximum(1.0, 2 * lbound * seg / np.maximum(absv[:-1], absv[1:]))
            if np.sum(need) > _EDGE_POINT_CAP:
                failed[owner[i]] = ContourError("edge refinement would exceed its sample budget")
                continue
            todo[i] = (0.5 * (ts[i][:-1] + ts[i][1:]))[bad]
        todo = {i: t for i, t in todo.items() if owner[i] not in failed}
    return inc, failed, low


def _bounded(f, segments):
    """Each segment (z0, z1) with its ``_edge_bounds``."""
    return [(z0, z1, *_edge_bounds(f, min(z0.imag, z1.imag), max(z0.imag, z1.imag),
                                   max(abs(z0), abs(z1)))) for z0, z1 in segments]


def _hermitian_defect(f: ExpSum, h: float, zabs: float) -> float:
    """D, a bound on |f - g| for g(z) = conj f(conj z) over |Im z| <= h,
    |z| <= zabs.  Pairing term k with term n-1-k (the frequencies are
    sorted), each pair differs by at most (|q_k - conj q_{n-1-k}| +
    |q_{n-1-k}| 2 pi |w_k + w_{n-1-k}| zabs) exp(2 pi max(|w_k|,
    |w_{n-1-k}|) h), by the mean value theorem in the frequency.  D is 0
    for an exactly Hermitian sum."""
    q, w = f.coeffs, f.freqs
    k = np.abs(q - np.conj(q[::-1])) + 2 * np.pi * np.abs(q[::-1]) * np.abs(w + w[::-1]) * zabs
    rate = 2 * np.pi * np.maximum(np.abs(w), np.abs(w[::-1]))
    with np.errstate(over="ignore"):
        return float(np.sum(k[k > 0] * np.exp(rate[k > 0] * h)))


def _count_rectangles(f: ExpSum, rects):
    """Winding counts of f on the rectangles (x0, x1, y0, y1), all contours
    walked together: the counts (-1 where a contour failed), per failed
    rectangle its ContourError, and per rectangle the contour floor, a
    lower bound on |f| along its whole contour (nan where it failed).

    A rectangle symmetric about the real line (y0 = -y1) is walked on its
    lower half only, the bottom edge and the lower halves of the two
    sides, when f is Hermitian up to D = ``_hermitian_defect`` no larger
    than the margin of those edges; 2 D is added to each margin.  With
    g(z) = conj f(conj z), the upper half of g is the mirror image of the
    lower half of f traversed backwards, and arg g(z) = -arg f(conj z),
    so g's increment along the upper half equals f's along the lower
    half, I.  The walk certifies |f| > 2 D on the lower half, so on the
    upper half |g| > 2 D >= 2 |f - g|: f/g stays within pi/6 of the
    positive axis, and f's own increment there is I up to less than
    pi/3.  The winding number 2 I / 2 pi is then within 1/6 of the
    integer, exactly it when D = 0.  Boxes off the real line and sums
    with a larger D walk all four edges.  The walked margins carry 2 D,
    and |f| >= |g| - D on the upper half, so a mirrored contour's floor is
    the least bound of its walk plus D: its lower-half bound minus D.
    """
    if len(f) == 0:
        raise InvalidInputError("cannot count zeros of the empty (identically zero) sum")
    edges, sides, mirrored, defects, failed = [], [], [], [], {}
    for r, rect in enumerate(rects):
        x0, x1, y0, y1 = map(float, rect)
        if not (x0 < x1 and y0 < y1):
            raise InvalidInputError("rectangle must satisfy x0 < x1 and y0 < y1")
        c = (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
        walk, half, d = [], False, 0.0
        try:
            if y0 == -y1:
                walk = _bounded(f, [(complex(x0, 0.0), c[0]), (c[0], c[1]),
                                    (c[1], complex(x1, 0.0))])
                d = _hermitian_defect(f, y1, max(map(abs, c)))
                half = d <= min(margin for *_, margin in walk)
                walk = [(z0, z1, lbound, margin + 2 * d) for z0, z1, lbound, margin in walk]
            if not half:
                walk = _bounded(f, [(c[e], c[(e + 1) % 4]) for e in range(4)])
        except ContourError as exc:
            failed[r], walk = exc, []
        edges += walk
        sides.append(len(walk))
        mirrored.append(half)
        defects.append(d if half else 0.0)
    inc, walk_failed, low = _walk_edges(f, edges, sides)
    failed.update(walk_failed)
    counts = np.full(len(rects), -1, dtype=np.int64)
    floors = np.full(len(rects), np.nan)
    first = np.cumsum([0] + sides)
    for r in range(len(rects)):
        if r in failed:
            continue
        total = 0.0
        for e in range(first[r], first[r + 1]):
            total += float(inc[e])
        winding = (2 * total if mirrored[r] else total) / (2 * np.pi)
        n = int(round(winding))
        if abs(winding - n) > 0.25 or n < 0:
            failed[r] = ContourError(f"winding number {winding:.3f} not certified as an integer")
        else:
            counts[r] = n
            floors[r] = float(np.min(low[first[r]:first[r + 1]])) + defects[r]
    return counts, failed, floors


def _count_boxes(f, rects):
    """Winding counts on ``rects``, all counted together.  A rectangle whose
    contour fails is retried with its height scaled by each nudge in turn;
    returns the counts, the scale whose contour certified each, and that
    contour's floor."""
    counts = np.zeros(len(rects), dtype=np.int64)
    scales, floors = np.ones(len(rects)), np.zeros(len(rects))
    todo = list(range(len(rects)))
    for k in _NUDGE:
        got, failed, low = _count_rectangles(
            f, [(x0, x1, y0 * k, y1 * k) for x0, x1, y0, y1 in (rects[r] for r in todo)])
        for j, r in enumerate(todo):
            if j not in failed:
                counts[r], scales[r], floors[r] = got[j], k, low[j]
        if not failed:
            return counts, scales, floors
        todo = [todo[j] for j in sorted(failed)]
    raise failed[min(failed)]


def _real_values(f, x):
    return np.real(evaluate(f, np.asarray(x, dtype=float) + 0j))


def _with_derivative(f, df, z):
    """f and its derivative df at the points z from one ``_exp_rows`` pass
    over the frequencies of f, bit-identical to ``evaluate(f, z)`` and
    ``evaluate(df, z)``: the frequencies of df are a subset of those of
    f, so its columns are the same exps, and a row's sum does not depend
    on the other rows of its block.  The columns are taken in C order, as
    ``evaluate`` lays them out: numpy's matrix-vector product rounds the
    F-ordered result of ``E[:, cols]`` differently."""
    z = np.asarray(z, dtype=complex)
    cols = np.searchsorted(f.freqs, df.freqs)
    every = cols.size == len(f)
    out = _exp_rows(z.ravel(), f.freqs, lambda E: np.stack(
        [E @ f.coeffs, (E if every else E.take(cols, axis=1)) @ df.coeffs]))
    if not np.all(np.isfinite(out)):
        raise OverflowError("exponential sum overflowed; reduce |Im z|")
    return out[0].reshape(z.shape), out[1].reshape(z.shape)


def _real_with_derivative(f, df, x):
    fx, dfx = _with_derivative(f, df, np.asarray(x, dtype=float) + 0j)
    return fx.real, dfx.real


def _bisect_real(fn, lo, hi, flo, a=None, b=None, iters=48):
    """``iters`` halvings of the brackets [lo, hi] of the real function
    ``fn`` with a sign change, ``flo`` being fn at lo: the midpoint
    replaces lo when fn there times fn at lo is positive, else hi.
    Returns the last midpoints, bit for bit those of that plain loop,
    evaluating fn only at the midpoints whose sign is in doubt.

    A bracket may carry a sign certificate a < b (nan for none): fn is
    strictly monotone on an interval holding [lo, hi], a and b; fn(a)
    has the sign of flo and fn(b) the other one, and both exceed twice
    the rounding rho of fn by more than 2**-500.  The true fn(a) and fn(b)
    then have those signs, so the one root lies in (a, b).  At a
    midpoint m <= a the true |fn(m)| is at least |fn(a)| - rho, so the
    computed fn(m) has the sign of fn(a), and of fn(lo), with |fn(m)| >=
    |fn(a)| - 2 rho, as has fn(lo) when lo <= a; no product of two such
    values underflows, so the plain loop moves lo to m.  At m >= b the
    product with fn(lo) is negative, and hi moves to m.  Neither step
    needs fn(m); after the first of them fn(lo) is unknown and is
    evaluated with the next midpoint in doubt.  The steps are a function
    of (lo, hi, fn(lo)), so a bracket stops once a step leaves those
    unchanged.  Brackets without a certificate evaluate every step.
    """
    lo, hi, flo = (np.array(v, dtype=float) for v in (lo, hi, flo))
    if a is None:
        a = b = np.full(lo.size, np.nan)
    live = np.arange(lo.size)
    for _ in range(iters):
        if not live.size:
            break
        l, h, fl = lo[live], hi[live], flo[live]
        mid = 0.5 * (l + h)
        below = mid <= a[live]
        doubt = ~below & ~(mid >= b[live])
        fetch = doubt & np.isnan(fl)
        fm = np.full(mid.size, np.nan)  # nan: fn(mid) unknown
        if doubt.any():
            v = fn(np.concatenate([mid[doubt], l[fetch]]))
            fm[doubt], fl[fetch] = np.split(v, [np.count_nonzero(doubt)])
        go_right = below | (fl * fm > 0)
        new_lo, new_hi = np.where(go_right, mid, l), np.where(go_right, h, mid)
        new_flo = np.where(go_right, fm, fl)
        lo[live], hi[live], flo[live] = new_lo, new_hi, new_flo
        live = live[(new_lo != l) | (new_hi != h)
                    | ((new_flo != fl) & ~(np.isnan(new_flo) & np.isnan(fl)))]
    return 0.5 * (lo + hi)


def _newton_real(f, df, x, lo, hi, iters=10):
    """``iters`` Newton steps x -> x - f/f', a step that leaves [lo, hi]
    not taken.  A step depends on x alone, so a point stops at a fixed
    point, and on a 2-cycle at the member the remaining steps end on:
    the result is the plain loop's, bit for bit."""
    x, lo, hi = (np.array(v, dtype=float) for v in (x, lo, hi))
    prev = np.full(x.size, np.nan)
    live = np.arange(x.size)
    for k in range(iters):
        if not live.size:
            break
        xl = x[live]
        fx, dfx = _real_with_derivative(f, df, xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dfx != 0, fx / np.where(dfx == 0, 1.0, dfx), 0.0)
        xn = xl - step
        xn = np.where((xn >= lo[live]) & (xn <= hi[live]), xn, xl)
        fixed = xn == xl
        cycle = ~fixed & (xn == prev[live])
        x[live] = np.where(cycle & ((iters - k) % 2 == 0), xl, xn)
        prev[live] = xl
        live = live[~(fixed | cycle)]
    return x


def _newton_complex(f, df, z, iters=30, tol=1e-13):
    """Newton's method from every start in ``z``; a start stops on its own
    once its step is below tol (relative) or f' vanishes there."""
    z = np.array(z, dtype=complex)
    live = np.arange(z.size)
    for _ in range(iters):
        if not live.size:
            break
        fz, dfz = _with_derivative(f, df, z[live])
        live = live[dfz != 0]
        zl = z[live]
        zn = zl - fz[dfz != 0] / dfz[dfz != 0]
        z[live] = zn
        live = live[np.abs(zn - zl) >= tol * np.maximum(1.0, np.abs(zn))]
    return z


def _derivatives(derivs, k):
    """The k-th derivative of derivs[0], each computed once and kept in ``derivs``."""
    while len(derivs) <= k:
        derivs.append(derivative(derivs[-1]))
    return derivs[k]


def _refine_multiple(derivs, a, mult, halfwidth):
    """Roots a of order ``mult``, refined in (a - halfwidth, a + halfwidth)
    together: a zero of order m is a simple zero of the (m-1)-th derivative."""
    g = _derivatives(derivs, mult - 1)
    dg = _derivatives(derivs, mult)
    out = a.copy()
    newton = np.ones(a.size, dtype=bool)
    if is_hermitian(g):
        lo, hi = a - halfwidth, a + halfwidth
        va, vb = np.split(_real_values(g, np.concatenate([lo, hi])), 2)
        br = va * vb < 0
        if br.any():
            root = _bisect_real(lambda x: _real_values(g, x), lo[br], hi[br], va[br],
                                *_sign_certificates(g, dg, lo[br], hi[br], va[br]))
            out[br] = _newton_real(g, dg, root, lo[br], hi[br])
        newton = ~br
    if newton.any():
        z = _newton_complex(g, dg, a[newton])
        near = (np.abs(z.imag) < 1e-8) & (np.abs(z.real - a[newton]) <= halfwidth[newton])
        out[newton] = np.where(near, z.real, a[newton])
    return out


_CIRCLE = np.exp(2j * np.pi * np.arange(64) / 64)


def _one_point(f, df, centers, ms, hws):
    """For each box: True when the m zeros of a box around ``center`` sit
    at one point.

    Delves-Lyness moments mu_k = (1/2 pi i) oint (z - center)^k f'/f dz,
    by the trapezoidal rule on the circle of radius hw/2, give the count
    mu_0 and the centred second moment sum (z_i - mean)^2 =
    mu_2 - mu_1^2 / mu_0.  It vanishes for one zero of order m and is
    about s^2 for a cluster of spread s; the residual |f| of a cluster
    point is only O(s^m), so the residual test alone would accept it.
    The moment is compared with its rounding floor.  All circles are
    evaluated in one pass for f and f'.
    """
    ws = 0.5 * hws[:, None] * _CIRCLE
    zs = (centers[:, None] + ws).ravel()
    fvs, dvs = (v.reshape(ws.shape) for v in _with_derivative(f, df, zs))
    out = np.zeros(centers.size, dtype=bool)
    for i, (center, m, hw, w, fv, dv) in enumerate(zip(centers, ms, hws, ws, fvs, dvs)):
        with np.errstate(divide="ignore", invalid="ignore"):
            q = w * dv / fv
            mu0, mu1, mu2 = (np.mean(q * w ** k) for k in range(3))
            if not (np.isfinite(mu2) and abs(mu0 - m) < 0.25):
                continue
            # |error of f'/f| <= eps * (1 + 2 pi B |z|) * (||f'|| + |f'/f| ||f||) / |f|;
            # mu_k carries r^(k+1) times that, so with |mean - center| <= r the
            # centred moment carries at most 4 r^3 times it
            kappa = np.finfo(float).eps * (1.0 + 2 * np.pi * f.max_abs_freq * abs(center))
            err = kappa * np.max((df.wiener_norm + np.abs(dv / fv) * f.wiener_norm) / np.abs(fv))
            floor = 4.0 * (0.5 * hw) ** 3 * err
        out[i] = abs(mu2 - mu1 ** 2 / mu0) <= floor
    return out


def find_real_zeros(f: ExpSum, window) -> ZeroSet:
    """Real zero multiset of f over the window.

    The strip |Im z| < step over the window is counted by a winding
    contour, and the zeros found must account for that count.  One rule
    does it, in rounds over the pieces still open: scan each piece at its
    step; sign-change brackets, plus the winding boxes of the other
    candidates, must add up to the piece's count.  If they do not, cut
    the piece at the grid point of largest |f| between its middle two
    roots, count both pieces on the same strip height and certify each
    at half the step in the next round.  A piece left with a single root
    boxes it for its multiplicity, and a box of m > 1 zeros that do not
    sit at one point becomes a piece with count m.  Every round does
    each kind of work once for all open pieces: one scan, one bisection
    of all brackets, one of all other candidates, one contour walk per
    batch of boxes.  The first step is 1/(16 B).

    The set keeps the strip: the height h of the contour that counted
    it (the first step, or a nudge of it) and that contour's floor, a
    certified lower bound on |f| along the boundary of (window) x [-h, h]
    (``_walk_edges``).  Any g with |g - f| below the floor there has the
    same count in the strip, by Rouché's theorem.

    Raises ``ConvergenceError`` when a piece is still short at 2**-12 of
    the first step (its zeros are not real, or closer than that step) or
    a box clear of the real line counts a zero in a piece's strip, and
    ``BoundaryError`` for a zero within 1e-6 of the window edge.
    """
    if len(f) == 0:
        raise InvalidInputError("the empty sum is identically zero")
    lo, hi = map(float, window)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidInputError("window must be a finite interval")
    if len(f) == 1:
        warnings.warn("a single exponential has no zeros; returning an empty set")
        return _empty_zeroset((lo, hi))
    step = 1.0 / (16.0 * f.max_abs_freq)

    try:
        counts, nudges, floors = _count_boxes(f, [(lo, hi, -step, step)])
    except ContourError:
        edge_vals = np.abs(evaluate(f, np.array([lo, hi], dtype=complex)))
        if np.min(edge_vals) < 1e-3 * f.wiener_norm:
            raise BoundaryError(
                "a zero lies too close to the window boundary; shift the window"
            ) from None
        raise
    expected = int(counts[0])

    points, mults = _certify(f, [_Piece(lo, hi, expected, step * nudges[0], step)],
                             step * _FINEST)
    if points.size and (points[0] - lo < _BOUNDARY_TOL or hi - points[-1] < _BOUNDARY_TOL):
        raise BoundaryError("a zero lies within 1e-6 of the window edge; shift the window")
    if int(np.sum(mults)) != expected:
        raise ConvergenceError(
            f"scan found {int(np.sum(mults))} zeros but the contour count is {expected}; "
            "zeros may be non-real or closer than the refined scan step"
        )
    return ZeroSet((lo, hi), points, mults, step * float(nudges[0]), float(floors[0]))


def _certify(f, pieces, finest):
    """Real zeros of f that account for the count of every piece, in
    rounds over the pieces still open: sorted points and multiplicities."""
    derivs = [f]
    df = _derivatives(derivs, 1)
    herm = is_hermitian(f)
    tol = _RESID_TOL * max(1.0, f.wiener_norm)
    found = [(np.empty(0), np.empty(0, np.int64))]
    pieces = [p for p in pieces if p.count != 0]
    while pieces:
        for p in pieces:
            if p.step < finest:
                raise ConvergenceError(
                    f"zeros in ({p.lo:.9g}, {p.hi:.9g}) are not accounted for at the finest "
                    "scan step; they may be non-real or closer than that step"
                )
        scans = _scan(f, df, herm, pieces)
        hws = [_box_halfwidths(p, s.roots) for p, s in zip(pieces, scans)]
        mults = [np.zeros(s.roots.size, dtype=np.int64) for s in scans]
        tops = [np.zeros(s.roots.size) for s in scans]

        def count_boxes(which):
            # one batch of boxes, around root j of piece i for each (i, j)
            got, ks, _ = _count_boxes(f, [(scans[i].roots[j] - hws[i][j], scans[i].roots[j]
                                           + hws[i][j], -hws[i][j], hws[i][j]) for i, j in which])
            for (i, j), m, k in zip(which, got, ks):
                mults[i][j], tops[i][j] = m, hws[i][j] * k

        # boxes for the candidates first; the count may then certify the
        # brackets without boxes
        count_boxes([(i, j) for i, s in enumerate(scans) for j in np.flatnonzero(~s.is_bracket)])
        done, lone, cut = [], [], []
        for i, (p, s) in enumerate(zip(pieces, scans)):
            boxed = np.flatnonzero(~s.is_bracket)
            r, hw = s.roots[boxed], hws[i][boxed]
            if _brackets_certified(p.count, p.h, s.cell_lo, s.cell_hi, int(np.sum(s.is_bracket)),
                                   r - hw, r + hw, mults[i][boxed], tops[i][boxed]):
                mults[i][s.is_bracket] = 1
                done.append(i)
            elif s.roots.size == 1 and s.is_bracket[0]:
                lone.append(i)
            else:
                cut.append(i)
        # a lone bracket is boxed for its multiplicity: a zero of odd
        # order above 1 changes sign like a simple one
        count_boxes([(i, 0) for i in lone])
        for i in lone:
            (cut if mults[i][0] != pieces[i].count or tops[i][0] > pieces[i].h else done).append(i)
        cut.sort()
        next_pieces = _cut(f, [pieces[i] for i in cut], [scans[i] for i in cut])

        # simple roots keep their scan position, so one evaluate call tests
        # all their residuals; the multiple roots are refined by order
        simple = np.concatenate([np.empty(0)] + [scans[i].roots[mults[i] == 1] for i in done])
        if simple.size:
            simple = simple[np.abs(evaluate(f, simple + 0j)) < tol]
            found.append((simple, np.ones(simple.size, dtype=np.int64)))
        multi = [(i, j) for i in done for j in np.flatnonzero(mults[i] > 1)]
        if multi:
            roots, ms, hw, top = (np.array([x[i][j] for i, j in multi]) for x in (
                [s.roots for s in scans], mults, hws, tops))
            a = np.empty(roots.size)
            for m in np.unique(ms):
                a[ms == m] = _refine_multiple(derivs, roots[ms == m], int(m), hw[ms == m])
            ok = np.abs(evaluate(f, a + 0j)) < tol
            ok[ok] = _one_point(f, df, roots[ok], ms[ok], hw[ok])
            found.append((a[ok], ms[ok]))
            # a box that holds m zeros but no point of that order: a cluster
            # of distinct zeros tighter than the scan step
            next_pieces += [_Piece(roots[n] - hw[n], roots[n] + hw[n], int(ms[n]), top[n],
                                   min(pieces[multi[n][0]].step, hw[n]) / 2)
                            for n in np.flatnonzero(~ok)]
        pieces = sorted(p for p in next_pieces if p.count != 0)
    points = np.concatenate([p for p, _ in found])
    mults = np.concatenate([m for _, m in found])
    order = np.argsort(points, kind="stable")
    return points[order], mults[order]


def _box_halfwidths(p, roots):
    """Half-widths of the boxes around a piece's roots: sized by the local
    gap and kept inside the piece and its strip."""
    gaps = np.full(roots.size, np.inf)
    if roots.size > 1:
        d = np.diff(roots)
        gaps[:-1] = np.minimum(gaps[:-1], d)
        gaps[1:] = np.minimum(gaps[1:], d)
    return np.minimum(np.minimum(p.h, 0.45 * gaps), np.minimum(roots - p.lo, p.hi - roots))


def _cut(f, pieces, scans):
    """The pieces cut in two, each half counted: winding counts over the
    two pieces of a cut strip add up, so each piece can be certified on
    its own at half the step.  The cut is the grid point of largest |f|
    in the middle half of the gap between the middle two roots (the
    piece's ends count as roots), or the grid point nearest that gap's
    middle when the half holds none."""
    cs = []
    for p, s in zip(pieces, scans):
        ends = np.concatenate([[p.lo], s.roots, [p.hi]])
        a, b = ends[ends.size // 2 - 1], ends[ends.size // 2]
        off = np.abs(s.xs[1:-1] - 0.5 * (a + b))
        inside = np.flatnonzero(off < 0.25 * (b - a))
        cs.append(s.xs[1 + (inside[np.argmax(s.absv[1:-1][inside])] if inside.size
                            else np.argmin(off))])
    left, kl, _ = _count_boxes(f, [(p.lo, c, -p.h, p.h) for p, c in zip(pieces, cs)])
    # on the same height the right piece holds the rest of the count
    right = np.array([p.count for p in pieces]) - left
    kr = np.ones(len(pieces))
    again = np.flatnonzero(kl != 1.0)
    if again.size:
        right[again], kr[again], _ = _count_boxes(
            f, [(cs[n], pieces[n].hi, -pieces[n].h, pieces[n].h) for n in again])
    out = []
    for n, (p, c) in enumerate(zip(pieces, cs)):
        out.append(_Piece(p.lo, c, int(left[n]), p.h * kl[n], p.step / 2))
        out.append(_Piece(c, p.hi, int(right[n]), p.h * kr[n], p.step / 2))
    return out


def _scan(f, df, herm, pieces):
    """What a grid of each piece's step over (lo, hi) reveals: one
    ``_Scan`` per piece.  Every evaluation is batched over the pieces."""
    B = f.max_abs_freq
    norm = f.wiener_norm
    grids = [np.linspace(p.lo, p.hi, max(3, int(np.ceil((p.hi - p.lo) / p.step)) + 1))
             for p in pieces]
    sizes = [xs.size for xs in grids]
    xs_all = np.concatenate(grids)
    brackets = [np.empty(0)] * len(pieces)
    cells = [(np.empty(0), np.empty(0))] * len(pieces)
    if herm:
        # a zero without a sign change has even order, so |f| is O(step^2)
        # at the nearest grid point
        thresh = [(2 * np.pi * B) ** 2 * norm * p.step ** 2 for p in pieces]
        vals = _split(_real_values(f, xs_all), sizes)
        absvs = [np.abs(v) for v in vals]
        flo = []
        for n, (p, xs, v) in enumerate(zip(pieces, grids, vals)):
            # around a multiple zero rounding flips signs at random: a sign
            # change whose two ends are both within it brackets nothing
            _, noise = _edge_bounds(f, 0.0, 0.0, max(abs(p.lo), abs(p.hi)))
            big = np.abs(v) > noise
            c = np.flatnonzero((v[:-1] * v[1:] < 0) & (big[:-1] | big[1:]))
            cells[n] = (xs[c], xs[c + 1])
            flo.append(v[c])
        cell_lo = np.concatenate([c[0] for c in cells])
        if cell_lo.size:
            cell_hi = np.concatenate([c[1] for c in cells])
            flo = np.concatenate(flo)
            roots = _bisect_real(lambda x: _real_values(f, x), cell_lo, cell_hi, flo,
                                 *_sign_certificates(f, df, cell_lo, cell_hi, flo))
            brackets = _split(_newton_real(f, df, roots, cell_lo, cell_hi),
                              [c[0].size for c in cells])
    else:
        # a simple zero may sit step/2 from the nearest grid point, where
        # |f| <= |f'| * step / 2 <= pi * B * ||f|| * step
        thresh = [np.pi * B * norm * p.step for p in pieces]
        absvs = _split(np.abs(evaluate(f, xs_all.astype(complex))), sizes)

    # minima of |f| below the grid-resolution threshold (plus grid-exact
    # hits): candidates for zeros without a strict sign change.  A
    # candidate within 2 steps of a root found before it is skipped
    cands = []
    for p, xs, absv, br, th in zip(pieces, grids, absvs, brackets, thresh):
        interior = np.arange(1, xs.size - 1)
        is_min = (absv[interior] <= absv[interior - 1]) & (absv[interior] <= absv[interior + 1])
        cand = xs[interior[is_min & (absv[interior] < th)]]
        exact = xs[absv == 0.0]
        if exact.size:
            cand = np.unique(np.concatenate([cand, exact]))
        cands.append(cand[~_near(np.sort(br), cand, 2 * p.step)])
    x0 = np.concatenate(cands)
    steps = np.repeat([p.step for p in pieces], [c.size for c in cands])
    if not x0.size:
        found, valid = x0, np.ones(0, dtype=bool)
    elif herm:
        def u(t):
            # sign of the derivative of f^2 / 2, for locating |f| minima
            ft, dft = _real_with_derivative(f, df, t)
            return ft * dft

        lo, hi = x0 - steps, x0 + steps
        ua, ub = np.split(u(np.concatenate([lo, hi])), 2)
        found, valid = x0.copy(), np.ones(x0.size, dtype=bool)
        sign = ua * ub < 0
        if sign.any():
            found[sign] = _bisect_real(u, lo[sign], hi[sign], ua[sign])
    else:
        z = _newton_complex(f, df, x0)
        found = z.real
        owner = np.repeat(np.arange(len(pieces)), [c.size for c in cands])
        bounds = np.array([[p.lo, p.hi] for p in pieces])[owner]
        valid = ((np.abs(z.imag) <= 1e-8 * np.maximum(1.0, np.abs(z.real)))
                 & (bounds[:, 0] <= found) & (found <= bounds[:, 1]))
        _no_zero_off_the_line(f, pieces, owner[~valid], z[~valid])

    out = []
    for p, xs, absv, br, cand, fnd, ok in zip(
            pieces, grids, absvs, brackets, cands,
            _split(found, [c.size for c in cands]), _split(valid, [c.size for c in cands])):
        roots = br.tolist()
        roots.sort()
        for c, r in zip(cand[ok], fnd[ok]):
            i = bisect.bisect_left(roots, c)
            if not any(abs(roots[j] - c) < 2 * p.step for j in (i - 1, i) if 0 <= j < len(roots)):
                bisect.insort(roots, float(r))
        # refinement noise around even-order zeros can split one root into
        # twins a few 1e-9 apart; merge below a radius well under the step
        merge_radius = max(1e-9, min(1e-7, 1e-3 * p.step))
        roots = np.unique(np.asarray(roots, dtype=float))
        keep = np.ones(roots.size, dtype=bool)
        last = -np.inf
        for i in range(roots.size):
            if roots[i] - last < merge_radius:
                keep[i] = False
            else:
                last = roots[i]
        roots = roots[keep]
        cell_lo, cell_hi = cells[len(out)]
        out.append(_Scan(xs, absv, roots, np.isin(roots, br), cell_lo, cell_hi))
    return out


def _sign_certificates(f, df, lo, hi, flo):
    """The certificates a < b of ``_bisect_real`` for the brackets [lo, hi]
    of the real function f, ``flo`` being f at lo (nan where none holds).

    With c the centre and w the width of a bracket, |f'| exceeds
    |f'(c)| - rho' - t sup|f''| within t of c, rho' being the rounding
    of f'.  Newton steps from c, kept within w of it, give r, and
    a, b = r -+ 4 rho / slope, slope being that bound at t = w/2, so
    that f(a) and f(b) lie about 2 rho beyond f's rounding rho.  The
    bound must stay positive out to t = max(w/2, c - a, b - c) <= w,
    which proves f strictly monotone on an interval holding the bracket,
    a and b; f(a) must have the sign of flo, f(b) the other one, both
    beyond 2 rho.  A root on a grid point, at a bracket's end, puts a or
    b outside the bracket, and the certificate still holds.
    """
    c, w = 0.5 * (lo + hi), hi - lo
    zabs = np.maximum(np.abs(lo), np.abs(hi)) + w
    _, rho = _edge_bounds(f, 0.0, 0.0, zabs)
    curv, rho_d = _edge_bounds(df, 0.0, 0.0, zabs)
    steep = np.abs(_real_values(df, c)) - rho_d  # sup|f''| = curv on the line
    a, b = np.full(lo.size, np.nan), np.full(lo.size, np.nan)
    mono = np.flatnonzero(steep - 0.5 * w * curv > 0)
    if mono.size:
        r = _newton_real(f, df, c[mono], (c - w)[mono], (c + w)[mono], iters=4)
        half = 4 * rho[mono] / (steep[mono] - 0.5 * w[mono] * curv)
        fa, fb = np.split(_real_values(f, np.concatenate([r - half, r + half])), 2)
        reach = np.maximum(0.5 * w[mono], np.abs(r - c[mono]) + half)
        ok = ((reach <= w[mono]) & (steep[mono] - reach * curv > 0)
              & (np.sign(fa) == np.sign(flo[mono])) & (np.sign(fb) == -np.sign(flo[mono]))
              & (np.minimum(np.abs(fa), np.abs(fb)) - 2 * rho[mono] > 2.0 ** -500))
        a[mono[ok]], b[mono[ok]] = (r - half)[ok], (r + half)[ok]
    return a, b


def _no_zero_off_the_line(f, pieces, owner, z):
    """Raise ConvergenceError when a zero off the real line is certified
    inside a piece's strip: its real zeros can then never add up to its
    count.  Newton's limit ``z`` from a candidate of piece ``owner`` is
    only a guess; the first guess of each piece that lies in its strip,
    clear of the real line, is tested by a winding box of half-width
    |Im z|/2, which does not reach the line."""
    y, r = z.imag, 0.5 * np.abs(z.imag)
    lo, hi, h = (np.array([getattr(pieces[i], k) for i in owner]) for k in ("lo", "hi", "h"))
    inside = ((r > 0.5e-8 * np.maximum(1.0, np.abs(z.real))) & (np.abs(y) + r < h)
              & (lo < z.real - r) & (z.real + r < hi))
    _, first = np.unique(owner[inside], return_index=True)
    pick = np.flatnonzero(inside)[first]
    if not pick.size:
        return
    counts, _, _ = _count_rectangles(f, [(z[i].real - r[i], z[i].real + r[i], y[i] - r[i],
                                          y[i] + r[i]) for i in pick])
    if np.any(counts > 0):
        i = pick[np.argmax(counts > 0)]
        raise ConvergenceError(
            f"a zero off the real line, near {complex(z[i]):.9g}, lies in the strip over "
            f"({pieces[owner[i]].lo:.9g}, {pieces[owner[i]].hi:.9g}); "
            "the zeros there are not all real")


def _near(roots, x, dist):
    """For each x, whether a point of the sorted ``roots`` lies closer than dist."""
    if not roots.size:
        return np.zeros(x.size, dtype=bool)
    i = np.searchsorted(roots, x)
    return ((np.abs(roots[np.maximum(i - 1, 0)] - x) < dist)
            | (np.abs(roots[np.minimum(i, roots.size - 1)] - x) < dist))


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


def realness_check(f: ExpSum, A: ZeroSet) -> RealnessReport:
    """Compare the real zeros A of f with the winding count over the strip
    |Im z| < 0.5 above A's window."""
    lo, hi = A.window
    total = int(_count_boxes(f, [(lo, hi, -0.5, 0.5)])[0][0])
    return RealnessReport(real_count=A.count, total_count=total, all_real=A.count == total)


def rouche_radii(f: ExpSum, A: ZeroSet, delta: float) -> np.ndarray:
    """For each point a of A, of order m: a radius r such that every g
    with |g - f| <= delta on the disc |z - a| <= r has exactly m zeros in
    it (inf where the test fails).

    By Rouché's theorem against the Taylor polynomial
    p(z) = f^(m)(a) (z - a)^m / m!: on the circle |z - a| = r,
    |g - p| <= delta + sum_{k<m} |f^(k)(a)| r^k / k! + M r^(m+1), with
    M = sup |f^(m+1)| / (m+1)! over the disc, while |p| = |f^(m)(a)| r^m / m!.
    Let e_k bound |f^(k)(a)| / k! from above (rounding added, and delta in
    e_0) and c bound |f^(m)(a)| / m! from below.  Then
    r = max_k ((m + 1) e_k / c)^(1 / (m - k)) makes each e_k r^k at most
    c r^m / (m + 1), and |g - p| < |p| once M r < c / (m + 1).  For a simple
    zero, r = 2 (|f(a)| + rounding + delta) / |f'(a)|.  f and its first m
    derivatives at all the points come from one ``_exp_rows`` pass; the
    rounding of the k-th is that of ``_edge_bounds`` on the real line.
    """
    radii = np.full(len(A), np.inf)
    if not len(A):
        return radii
    top = int(np.max(A.mults))
    omega = 2 * np.pi * f.freqs
    cols = [f.coeffs * (1j * omega) ** k for k in range(top + 1)]
    vals = np.abs(_exp_rows(A.points + 0j, f.freqs, lambda E: np.stack([E @ c for c in cols])))
    size = [float(np.sum(np.abs(f.coeffs) * np.abs(omega) ** k)) for k in range(top + 2)]
    eps = np.finfo(float).eps
    for m in np.unique(A.mults):
        at = np.flatnonzero(A.mults == m)
        rho = [16 * eps * (len(f) * size[k] + np.abs(A.points[at]) * size[k + 1])
               for k in range(m + 1)]
        e = [(vals[k, at] + rho[k]) / math.factorial(k) for k in range(m)]
        e[0] = e[0] + delta
        c = (vals[m, at] - rho[m]) / math.factorial(m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.max([((m + 1) * e[k] / c) ** (1.0 / (m - k)) for k in range(m)], axis=0)
            sup = np.exp(np.multiply.outer(r, np.abs(omega))) @ (
                np.abs(f.coeffs) * np.abs(omega) ** (m + 1))
            ok = (c > 0) & (sup / math.factorial(m + 1) * r < c / (m + 1))
        radii[at[ok]] = r[ok]
    return radii
