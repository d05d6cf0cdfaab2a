"""The inverse direction: canonical products from zeros, Dirichlet-series
reconstruction from the diffraction measure, and the bounded-g criterion.

Reconstruction path: the atoms define the log of the target at height 1,
``log f(x+1j) + 1j*d*pi*x = -sum (b/gamma) exp(-2*pi*gamma) e^{2pi i gamma x}``
up to a constant; exponentiating in the algebra and mapping
``omega -> omega - d/2``, ``p -> p*exp(2*pi*omega - d*pi)`` lands back on
the real axis.  The unknown constant is fixed by normalizing f(0) = 1,
which the canonical product forces anyway.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diffraction import PointMeasure
from .errors import DomainError
from .wiener import (
    ExpSum,
    _exp_rows,
    _merge_groups,
    canonicalize,
    evaluate,
    exp_series,
    scale,
)
from .zeros import ZeroSet

T3_BUDGET = 1000.0  # largest sum |b|/gamma over 0 < gamma < 1 a rebuild accepts
_TINY = 2.0 ** -1074  # the spacing of the subnormal floats


@dataclass(frozen=True)
class ProductValue:
    """Canonical product value with its truncation estimate.

    ``hit_multiplicity`` is nonzero when z landed on a zero of the set;
    ``shift`` records the translation applied when 0 was in the set.
    """

    value: complex
    error_bound: float
    hit_multiplicity: int = 0
    shift: float = 0.0


@dataclass(frozen=True)
class GReport:
    windows: list[tuple[float, float]]  # (half-width X, sampled sup |g| over [-X, X])
    sup_bound: float  # bound on |g| over the real line: 2 * sum |b|/gamma over 0 < gamma < 1


def _translated_points(A: ZeroSet):
    e = A.expand()
    if e.size == 0:
        raise DomainError("empty zero set")
    near = np.abs(e) < 1e-12
    if not near.any():
        return e, 0.0
    gaps = np.diff(np.unique(e))
    delta = 0.5 * float(np.min(gaps)) if gaps.size else 0.5
    return e - delta, delta


def _pairing(e: np.ndarray):
    # symmetric core around the smallest nonnegative point; points beyond
    # the shorter side stay unpaired and are dropped (a stray factor
    # 1 - z/a would bias the symmetric limit by O(z/a))
    i0 = int(np.searchsorted(e, 0.0, side="left"))
    i0 = min(i0, e.size - 1)
    n_pairs = min(i0, e.size - 1 - i0)
    a0 = e[i0]
    right = e[i0 + 1:i0 + 1 + n_pairs]
    left = e[i0 - n_pairs:i0][::-1]
    dropped = e.size - 1 - 2 * n_pairs
    return a0, right, left, dropped, n_pairs


def _tail_s(n: int) -> float:
    # sum_{k>n} 1/k^2 by Euler-Maclaurin
    if n < 1:
        return 2.0
    return 1.0 / n - 1.0 / (2.0 * n * n) + 1.0 / (6.0 * n ** 3)


def _product_log(e: np.ndarray, z: complex):
    """(log of the paired canonical product, tail corrections, bound)."""
    a0, right, left, dropped, n_pairs = _pairing(e)
    if dropped > max(16, 0.05 * e.size):
        warnings.warn(
            f"{dropped} unpaired points beyond the symmetric core were dropped; "
            "the window is strongly one-sided"
        )
    terms = [complex(np.log(1.0 - z / a0))] if a0 != 0 else [0j]
    if n_pairs:
        pair_vals = (1.0 - z / right) * (1.0 - z / left)
        logs = np.log(pair_vals.astype(complex))
        terms.extend(logs.tolist())
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))

    # tail of the pairing beyond the window, extrapolated from the last
    # in-window decade: sum(1/a_n + 1/a_-n) ~ cbar * S, sum 1/(a_n a_-n) ~ t2bar * S
    correction = 0j
    bound = 0.0
    if n_pairs >= 20:
        nn = np.arange(1, n_pairs + 1, dtype=float)
        lo_idx = max(int(0.8 * n_pairs), 10)
        seg = slice(lo_idx, n_pairs)
        csum = 1.0 / right + 1.0 / left
        cbar = float(np.mean(csum[seg] * nn[seg] ** 2))
        t2bar = float(np.mean((nn[seg] ** 2) / (right[seg] * left[seg])))
        S = _tail_s(n_pairs)
        correction = (-z * cbar + z * z * t2bar) * S
        d_rough = 2.0 * n_pairs / (right[-1] - left[-1])
        sup_phi = float(max(np.max(np.abs(right - nn / d_rough)),
                            np.max(np.abs(left + nn / d_rough))))
        C = d_rough ** 2 * (2.0 * abs(z) * sup_phi + abs(z) ** 2) * 1.5
        bound = abs(np.exp(total + correction)) * math.expm1(min(C * S, 50.0))
    return total, correction, bound


def canonical_product(A: ZeroSet, z: complex) -> ProductValue:
    """Hadamard-style product over the windowed zero set, symmetric
    pairing, normalized to 1 at the origin.

    Values are assembled in the log domain with compensated summation,
    tail-corrected by extrapolating the pairing sums past the window.
    """
    e, shift = _translated_points(A)
    z = complex(z)
    dist = np.abs(e - z.real) + abs(z.imag)
    hit = int(np.argmin(dist))
    if dist[hit] < 1e-12 * max(1.0, abs(e[hit])):
        mult = int(np.sum(np.abs(e - e[hit]) < 1e-12))
        _, _, bound = _product_log(e, z + 1e-6)
        return ProductValue(value=0j, error_bound=bound, hit_multiplicity=mult, shift=shift)
    total, correction, bound = _product_log(e, z)
    if z == 0:
        return ProductValue(value=1.0 + 0j, error_bound=0.0, shift=shift)
    return ProductValue(value=complex(np.exp(total + correction)),
                        error_bound=bound, shift=shift)


def log_series_at_height_one(mu_hat: PointMeasure) -> ExpSum:
    """Exponential sum with coefficient -(b/gamma)*exp(-2*pi*gamma) at each
    positive atom frequency; represents log f(x+1j) + 1j*d*pi*x, with d
    the measure's density, up to a constant.  An atom of the band
    0 < gamma < 1 with |b|/gamma > 100 warns; a measure whose sum
    |b|/gamma over that band exceeds ``T3_BUDGET`` is a DomainError."""
    if mu_hat.d <= 0:
        raise DomainError("density must be positive")
    g, b = mu_hat.positive()
    if g.size == 0:
        return canonicalize([])
    low_g, low_b, t3 = mu_hat.low_band()
    ratios = np.abs(low_b) / low_g
    if np.any(ratios > 100.0):
        gg = float(low_g[int(np.argmax(ratios))])
        warnings.warn(
            f"atom at gamma = {gg:.3g} contributes |b|/gamma = {np.max(ratios):.3g} "
            "to the low-frequency mass budget"
        )
    if t3 > T3_BUDGET:
        raise DomainError(
            f"low-frequency mass sum |b|/gamma = {t3:.3g} exceeds the budget {T3_BUDGET:.3g}"
        )
    coeffs = -(b / g) * np.exp(-2.0 * math.pi * g)
    return canonicalize(list(zip(g.tolist(), coeffs.tolist())))


def rebuild_dirichlet(mu_hat: PointMeasure) -> ExpSum:
    """Dirichlet series with the measure's zero set, normalized to 1 at 0:
    ``rebuild_from_log_series`` of ``log_series_at_height_one``."""
    return rebuild_from_log_series(log_series_at_height_one(mu_hat), mu_hat.d)


def rebuild_from_log_series(L: ExpSum, d: float) -> ExpSum:
    """Dirichlet series of density d whose log at height 1 is L,
    normalized to 1 at 0.

    The exponential of the log series is taken pruning-free and truncated
    at the largest atom frequency.  Frequencies above it depend on atoms
    the measure does not carry, and the rescale by exp(2*pi*omega) below
    would blow up their incomplete cancellations; the terms at or below
    it are exact, because the log series has a strictly positive
    spectrum and its powers only move up.
    """
    if len(L) == 0:
        warnings.warn("no positive atoms: reconstruction degenerates to a single exponential")
    gmax = float(L.freqs[-1]) if len(L) else 0.0
    F = exp_series(L, gmax)
    freqs = F.freqs - d / 2.0
    with np.errstate(over="ignore"):
        coeffs = F.coeffs * np.exp(2.0 * math.pi * F.freqs - d * math.pi)
    if not np.all(np.isfinite(coeffs)):
        raise OverflowError("reconstruction overflowed; lower the atom cutoff")
    g = canonicalize(list(zip(freqs.tolist(), coeffs.tolist())))
    v0 = evaluate(g, 0.0)
    if v0 == 0:
        raise DomainError("reconstructed sum vanishes at 0; cannot normalize")
    return scale(g, 1.0 / v0)


def coefficient_distance(g: ExpSum, f: ExpSum, h: float, zabs: float) -> float:
    """delta, a bound on |g - f| over the strip |Im z| <= h at |z| <= zabs.

    The terms of both sums are paired by the frequency-merge rule of the
    algebra: a chain of frequencies within ``FREQ_TOL`` of each other is
    one group, with first frequency w0.  A term q e^{2 pi i w z} of a
    group differs from q e^{2 pi i w0 z} by at most
    2 pi |w - w0| zabs |q| e^{2 pi W h}, W the group's largest |w|, by the
    mean value theorem in the frequency; so the group adds
    (|sum of g's q - sum of f's q| + 2 pi zabs sum |w - w0| |q|) e^{2 pi W h}.
    A term with no partner is a group of its own and counts at full size,
    |q| e^{2 pi |w| h}.  On top, eps sum |q| (n + 4 + 2 pi |w| zabs)
    e^{2 pi |w| h} over all n terms covers the rounding of the
    coefficients and of this sum (n + 4) and of the frequencies (the
    |w| zabs part).
    """
    w = np.concatenate([g.freqs, f.freqs])
    q = np.concatenate([g.coeffs, -f.coeffs])
    if not w.size:
        return 0.0
    order, w, new_group = _merge_groups(w)
    q = q[order]
    starts = np.flatnonzero(new_group)
    w0 = w[starts][np.cumsum(new_group) - 1]
    with np.errstate(over="ignore"):
        growth = np.exp(2 * np.pi * h * np.maximum.reduceat(np.abs(w), starts))
        pairs = (np.abs(np.add.reduceat(q, starts))
                 + 2 * np.pi * zabs * np.add.reduceat(np.abs(w - w0) * np.abs(q), starts))
        rounding = np.abs(q) * (w.size + 4 + 2 * np.pi * np.abs(w) * zabs) * np.exp(
            2 * np.pi * np.abs(w) * h)
        return float(np.sum(pairs * growth) + np.finfo(float).eps * np.sum(rounding))


def _g_values(g: np.ndarray, b: np.ndarray, zs) -> np.ndarray:
    # sum of b*(exp(2j*pi*gamma*z)-1)/gamma over the band at every z of zs
    return _exp_rows(zs, g, lambda E: E @ (b / g)) - np.sum(b / g)


def g_function(mu_hat: PointMeasure, z: complex) -> complex:
    """g(z) = sum over atoms with 0 < gamma < 1 of b*(exp(2j*pi*gamma*z)-1)/gamma."""
    g, b, _ = mu_hat.low_band()
    return complex(_g_values(g, b, np.array([complex(z)]))[0])


def _sup_abs_g(mu_hat: PointMeasure, X: float) -> float:
    g, b, _ = mu_hat.low_band()
    if g.size == 0:
        return 0.0
    n = max(512, int(2 * X * 64.0) + 1)  # 64 points per unit of x
    xs = np.linspace(-X, X, n)
    vals = np.abs(_g_values(g, b, xs))
    best = int(np.argmax(vals))
    lo = xs[max(best - 1, 0)]
    hi = xs[min(best + 1, n - 1)]
    for _ in range(4):
        xs = np.linspace(lo, hi, 65)
        vals = np.abs(_g_values(g, b, xs))
        best = int(np.argmax(vals))
        lo = xs[max(best - 1, 0)]
        hi = xs[min(best + 1, 64)]
    return float(np.max(vals))


def g_boundedness(mu_hat: PointMeasure, X_grid) -> GReport:
    """Running sups of |g| sampled over nested real windows [-X, X], and
    the bound ``sup_bound`` on |g| over the whole real line.

    For real x each term of g has |exp(2j*pi*gamma*x) - 1| <= 2, so
    |g(x)| <= sum over 0 < gamma < 1 of 2*|b|/gamma = 2*t3, with t3 the
    low-band mass sum of ``PointMeasure.low_band``.  A finite atom list
    therefore always gives a bounded g; the windows only show how much
    of the bound a sample attains.

    Among subnormal numbers rounding is absolute: a product, quotient or
    ``np.abs`` errs by up to 2**-1074 (additions are exact there).  t3
    then falls short by up to 2**-1074 * (1/gamma + 1/2) per atom (the
    modulus's error passes through the quotient by gamma), and a sample of
    |g| runs over by up to 2*sqrt2 * 2**-1074 per atom (b/gamma, its
    product with the kernel, and the subtracted sum) plus 2**-1074 for
    the modulus.  ``sup_bound`` adds that allowance, 2**-1074 *
    (sum of 2/gamma + 4 per atom + 1), which moves no bound larger than
    2**53 times it.
    """
    Xs = sorted(float(x) for x in X_grid)
    sups = []
    running = 0.0
    for X in Xs:
        running = max(running, _sup_abs_g(mu_hat, X))
        sups.append(running)
    g, _, t3 = mu_hat.low_band()
    allowance = (float(np.sum(2.0 / g)) + 4.0 * g.size + 1.0) * _TINY if g.size else 0.0
    return GReport(windows=list(zip(Xs, sups)), sup_bound=2.0 * t3 + allowance)


def _logabs_zeroset(A: ZeroSet, y: float) -> float:
    e, _ = _translated_points(A)
    return 0.5 * float(np.sum(np.log1p((y / e) ** 2)))


def exponential_type(obj, y_grid) -> float:
    """lim y^{-1} log |f(1j*y)|: exact for an ExpSum, an estimate for a
    ZeroSet.

    On an ExpSum the term c*exp(2j*pi*omega*z) has modulus
    |c|*exp(-2*pi*omega*y) at z = 1j*y, and a canonical sum has no zero
    coefficient, so the lowest frequency dominates as y -> +inf and the
    type is -2*pi*freqs[0], whatever the (nonempty) ``y_grid``.  On a
    ZeroSet the canonical product is evaluated in the log domain over
    ``y_grid``, and the type is the difference quotient of the two
    largest heights (the constant term cancels), or the plain ratio for
    one height.
    """
    ys = sorted(float(y) for y in y_grid)
    if not ys:
        raise DomainError("y_grid must be nonempty")
    if isinstance(obj, ExpSum):
        if len(obj) == 0:
            raise DomainError("the empty sum has no exponential type")
        return -2.0 * math.pi * float(obj.freqs[0])
    if not isinstance(obj, ZeroSet):
        raise DomainError("exponential_type expects an ExpSum or a ZeroSet")
    logs = [_logabs_zeroset(obj, y) for y in ys]
    if len(ys) >= 2:
        return (logs[-1] - logs[-2]) / (ys[-1] - ys[-2])
    return logs[-1] / ys[-1]
