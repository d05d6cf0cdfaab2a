"""The inverse direction: Dirichlet-series reconstruction from the
diffraction measure, its exponential type, and the bounded-g criterion.

Reconstruction path: the atoms define the log of the target at height 1,
``log f(x+1j) + 1j*d*pi*x = -sum (b/gamma) exp(-2*pi*gamma) e^{2pi i gamma x}``
up to a constant; exponentiating in the algebra and mapping
``omega -> omega - d/2``, ``p -> p*exp(2*pi*omega - d*pi)`` lands back on
the real axis.  The unknown constant is fixed by normalizing f(0) = 1.
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

T3_BUDGET = 1000.0  # largest sum |b|/gamma over 0 < gamma < 1 a rebuild accepts
_TINY = 2.0 ** -1074  # the spacing of the subnormal floats


@dataclass(frozen=True)
class GReport:
    windows: list[tuple[float, float]]  # (half-width X, sampled sup |g| over [-X, X])
    sup_bound: float  # bound on |g| over the real line: 2 * sum |b|/gamma over 0 < gamma < 1


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
    ``rebuild_from_log_series`` of ``log_series_at_height_one`` in one
    call (the CLI runs the two as separate stages)."""
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
    """g(z) = sum over atoms with 0 < gamma < 1 of b*(exp(2j*pi*gamma*z)-1)/gamma,
    the function of the bounded-g criterion at one point z, real or not;
    ``g_boundedness`` samples the same values over real windows."""
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


def exponential_type(f: ExpSum) -> float:
    """lim y^{-1} log |f(1j*y)| of an exponential sum, exactly.

    The term c*exp(2j*pi*omega*z) has modulus |c|*exp(-2*pi*omega*y) at
    z = 1j*y, and a canonical sum has no zero coefficient, so the lowest
    frequency dominates as y -> +inf and the type is -2*pi*freqs[0].
    """
    if not isinstance(f, ExpSum):
        raise DomainError(f"exponential_type expects an ExpSum, not {type(f).__name__}")
    if len(f) == 0:
        raise DomainError("the empty sum has no exponential type")
    return -2.0 * math.pi * float(f.freqs[0])
