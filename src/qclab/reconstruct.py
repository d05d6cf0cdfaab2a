"""The inverse direction: Dirichlet-series reconstruction from the
diffraction measure, whose spectrum width the CLI checks against d, and
the bounded-g criterion.

Reconstruction path: the atoms define the log of the target as a formal
series, ``log f(x) + 1j*d*pi*x = -sum (b/gamma) e^{2pi i gamma x}`` up to
a constant (``log_series``); exponentiating it in the algebra and
shifting every frequency by -d/2 gives f.  The unknown constant is fixed
by normalizing f(0) = 1.

The series converges in the upper half-plane, where the paper takes it:
at a height s its coefficient at gamma is exp(-2*pi*gamma*s) times the
formal one, and so is every coefficient of its exponential, since the
frequencies along every path into omega add up to omega.  The truncated
series computes the same coefficients at height 0 with no rescale.

The exponential is truncated at d, and the truncation loses nothing.
f * e^{1j*pi*d*z} has its spectrum in [0, d], and it is exp(L) times a
constant, so every formal coefficient of exp(L) above d is 0: the
rebuild keeps the coefficients at or below d (within ``FREQ_TOL``, so a
top frequency that carries the rounding of d stays), each exact because
L has a strictly positive spectrum and its powers only move up.

The truncation at d needs what a measure does not certify: d exact to
within ``FREQ_TOL``, and every atom up to d.  The log-derivative route's
d = 1j*p0/pi is exact to rounding; a Bohr mean's count over 2T is off by
about 1/T.  The top frequency of exp(L) is d and a sum of atom
frequencies, so where exp(L) has no term at d, d is inexact: the rebuild
warns and truncates at the largest atom, which keeps the target's top
frequency when the atoms reach it.  A measure whose largest atom lies
below d may be cut off below d (it does not record its cutoff), and its
coefficients above that atom would be wrong: the rebuild warns and
truncates there too.  The coefficient at omega takes only the atoms up
to omega, so every term kept is exact, up to the errors of the atoms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffraction import PointMeasure
from .errors import DomainError
from .wiener import (
    FREQ_TOL,
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


def log_series(mu_hat: PointMeasure) -> ExpSum:
    """Exponential sum with coefficient -b/gamma at each positive atom
    frequency; represents log f(x) + 1j*d*pi*x, with d the measure's
    density, up to a constant, as a formal series.  An atom of the band
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
    return canonicalize(list(zip(g.tolist(), (-(b / g)).tolist())))


def rebuild_dirichlet(mu_hat: PointMeasure) -> ExpSum:
    """Dirichlet series with the measure's zero set, normalized to 1 at 0:
    ``rebuild_from_log_series`` of ``log_series`` in one call (the CLI
    runs the two as separate stages)."""
    return rebuild_from_log_series(log_series(mu_hat), mu_hat.d)


def rebuild_from_log_series(L: ExpSum, d: float) -> ExpSum:
    """Dirichlet series of density d whose formal log is L, normalized to
    1 at 0: ``exp_series`` of L truncated at d, every frequency shifted
    by -d/2.  Where the atoms stop below d, or exp(L) has no term at d,
    it warns and truncates at the largest atom instead (see the module
    docstring)."""
    top = float(L.freqs[-1]) if len(L) else d
    if len(L) == 0:
        warnings.warn("no positive atoms: reconstruction degenerates to a single exponential")
    elif top < d - FREQ_TOL:
        warnings.warn(f"the atoms stop at {top:.9g}, below the density d = {d:.9g}: the "
                      "rebuild keeps the terms up to the largest atom only")
    F = exp_series(L, min(top, d))
    if abs(float(F.freqs[-1]) - d) > FREQ_TOL and top > d:
        warnings.warn(f"no sum of atom frequencies lies at the density d = {d:.9g}, so d is "
                      "inexact (a count, not the log-derivative's): the rebuild truncates "
                      f"at the largest atom {top:.9g}")
        F = exp_series(L, top)
    g = canonicalize(list(zip((F.freqs - d / 2.0).tolist(), F.coeffs.tolist())))
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
