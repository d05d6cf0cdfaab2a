"""Pure point diffraction of a zero counting measure, by two routes.

Route one averages exp(-2j*pi*gamma*a_n) over the window (Bohr means).
Route two computes f'/f at a height s in the exponential-sum algebra and
reads the atom masses off its coefficients: with
``f'/f (x+1j*s) = sum p_gamma exp(2j*pi*gamma*x)`` the mass at zero is
``d = 1j*p_0/pi`` and ``b_gamma = 1j*p_gamma*exp(2*pi*gamma*s)/(2*pi)``
for gamma > 0, negative atoms following by conjugate symmetry.

The two routes are independent, which is what the cross-validation
tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .apset import unit_window_max
from .errors import DomainError, InsufficientDataError, InvalidInputError
from .wiener import (
    FREQ_TOL,
    ExpSum,
    _exp_rows,
    at_height,
    choose_height,
    derivative,
    multiply,
    neumann_inverse,
)
from .zeros import ZeroSet

_ATOM_TOL = 1e-9          # log-derivative atoms of smaller modulus are dropped
POISSON_SIGMA = 1.0       # width of the Poisson test Gaussian exp(-pi*x^2/sigma^2)
_POISSON_TAIL_TOL = 1e-8  # largest window or atom-list tail of a Poisson residual


@dataclass(frozen=True)
class PointMeasure:
    """Finite pure point measure: mass d at zero plus atoms (gamma, b)."""

    d: float
    gammas: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(self.gammas, dtype=float)
        b = np.ascontiguousarray(self.masses, dtype=complex)
        order = np.argsort(g)
        object.__setattr__(self, "gammas", g[order])
        object.__setattr__(self, "masses", b[order])

    def __len__(self) -> int:
        return self.gammas.size

    def atoms(self) -> list[tuple[float, complex]]:
        return [(float(g), complex(b)) for g, b in zip(self.gammas, self.masses)]

    def positive(self) -> tuple[np.ndarray, np.ndarray]:
        mask = self.gammas > FREQ_TOL
        return self.gammas[mask], self.masses[mask]

    def mass_at(self, gamma: float) -> complex:
        if abs(gamma) <= FREQ_TOL:
            return complex(self.d)
        i = np.searchsorted(self.gammas, gamma)
        for j in (i - 1, i):
            if 0 <= j < len(self) and abs(self.gammas[j] - gamma) <= FREQ_TOL:
                return complex(self.masses[j])
        return 0j

    def conjugate_defect(self) -> float:
        """max |b(-gamma) - conj(b(gamma))| over the positive atoms.

        b(-gamma) follows the rule of ``mass_at``, for all atoms in one
        lookup: the atom just below the insertion point of -gamma, else the
        one at it, each only within ``FREQ_TOL``, else 0.  CPython's
        ``abs`` (hypot) takes the moduli; ``np.abs`` on an array can differ
        from it in the last bit.
        """
        g, b = self.positive()
        if g.size == 0:
            return 0.0
        neg = -g
        i = np.searchsorted(self.gammas, neg)
        below = np.maximum(i - 1, 0)
        at = np.minimum(i, len(self) - 1)
        hit_below = (i > 0) & (np.abs(self.gammas[below] - neg) <= FREQ_TOL)
        hit_at = (i < len(self)) & (np.abs(self.gammas[at] - neg) <= FREQ_TOL)
        mirror = np.where(hit_below, self.masses[below],
                          np.where(hit_at, self.masses[at], 0j))
        return float(max(map(abs, (mirror - np.conj(b)).tolist())))

    def drop_atom(self, gamma: float) -> "PointMeasure":
        keep = np.abs(self.gammas - gamma) > FREQ_TOL
        return PointMeasure(self.d, self.gammas[keep], self.masses[keep])


@dataclass(frozen=True)
class GrowthProfile:
    m_of_s: list[tuple[float, float]]
    t3_value: float
    kappa_fit: float


@dataclass(frozen=True)
class PoissonReport:
    residual: float
    zero_side: float
    atom_side: complex
    zero_tail: float
    atom_tail: float


def _check_windows(A: ZeroSet, Ts) -> None:
    if min(Ts) <= 0:
        raise DomainError("T must be positive")
    lo, hi = A.window
    T_max = max(Ts)
    if -T_max < lo or T_max > hi:
        raise DomainError(f"T = {T_max} exceeds the window {A.window}")


def bohr_means(A: ZeroSet, gammas, Ts) -> np.ndarray:
    """Bohr means (1/2T) * sum_{|a_n|<T} mult * exp(-2j*pi*gamma*a_n) at
    every T of Ts (rows) and gamma of gammas (columns), in any order and
    with repeats.

    The zero set is sorted, so each window |a| < T is a contiguous slice
    of the widest one: one ``_exp_rows`` pass over the widest window,
    with points -gamma, gives every row, each the same sum bit for bit
    as a pass over its own window, for every worker count.

    The zeros are real, so the mean at -gamma is the conjugate of the
    mean at gamma, and bit for bit: the kernel's phase 2*pi*(gamma*a)
    changes only its sign when gamma does, sin and cos of libm are odd
    and even, and sums and quotients of conjugates are the conjugates of
    the sums and quotients (an exactly zero imaginary part stays +0).
    The pass therefore takes only the columns gamma >= 0 and every
    gamma < 0 whose exact negative is not in gammas; each other column
    is the conjugate of its partner.
    """
    gammas = np.asarray(gammas, dtype=float)
    Ts = [float(T) for T in Ts]
    _check_windows(A, Ts)
    T_max = max(Ts)
    e = A.expand()
    sel = e[np.searchsorted(e, -T_max, side="right"):np.searchsorted(e, T_max, side="left")]
    cuts = [(np.searchsorted(sel, -T, side="right"), np.searchsorted(sel, T, side="left"))
            for T in Ts]
    mirrored = (gammas < 0) & np.isin(-gammas, gammas)
    own = ~mirrored
    owned = _exp_rows(-gammas[own], sel, lambda E: np.stack([E[:, i:j].sum(1) for i, j in cuts]))
    for k, T in enumerate(Ts):
        owned[k] /= 2.0 * T
    sums = np.empty((len(Ts), gammas.size), complex)
    sums[:, own] = owned
    order = np.argsort(gammas)
    partner = order[np.searchsorted(gammas[order], -gammas[mirrored])]
    mirror = sums[:, partner]
    # 0 - imag, not conj: a mean whose terms cancel exactly, or an empty
    # window's, has imaginary part +0 at -gamma as at gamma
    np.subtract(0.0, mirror.imag, out=mirror.imag)
    sums[:, mirrored] = mirror
    return sums


def bohr_error_heuristic(A: ZeroSet, T: float) -> float:
    """O(k1/T) edge-effect estimate for a Bohr mean at half-length T."""
    return unit_window_max(A.expand()) / float(T)


def bohr_atoms(A: ZeroSet, gammas, full, half, T: float, threshold: float) -> PointMeasure:
    """The atoms of a Bohr scan at half-length T, from the means ``full``
    at T and ``half`` at T/2 on the grid ``gammas``.

    An atom survives when |estimate at T| exceeds the threshold and the
    drift against the half-window estimate stays below threshold/4; the
    gamma = 0 mean at T becomes d.
    """
    _check_windows(A, [float(T)])
    err = bohr_error_heuristic(A, T)
    if threshold <= 2.0 * err:
        raise InvalidInputError(
            f"threshold {threshold} must exceed twice the error heuristic {err:.3g}"
        )
    gammas = np.asarray(gammas, dtype=float)
    stable = (np.abs(full) > threshold) & (np.abs(full - half) < threshold / 4.0)
    keep = stable & (np.abs(gammas) > FREQ_TOL)
    # the gamma = 0 mean without its exp pass: every term is exactly 1, and
    # numpy's complex division of the sum by 2T multiplies by the reciprocal,
    # so the mean is n * (1 / 2T) bit for bit (n / 2T differs in the last bit)
    d = float(A.mults[np.abs(A.points) < T].sum()) * (1.0 / (2.0 * T))
    return PointMeasure(d=d, gammas=gammas[keep], masses=full[keep])


def logderiv_measure(
    f: ExpSum,
    s: float | str = "auto",
    cutoff: float = 10.0,
) -> PointMeasure:
    """Diffraction atoms from the coefficients of f'/f at height s.

    The Neumann recursion is run pruning-free and truncated at the
    cutoff, because coefficients at frequency gamma get rescaled by
    exp(2*pi*gamma*s) afterwards and may not be dropped however small
    they look at height s.  The truncation is exact below the cutoff:
    the spectrum of the Neumann remainder is strictly positive, so its
    powers only move up.
    """
    if len(f) < 2:
        raise DomainError(
            "a constant or single exponential has no zeros; the log-derivative "
            "expansion does not apply"
        )
    if cutoff <= 0:
        raise DomainError("cutoff must be positive")
    if s == "auto":
        s = choose_height(f)
    s = float(s)
    inv = neumann_inverse(f, s, cutoff)
    dfs = at_height(derivative(f), s)
    ld = multiply(dfs, inv)

    i0 = np.flatnonzero(np.abs(ld.freqs) <= FREQ_TOL)
    p0 = complex(ld.coeffs[i0[0]]) if i0.size else 0j
    d_complex = 1j * p0 / math.pi
    d = float(d_complex.real)
    sel = (ld.freqs > FREQ_TOL) & (ld.freqs < cutoff)
    g = ld.freqs[sel]
    b = 1j * ld.coeffs[sel] * np.exp(2.0 * math.pi * g * s) / (2.0 * math.pi)
    keep = np.abs(b) > _ATOM_TOL
    g, b = g[keep], b[keep]
    gammas = np.concatenate([-g[::-1], g])
    masses = np.concatenate([np.conj(b[::-1]), b])
    return PointMeasure(d=d, gammas=gammas, masses=masses)


def _gaussian_comb_tail(x0: float, alpha: float) -> float:
    # bound for sum_{m>=0} exp(-alpha*(x0+m)^2), alpha*x0 not tiny
    if x0 <= 0:
        x0 = 0.0
    ratio = math.exp(-alpha * (2.0 * x0 + 1.0))
    lead = math.exp(-alpha * x0 * x0)
    if ratio >= 1.0:
        return math.inf
    return lead / (1.0 - ratio)


def poisson_residual(A: ZeroSet, mu_hat: PointMeasure) -> PoissonReport:
    """Residual of the summation identity
    sum mult * g_hat(a_n) = d * g(0) + sum b_gamma * g(gamma)
    over |a_n| <= T, the symmetric half-window T = min(-lo, hi), with
    certified window tails.

    The test function is the Gaussian g(x) = exp(-pi*x^2/sigma^2) at
    sigma = ``POISSON_SIGMA``; its transform is sigma*exp(-pi*sigma^2*t^2)
    under the phi_hat(t) = int phi e^{-2pi i xt} convention.  Both tails
    must stay below 1e-8, else ``InsufficientDataError``.
    """
    sigma = POISSON_SIGMA
    lo, hi = A.window
    T = min(-lo, hi)
    e = A.expand()
    sel = e[np.abs(e) <= T]

    alpha_hat = math.pi * sigma * sigma
    zero_side = float(sigma * np.sum(np.exp(-alpha_hat * sel ** 2)))
    k1 = max(unit_window_max(e), 1)
    zero_tail = 2.0 * k1 * sigma * _gaussian_comb_tail(T, alpha_hat)

    alpha = math.pi / (sigma * sigma)
    atom_side = complex(mu_hat.d)
    if len(mu_hat):
        atom_side += complex(np.sum(mu_hat.masses * np.exp(-alpha * mu_hat.gammas ** 2)))
        gmax = float(np.max(np.abs(mu_hat.gammas)))
        rho = (float(np.sum(np.abs(mu_hat.masses))) + mu_hat.d) / max(gmax, 1.0)
    else:
        gmax = 0.0
        rho = max(mu_hat.d, 1.0)
    atom_tail = 2.0 * rho * _gaussian_comb_tail(gmax, alpha)

    if max(zero_tail, atom_tail) > _POISSON_TAIL_TOL:
        need = math.sqrt(max(math.log(max(2 * k1 * sigma, 2 * rho) / _POISSON_TAIL_TOL), 1.0)
                         / min(alpha_hat, alpha))
        raise InsufficientDataError(
            f"truncation tails exceed {_POISSON_TAIL_TOL:.1g}; extend the window and the "
            f"atom list past {need:.1f}",
            required_window=need,
        )
    residual = abs(zero_side - atom_side)
    return PoissonReport(residual=float(residual), zero_side=zero_side,
                         atom_side=atom_side, zero_tail=zero_tail, atom_tail=atom_tail)


def growth_profile(mu_hat: PointMeasure, s_grid) -> GrowthProfile:
    """Cumulative mass m(s) over 0 < gamma <= s, the sum |b|/gamma below 1,
    and a log-log slope over the top decade of the grid."""
    g, b = mu_hat.positive()
    mass = np.abs(b)
    table = []
    for s in sorted(float(x) for x in s_grid):
        table.append((s, float(np.sum(mass[g <= s]))))
    below_one = g < 1.0
    t3 = float(np.sum(mass[below_one] / g[below_one])) if np.any(below_one) else 0.0
    ss = np.array([s for s, _ in table])
    ms = np.array([m for _, m in table])
    top = (ss >= ss[-1] / 10.0) & (ms > 0) if ss.size else np.zeros(0, bool)
    if int(np.sum(top)) >= 2 and np.ptp(np.log(ss[top])) > 0:
        kappa = float(np.polyfit(np.log(ss[top]), np.log(ms[top]), 1)[0])
    else:
        kappa = 0.0
    return GrowthProfile(m_of_s=table, t3_value=t3, kappa_fit=kappa)
