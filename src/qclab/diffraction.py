"""Pure point diffraction of a zero counting measure, by two routes.

Route one averages exp(-2j*pi*gamma*a_n) over the window (Bohr means).
Route two computes f'/f in the exponential-sum algebra and reads the
atom masses off its coefficients: with the formal expansion
``f'/f = sum p_gamma exp(2j*pi*gamma*x)`` (f * (f'/f) = f', solved for
f'/f in increasing frequency and truncated at the cutoff) the mass at
zero is ``d = 1j*p_0/pi`` and
``b_gamma = 1j*p_gamma/(2*pi)`` for gamma > 0, negative atoms following
by conjugate symmetry.  The paper expands f'/f at a height s > 0, where
the untruncated series converges; there the coefficient at gamma is
exp(-2*pi*gamma*s) times the formal one, exactly, so the truncated
series needs no height (``logderiv_coefficients``).

The two routes are independent, which is what the cross-validation
tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, InvalidInputError
from .wiener import (
    FREQ_TOL,
    ExpSum,
    _exp_rows,
    _monic,
    _solve,
    derivative,
    majorize,
    multiply,
)
from .zeros import ZeroSet

_ATOM_TOL = 1e-9          # log-derivative atoms of smaller modulus are dropped
POISSON_SIGMA = 1.0       # width of the Poisson test Gaussian exp(-pi*x^2/sigma^2)
_POISSON_TAIL_TOL = 1e-8  # largest window or atom-list tail of a Poisson residual
_U = 2.0 ** -53           # unit roundoff of float64
_SCREEN_BLOCK = 1 << 17   # grid screen block (complex entries, 2 MB): larger blocks measured slower


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

    def atom_index(self, gammas) -> np.ndarray:
        """Index of the atom at each of ``gammas``: the atom just below its
        insertion point, else the one at it, each only within ``FREQ_TOL``;
        -1 where there is none."""
        q = np.asarray(gammas, dtype=float)
        if len(self) == 0:
            return np.full(q.shape, -1)
        i = np.searchsorted(self.gammas, q)
        below = np.maximum(i - 1, 0)  # at either end, below and at are one atom
        at = np.minimum(i, len(self) - 1)
        hit_below = np.abs(self.gammas[below] - q) <= FREQ_TOL
        hit_at = np.abs(self.gammas[at] - q) <= FREQ_TOL
        return np.where(hit_below, below, np.where(hit_at, at, -1))

    def mass_at(self, gamma: float) -> complex:
        if abs(gamma) <= FREQ_TOL:
            return complex(self.d)
        j = int(self.atom_index(gamma))
        return complex(self.masses[j]) if j >= 0 else 0j

    def conjugate_defect(self) -> float:
        """max |b(-gamma) - conj(b(gamma))| over the positive atoms, with
        b(-gamma) from ``atom_index``, else 0.  CPython's ``abs`` (hypot)
        takes the moduli; ``np.abs`` on an array can differ from it in the
        last bit.
        """
        g, b = self.positive()
        if g.size == 0:
            return 0.0
        j = self.atom_index(-g)
        mirror = np.where(j >= 0, self.masses[j], 0j)
        return float(max(map(abs, (mirror - np.conj(b)).tolist())))

    def low_band(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The atoms with 0 < gamma < 1, their masses, and the low-frequency
        mass sum |b|/gamma over them.  Both ends are spectral points: an
        atom within ``FREQ_TOL`` of 0 or of 1 is not in the band."""
        g, b = self.positive()
        band = g < 1.0 - FREQ_TOL
        g, b = g[band], b[band]
        return g, b, float(np.sum(np.abs(b) / g))

    def drop_atom(self, gamma: float) -> "PointMeasure":
        keep = np.abs(self.gammas - gamma) > FREQ_TOL
        return PointMeasure(self.d, self.gammas[keep], self.masses[keep])


@dataclass(frozen=True)
class CertifiedMeasure(PointMeasure):
    """A log-derivative measure and the record of its rounding floor:
    how many atoms above ``_ATOM_TOL`` fell below their rounding bound,
    the frequency below which none did (the cutoff if none did), and the
    largest bound of a kept atom (None without one)."""

    noise_dropped: int
    certified_cutoff: float
    max_error_bound: float | None


@dataclass(frozen=True)
class LogderivCoefficients:
    """The coefficients of f'/f read as atoms: d, and b_gamma
    for FREQ_TOL < gamma < cutoff with a bound on the rounding error of
    each (``logderiv_coefficients``).  Ghosts, whose float value is an
    exact cancellation, have b = 0."""

    d: float
    gammas: np.ndarray
    masses: np.ndarray
    bounds: np.ndarray
    cutoff: float

    def kept(self) -> np.ndarray:
        """The atoms: |b| above ``_ATOM_TOL`` and above its rounding bound."""
        mod = np.abs(self.masses)
        return (mod > _ATOM_TOL) & (mod > self.bounds)

    def measure(self) -> CertifiedMeasure:
        """The kept atoms with their conjugates at -gamma, and the record
        of the atoms dropped as rounding noise."""
        keep = self.kept()
        noise = (np.abs(self.masses) > _ATOM_TOL) & ~keep
        g, b = self.gammas[keep], self.masses[keep]
        return CertifiedMeasure(
            d=self.d,
            gammas=np.concatenate([-g[::-1], g]),
            masses=np.concatenate([np.conj(b[::-1]), b]),
            noise_dropped=int(np.count_nonzero(noise)),
            certified_cutoff=float(self.gammas[noise][0]) if noise.any() else float(self.cutoff),
            max_error_bound=float(np.max(self.bounds[keep])) if keep.any() else None,
        )


@dataclass(frozen=True)
class GrowthProfile:
    m_of_s: list[tuple[float, float]]
    t3_value: float
    kappa_fit: float | None


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


def _nested_windows(A: ZeroSet, Ts) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The points of the widest window |a| < max(Ts), sorted and repeated
    by multiplicity, and the slice (i, j) of them that is each window
    |a| < T of Ts: the zero set is sorted, so the windows are nested."""
    _check_windows(A, Ts)
    T_max = max(Ts)
    e = A.expand()
    sel = e[np.searchsorted(e, -T_max, side="right"):np.searchsorted(e, T_max, side="left")]
    cuts = [(int(np.searchsorted(sel, -T, side="right")), int(np.searchsorted(sel, T, side="left")))
            for T in Ts]
    return sel, cuts


def bohr_means(A: ZeroSet, gammas, Ts) -> np.ndarray:
    """Bohr means (1/2T) * sum_{|a_n|<T} mult * exp(-2j*pi*gamma*a_n) at
    every T of Ts (rows) and gamma of gammas (columns), in any order and
    with repeats.

    One ``_exp_rows`` pass over the widest window, with points -gamma,
    gives every row, each the same sum bit for bit as a pass over its own
    window, for any budget and any blocks of the pass.

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
    sel, cuts = _nested_windows(A, Ts)
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


def bohr_grid_screen(A: ZeroSet, step: float, K: int, Ts) -> tuple[np.ndarray, np.ndarray]:
    """Approximate Bohr means at gamma_k = fl(k * step), 0 <= k <= K
    (columns), for every T of Ts (rows), and per row a bound eta_T on the
    distance of each of them from ``bohr_means``' value at gamma_k.

    No transcendental per entry: each point a gets z = cis(-2*pi*step*a)
    from one complex exp, and the rows come in blocks by complex
    multiplication alone.  A block's first row is z**k0; its rows
    k0 + m .. k0 + 2m - 1 are its rows k0 .. k0 + m - 1 times z**m, for m
    = 1, 2, 4, ... (z**m by squaring); its last row times z starts the
    next block.  One ``np.add.reduceat`` per block sums the points
    between consecutive window cuts, and each window is a run of those
    pieces.  A block holds at most ``_SCREEN_BLOCK`` entries, or one row,
    so with its squares, z and the carry the workspace stays inside
    ``wiener._EXP_BUDGET`` for windows of up to 250,000 points.

    The bound, with u = 2**-53, Phi = 2*pi*K*step*T, n the points of
    |a| < T counted with multiplicity and gamma_m = m*u / (1 - m*u):

    - libm (assumed): sin and cos err by at most 2u each, so
      lam = 2*sqrt2*u bounds |cis computed - exp(1j*theta)| at the
      computed phase theta.
    - The kernel's phase of a term is fl(fl(2*pi) * fl(-gamma_k * a)),
      with gamma_k = k * step * (1 + delta), |delta| <= u: four relative
      roundings of 2*pi*k*step*a, so it is off by at most Phi * gamma_4
      and, as |exp(1j*x) - exp(1j*y)| <= |x - y|, its exp by that plus lam.
    - The screen's z has three roundings in its phase: it is within
      eps0 = lam + 2*pi*step*T*gamma_3 of zeta = exp(-2j*pi*step*a), a
      point of modulus 1.  The power of row k is a product tree of k
      factors z and of factors exactly 1 (whose products are exact), so
      of at most k - 1 rounded complex products, each with relative
      error at most sqrt5*u (Brent, Percival and Zimmermann, Math. Comp.
      76, 2007; 2u with a fused multiply-add).  Writing z = zeta*(1 + e),
      it is zeta**k * (1 + e)**k * prod(1 + delta_i), within
      rho = (1 + eps0)**K * (1 + sqrt5*u)**K - 1 of zeta**k.
    - So one term of the screen and the kernel's term differ by at most
      tau = rho + lam + Phi * gamma_4, and each has modulus at most
      M = 1 + lam + rho.
    - Each of the two sums of n terms, in any order, errs by at most
      sqrt2 * gamma_{n-1} * n * M (gamma_{n-1} on each part).  Each
      quotient by 2T multiplies both parts by fl(1 / 2T): two roundings,
      at most gamma_2 * (1 + sqrt2 * gamma_{n-1}) * n * M / 2T.

    Hence eta_T = n * (tau + 2*sqrt2*gamma_{n-1}*M
    + 2*gamma_2*(1 + sqrt2*gamma_{n-1})*M) / 2T, raised by 1e-12 of
    itself for its own rounding.  On the union of two lattices over
    +-2100 with step 0.02 and K = 500 it is about 2e-10; the observed
    distance is near 1e-12.
    """
    step = float(step)
    Ts = [float(T) for T in Ts]
    sel, cuts = _nested_windows(A, Ts)
    n = sel.size
    sums = np.zeros((len(Ts), K + 1), complex)
    if n:
        # the pieces between consecutive cuts; window i:j is pieces p:q
        edges = np.unique(np.concatenate([np.ravel(cuts), [0, n]]))
        spans = [(np.searchsorted(edges, i), np.searchsorted(edges, j)) for i, j in cuts]
        z = np.exp(-2j * np.pi * (step * sel))
        rows = min(K + 1, max(1, _SCREEN_BLOCK // n))
        squares = [z]  # z**(2**j) for 2**j < rows
        while 2 ** len(squares) < rows:
            squares.append(squares[-1] * squares[-1])
        block = np.empty((rows, n), complex)
        carry = np.ones(n, complex)  # z**k0
        for k0 in range(0, K + 1, rows):
            b = block[:min(rows, K + 1 - k0)]
            b[0] = carry
            m = 1
            for zm in squares:  # b[m:2m] = b[:m] * z**m
                if m >= len(b):
                    break
                np.multiply(b[:min(m, len(b) - m)], zm, out=b[m:2 * m])
                m *= 2
            pieces = np.add.reduceat(b, edges[:-1], axis=1)
            for t, (p, q) in enumerate(spans):
                sums[t, k0:k0 + len(b)] = pieces[:, p:q].sum(1)
            carry = b[-1] * z
    eta = np.empty(len(Ts))
    for t, (T, (i, j)) in enumerate(zip(Ts, cuts)):
        sums[t] /= 2.0 * T
        eta[t] = _screen_bound(j - i, step, K, T)
    return sums, eta


def _screen_bound(n: int, step: float, K: int, T: float) -> float:
    """eta_T of ``bohr_grid_screen`` for n points of |a| < T."""
    def gam(m):
        return m * _U / (1.0 - m * _U)

    lam = 2.0 * math.sqrt(2.0) * _U
    eps0 = lam + 2.0 * math.pi * step * T * gam(3)
    rho = math.expm1(K * (math.log1p(eps0) + math.log1p(math.sqrt(5.0) * _U)))
    tau = rho + lam + 2.0 * math.pi * K * step * T * gam(4)
    M = 1.0 + lam + rho
    g = gam(max(n - 1, 0))
    sq2 = math.sqrt(2.0)
    eta = n * (tau + 2.0 * sq2 * g * M + 2.0 * gam(2) * (1.0 + sq2 * g) * M) / (2.0 * T)
    return eta * (1.0 + 1e-12)


def bohr_error_heuristic(A: ZeroSet, T: float) -> float:
    """O(k1/T) edge-effect estimate for a Bohr mean at half-length T."""
    return A.k1 / float(T)


def bohr_stable(full, half, threshold: float, slack: float = 0.0) -> np.ndarray:
    """The stability rule of a Bohr scan: |full| > threshold and
    |full - half| < threshold/4, for the means ``full`` at T and ``half``
    at T/2.

    At slack > 0 both comparisons are loosened by L = (1 + 8u)*slack +
    8u*threshold, u = 2**-53.  A column whose full and half lie within e1
    and e2 of means that pass at slack 0, with e1 + e2 <= slack, then
    passes too, roundings included: fl(full - half) errs by at most u and
    ``np.abs`` (assumed within one ulp) by 2u of the modulus, which moves
    the test |full| > threshold by up to 4u*threshold and |full - half| <
    threshold/4 by up to about 2u*threshold, and threshold - L and
    threshold/4 + L round by u of themselves.  At slack 0 the rule is
    exactly the two comparisons.
    """
    loose = (1.0 + 8.0 * _U) * slack + 8.0 * _U * threshold if slack > 0 else 0.0
    return (np.abs(full) > threshold - loose) & (np.abs(full - half) < threshold / 4.0 + loose)


def bohr_atoms(A: ZeroSet, gammas, full, half, T: float, threshold: float) -> PointMeasure:
    """The atoms of a Bohr scan at half-length T, from the means ``full``
    at T and ``half`` at T/2 on the grid ``gammas``.

    An atom survives ``bohr_stable`` at slack 0: |estimate at T| exceeds
    the threshold and the drift against the half-window estimate stays
    below threshold/4; the gamma = 0 mean at T becomes d.
    """
    _check_windows(A, [float(T)])
    err = bohr_error_heuristic(A, T)
    if threshold <= 2.0 * err:
        raise InvalidInputError(
            f"threshold {threshold} must exceed twice the error heuristic {err:.3g}"
        )
    gammas = np.asarray(gammas, dtype=float)
    keep = bohr_stable(full, half, threshold) & (np.abs(gammas) > FREQ_TOL)
    # the gamma = 0 mean without its exp pass: every term is exactly 1, and
    # numpy's complex division of the sum by 2T multiplies by the reciprocal,
    # so the mean is n * (1 / 2T) bit for bit (n / 2T differs in the last bit)
    d = float(A.mults[np.abs(A.points) < T].sum()) * (1.0 / (2.0 * T))
    return PointMeasure(d=d, gammas=gammas[keep], masses=full[keep])


def logderiv_coefficients(f: ExpSum, cutoff: float = 10.0) -> LogderivCoefficients:
    """The coefficients of f'/f as atoms, each with a proven bound on its
    rounding error.

    f'/f is taken at height 0, as the formal series.  Writing
    f = q1 * exp(2j*pi*w1*x) * (1 + H) (``_monic``), y = f'/f solves
    (1 + H) * y = r with r = f' * exp(-2j*pi*w1*x) / q1, and ``_solve``
    finds it by the recursion y_gamma = r_gamma - sum_j h_j *
    y_(gamma - eta_j) over H's terms (eta_j, h_j), truncated at the
    cutoff and exact below it: H's spectrum is strictly positive, so no
    coefficient depends on one above it.  This is the coefficient of
    f' * (1/f) with 1/f the Neumann series, formed without the inverse,
    whose large coefficients cancel in that product.  No height is
    needed.  At a height s the same recursion runs on the coefficients
    q*exp(-2*pi*w*s), and along every path into gamma the frequencies add
    up to gamma, so each of its coefficients is exp(-2*pi*gamma*s) times
    the formal one: the rescale by exp(2*pi*gamma*s) that a height needs
    returns exactly the coefficient computed here.

    The bound.  f'/f runs on ``Majorized`` sums (see there): H and
    1/q1 with 10 units per coefficient (``_monic``), f' with 5
    (fl(2*pi), its product with w, the complex product), r their
    product, and y the count and majorant of ``_solve``.  f' is
    ``derivative``'s, which drops the terms below PRUNE_TOL of its Wiener
    norm: exact zeros, and a term whose frequency is within about 1e-14
    of 0 relative to the others.  The bound is a rounding bound for that
    f', and such a term is not a rounding.  A coefficient p~ of f'/f with
    majorant M and count r is within gamma_r*A <= gamma_{2r}*M of its
    exact value p, and |p~| <= (1 + gamma_r)*A <= (1 + gamma_{2r})*M.
    Its atom is b = 1j*p/2pi: 1j*p~ is exact, and the quotient by
    fl(2*pi) (a product by fl(1/fl(2*pi))) is within gamma_3.  So

        |b~ - b| <= M/2pi * (gamma_{2r} + gamma_3 * (1 + gamma_{2r}))
                 <= gamma_{2r+3} * M/2pi,

    by (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_{a+b}: K = 2r + 3.  The
    bound is gamma_K * M / fl(2*pi), raised by 1e-12 of itself for its own
    rounding; it is infinite once K*u >= 1.
    """
    if len(f) < 2:
        raise DomainError(
            "a constant or single exponential has no zeros; the log-derivative "
            "expansion does not apply"
        )
    if cutoff <= 0:
        raise DomainError("cutoff must be positive")
    H, shift = _monic(f)
    ld = _solve(H, multiply(majorize(derivative(f), 5), shift), cutoff)

    live = ld.coeffs != 0
    i0 = np.flatnonzero(live & (np.abs(ld.freqs) <= FREQ_TOL))
    p0 = complex(ld.coeffs[i0[0]]) if i0.size else 0j
    d_complex = 1j * p0 / math.pi
    sel = (ld.freqs > FREQ_TOL) & (ld.freqs < cutoff)
    b = 1j * ld.coeffs[sel] / (2.0 * math.pi)
    Ku = (2.0 * ld.rounds + 3.0) * _U
    gamma_K = Ku / (1.0 - Ku) if Ku < 1.0 else math.inf
    bounds = gamma_K * ld.major[sel] / (2.0 * math.pi) * (1.0 + 1e-12)
    return LogderivCoefficients(d=float(d_complex.real), gammas=ld.freqs[sel], masses=b,
                                bounds=bounds, cutoff=float(cutoff))


def logderiv_measure(f: ExpSum, cutoff: float = 10.0) -> CertifiedMeasure:
    """Diffraction atoms from the coefficients of f'/f
    (``logderiv_coefficients``): every coefficient whose atom is above
    ``_ATOM_TOL`` and above its rounding bound, with its conjugate at
    -gamma; the others are rounding noise (``CertifiedMeasure``)."""
    return logderiv_coefficients(f, cutoff).measure()


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
    over |a_n| <= T, the symmetric half-window T = min(-lo, hi) > 0, with
    certified window tails.

    The test function is the Gaussian g(x) = exp(-pi*x^2/sigma^2) at
    sigma = ``POISSON_SIGMA``; its transform is sigma*exp(-pi*sigma^2*t^2)
    under the phi_hat(t) = int phi e^{-2pi i xt} convention.  Both tails
    must stay below 1e-8, else ``InsufficientDataError``, whose message
    says how far to extend the window and the atom list, or that the
    measure carries no atoms, which no extension mends.
    """
    sigma = POISSON_SIGMA
    lo, hi = A.window
    T = min(-lo, hi)
    if T <= 0:
        raise DomainError(f"the window {A.window} must contain 0")
    e = A.expand()
    sel = e[np.abs(e) <= T]

    alpha_hat = math.pi * sigma * sigma
    zero_side = float(sigma * np.sum(np.exp(-alpha_hat * sel ** 2)))
    k1 = max(A.k1, 1)
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

    if max(zero_tail, atom_tail) > _POISSON_TAIL_TOL and not len(mu_hat):
        raise InsufficientDataError(
            f"truncation tails exceed {_POISSON_TAIL_TOL:.1g}: the measure carries no atoms, "
            f"so its atom tail is {atom_tail:.3g} whatever the window, and no longer window "
            "or atom list can mend that")
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
    and a log-log slope over the top decade of the grid, None unless two
    grid points of distinct s there carry mass.  Each s is a spectral
    point: an atom within ``FREQ_TOL`` above s counts at s."""
    g, b = mu_hat.positive()
    mass = np.abs(b)
    table = []
    for s in sorted(float(x) for x in s_grid):
        table.append((s, float(np.sum(mass[g <= s + FREQ_TOL]))))
    ss = np.array([s for s, _ in table])
    ms = np.array([m for _, m in table])
    top = (ss >= ss[-1] / 10.0) & (ms > 0) if ss.size else np.zeros(0, bool)
    kappa = None
    if int(np.sum(top)) >= 2 and np.ptp(np.log(ss[top])) > 0:
        kappa = float(np.polyfit(np.log(ss[top]), np.log(ms[top]), 1)[0])
    return GrowthProfile(m_of_s=table, t3_value=mu_hat.low_band()[2], kappa_fit=kappa)
