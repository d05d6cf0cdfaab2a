"""Arithmetic in the algebra of absolutely convergent exponential sums.

An exponential sum is a finite list of terms ``q * exp(2j*pi*omega*z)``
stored as parallel arrays of frequencies (cycles per unit length) and
complex coefficients.  The Wiener norm ``sum(|q|)`` turns these sums into
a normed algebra: sums, products, Neumann inverses and exponentials stay
inside the class, which is what the zero-counting and reconstruction
modules rely on.

All operations return canonical sums: frequencies strictly increasing
and frequencies closer than ``FREQ_TOL`` merged.  ``canonicalize`` and
``derivative`` drop coefficients below ``PRUNE_TOL`` times the Wiener
norm; sums and products drop only exact cancellations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DivergenceError, InvalidInputError

FREQ_TOL = 1e-9           # frequencies closer than this are one spectral point
PRUNE_TOL = 1e-14         # relative to the Wiener norm
MAX_TERMS = 200_000       # algebra capacity: terms of one product
_WORK_CAP = 40_000_000    # pairwise-product workspace limit (complex entries)
_EXP_BUDGET = 1_000_000   # _exp_rows buffer, one block of rows (complex entries)


@dataclass(frozen=True)
class ExpSum:
    """Canonical exponential sum: sorted frequencies, pruned coefficients."""

    freqs: np.ndarray
    coeffs: np.ndarray

    def __len__(self) -> int:
        return self.freqs.size

    @property
    def wiener_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    @property
    def max_abs_freq(self) -> float:
        return float(np.max(np.abs(self.freqs))) if len(self) else 0.0

    def terms(self) -> list[tuple[float, complex]]:
        return [(float(w), complex(q)) for w, q in zip(self.freqs, self.coeffs)]


def _make(freqs: np.ndarray, coeffs: np.ndarray) -> ExpSum:
    """Wrap arrays that are already canonical without re-sorting."""
    freqs = np.ascontiguousarray(freqs, dtype=float)
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    freqs.setflags(write=False)
    coeffs.setflags(write=False)
    return ExpSum(freqs, coeffs)


def empty_sum() -> ExpSum:
    return _make(np.empty(0), np.empty(0, complex))


def _representatives(mag, new_group, starts):
    """Index of each group's representative: the member of largest
    ``mag``, ties going to the first (lowest frequency), with nan below
    every number, as a stable sort on -mag would order them.  One linear
    pass: the group maximum, then the first member that attains it."""
    key = np.where(np.isnan(mag), -1.0, mag)  # magnitudes are >= 0
    group = np.cumsum(new_group) - 1
    hit = np.flatnonzero(key == np.maximum.reduceat(key, starts)[group])
    first = np.empty(hit.size, dtype=bool)
    first[0] = True
    np.not_equal(group[hit[1:]], group[hit[:-1]], out=first[1:])
    return hit[first]


def _merge_groups(freqs):
    """The frequency-merge rule: the stable sort order of ``freqs``, and
    which of the sorted frequencies start a spectral point (a chain of
    consecutive gaps <= FREQ_TOL is one point)."""
    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    new_group = np.empty(freqs.size, dtype=bool)
    new_group[0] = True
    np.greater(np.diff(freqs), FREQ_TOL, out=new_group[1:])
    return order, new_group


def _canonical_from_arrays(freqs, coeffs, prune_tol) -> ExpSum:
    """Merge and prune (frequency, coefficient) arrays into a canonical sum."""
    freqs, coeffs = np.asarray(freqs, float), np.asarray(coeffs, complex)
    if freqs.size == 0:
        return empty_sum()
    order, new_group = _merge_groups(freqs)
    freqs = freqs[order]
    coeffs = coeffs[order]
    starts = np.flatnonzero(new_group)
    merged = np.add.reduceat(coeffs, starts)
    rep_freqs = freqs if starts.size == freqs.size else freqs[_representatives(
        np.abs(coeffs), new_group, starts)]
    norm = float(np.sum(np.abs(merged)))
    keep = np.abs(merged) > prune_tol * norm
    return _make(rep_freqs[keep], merged[keep])


def canonicalize(terms, prune_tol: float = PRUNE_TOL) -> ExpSum:
    """Build a canonical ExpSum from (frequency, coefficient) pairs.

    Frequencies within ``FREQ_TOL`` of each other are merged by adding
    coefficients; coefficients smaller than ``prune_tol`` times the Wiener
    norm are dropped.  Idempotent.
    """
    if isinstance(terms, ExpSum):
        freqs, coeffs = np.asarray(terms.freqs, float), np.asarray(terms.coeffs, complex)
    else:
        pairs = list(terms)
        if not pairs:
            return empty_sum()
        freqs = np.array([p[0] for p in pairs], dtype=float)
        coeffs = np.array([p[1] for p in pairs], dtype=complex)
    if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(coeffs))):
        raise InvalidInputError("frequencies and coefficients must be finite")
    return _canonical_from_arrays(freqs, coeffs, prune_tol)


def constant(c) -> ExpSum:
    return canonicalize([(0.0, c)])


def _exp_rows(points, freqs, reduce):
    """``reduce(E)`` joined along its last axis, the rows of
    E = exp(2j*pi*outer(points, freqs)), formed in blocks of rows on the
    calling thread.  One buffer of ``_EXP_BUDGET`` entries plus a row
    holds each block's phases and then, in place, its E, so ``reduce``
    must return a new array, not a view of E.  numpy's matrix-vector
    product rounds a lone row differently, so a one-row last block joins
    the one before and a one-point call is padded to two rows.  With a
    row-wise ``reduce`` a point's value is then bit-identical whatever
    else is in the call, for any budget.
    """
    if len(points) == 1:
        return _exp_rows(np.repeat(points, 2), freqs, reduce)[..., :1]
    rows = max(2, _EXP_BUDGET // max(len(freqs), 1))
    bounds = (list(range(0, len(points) - 1, rows)) or [0]) + [len(points)]
    buf = np.empty((min(rows + 1, len(points)), len(freqs)), complex)
    out = []
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            x = buf[:hi - lo]
            np.multiply(points[lo:hi, None], freqs, out=x)  # np.outer
            np.multiply(2j * np.pi, x, out=x)
            out.append(reduce(np.exp(x, out=x)))
    return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)  # no copy of one block


def evaluate(f: ExpSum, z):
    """Evaluate ``sum(q * exp(2j*pi*omega*z))`` at a scalar or array ``z`` by ``_exp_rows``."""
    zarr = np.asarray(z, dtype=complex)
    scalar = zarr.ndim == 0
    out = _exp_rows(np.atleast_1d(zarr).ravel(), f.freqs, lambda E: E @ f.coeffs)
    if not np.all(np.isfinite(out)):
        raise OverflowError("exponential sum overflowed; reduce |Im z|")
    if scalar:
        return complex(out[0])
    return out.reshape(np.atleast_1d(zarr).shape)


def add(f: ExpSum, g: ExpSum) -> ExpSum:
    return _canonical_from_arrays(
        np.concatenate([f.freqs, g.freqs]), np.concatenate([f.coeffs, g.coeffs]), 0.0)


def scale(f: ExpSum, c) -> ExpSum:
    if c == 0 or len(f) == 0:
        return empty_sum()
    return _make(f.freqs, f.coeffs * complex(c))


def multiply(f: ExpSum, g: ExpSum, *, keep_freqs_up_to: float | None = None) -> ExpSum:
    """Product in the algebra: all pairwise frequency sums, then canonicalize.

    The Wiener norm is submultiplicative, so the result's norm never
    exceeds the product of the inputs' norms.  ``keep_freqs_up_to``
    drops the pairwise terms above that frequency (by more than
    ``FREQ_TOL``) before they are merged.
    """
    n, m = len(f), len(g)
    if n == 0 or m == 0:
        return empty_sum()
    if n * m > _WORK_CAP:
        raise CapacityError(
            f"product would create {n * m} raw terms, above the workspace cap {_WORK_CAP}"
        )
    freqs = (f.freqs[:, None] + g.freqs[None, :]).ravel()
    coeffs = (f.coeffs[:, None] * g.coeffs[None, :]).ravel()
    if keep_freqs_up_to is not None:
        low = freqs <= keep_freqs_up_to + FREQ_TOL
        freqs, coeffs = freqs[low], coeffs[low]
    out = _canonical_from_arrays(freqs, coeffs, 0.0)
    if len(out) > MAX_TERMS:
        raise CapacityError(f"product has {len(out)} terms, above the capacity {MAX_TERMS}")
    return out


def derivative(f: ExpSum) -> ExpSum:
    """Term-wise derivative ``q -> 2j*pi*omega*q``."""
    if len(f) == 0:
        return empty_sum()
    return _canonical_from_arrays(f.freqs, f.coeffs * (2j * np.pi * f.freqs), PRUNE_TOL)


def at_height(f: ExpSum, s: float) -> ExpSum:
    """The sum representing ``x -> f(x + 1j*s)``: ``q -> q * exp(-2*pi*omega*s)``.

    Exact term map, no pruning, so heights compose exactly.
    """
    if len(f) == 0:
        return empty_sum()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        coeffs = f.coeffs * np.exp(-2.0 * np.pi * f.freqs * float(s))
    if not np.all(np.isfinite(coeffs)):
        raise OverflowError("at_height overflowed; height times frequency too large")
    return _make(f.freqs, coeffs)


def is_hermitian(f: ExpSum) -> bool:
    """True if terms pair omega <-> -omega with conjugate coefficients, to
    1e-12 of max(1, ||f||_W)."""
    if len(f) == 0:
        return True
    if np.max(np.abs(f.freqs + f.freqs[::-1])) > FREQ_TOL:
        return False
    defect = np.max(np.abs(f.coeffs - np.conj(f.coeffs[::-1])))
    return bool(defect <= 1e-12 * max(1.0, f.wiener_norm))


def choose_height(f: ExpSum) -> float:
    """Height selection for the Neumann inverse.

    The smallest height s >= 0 with
    ``exp(-2*pi*(w2-w1)*s) * sum_{n>=2} |q_n/q_1| < 1/3``, frequencies
    sorted.  Every gap from w1 is at least w2 - w1, so this forces
    ``||H||_W < 1/3``.
    """
    if len(f) == 0:
        raise InvalidInputError("cannot choose a height for the empty sum")
    if len(f) == 1:
        return 0.0
    R = float(np.sum(np.abs(f.coeffs[1:]) / abs(f.coeffs[0])))
    if R < 1.0 / 3.0:
        return 0.0
    delta = float(f.freqs[1] - f.freqs[0])
    s = math.log(3.0 * R) / (2.0 * math.pi * delta)
    return s * (1.0 + 1e-9) + 1e-12


def _power_series(x: ExpSum, weight, cutoff: float) -> ExpSum:
    """``sum_k c_k * x^k`` with ``c_0 = 1`` and ``c_k = weight(k) * c_{k-1}``,
    pruning-free and truncated at the frequency ``cutoff``.

    The spectrum of x must be strictly positive.  Powers then only move
    up, so a dropped term can never feed a kept one: the terms at or
    below the cutoff are exact, and the truncated power is empty once k
    times the smallest frequency passes the cutoff.
    """
    if len(x) and x.freqs[0] <= 0:
        raise InvalidInputError("a truncated power series needs strictly positive frequencies")
    if not math.isfinite(cutoff):
        raise InvalidInputError("the series cutoff must be finite")
    series = constant(1.0)
    power = constant(1.0)
    k = 0
    while len(power):
        k += 1
        power = scale(multiply(power, x, keep_freqs_up_to=cutoff), weight(k))
        series = add(series, power)
    return series


def neumann_inverse(f: ExpSum, s: float, cutoff: float) -> ExpSum:
    """Inverse of ``x -> f(x + 1j*s)`` as an exponential sum in x, exact
    at the frequencies up to ``cutoff - w1``.

    Writes ``f(x+1j*s) = q1 * exp(2j*pi*w1*x) * (1 + H(x))`` with
    ``w1 = inf`` of the spectrum and expands ``(1+H)^{-1}`` as the Neumann
    series ``sum (-H)^j`` truncated at ``cutoff``.  Every term up to the
    cutoff is kept however small: the diffraction extraction rescales
    high-frequency coefficients by large exponentials afterwards.
    """
    if len(f) == 0:
        raise InvalidInputError("cannot invert the empty sum")
    s = float(s)
    fs = at_height(f, s)
    w1 = float(fs.freqs[0])
    q1 = complex(fs.coeffs[0])
    if len(fs) == 1:
        return canonicalize([(-w1, 1.0 / q1)])
    H = _make(fs.freqs[1:] - w1, fs.coeffs[1:] / q1)
    hnorm = H.wiener_norm
    if hnorm >= 1.0:
        raise DivergenceError(
            f"||H||_W = {hnorm:.6g} >= 1 at height s = {s:.6g}; use a larger height"
        )
    series = _power_series(H, lambda j: -1.0, cutoff)
    shift = canonicalize([(-w1, 1.0 / q1)])
    return multiply(series, shift)


def exp_series(g: ExpSum, cutoff: float) -> ExpSum:
    """Exponential via the power series ``sum g^k / k!`` in the algebra,
    truncated at the frequency ``cutoff``; g needs a strictly positive
    spectrum.

    Every coefficient up to the cutoff receives all of its power-series
    contributions, however small.  Callers that rescale coefficients by
    growing exponentials need the cancellations below the cutoff to be
    complete.
    """
    return _power_series(g, lambda k: 1.0 / k, cutoff)
