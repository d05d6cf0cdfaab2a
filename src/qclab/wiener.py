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
norm; sums and products drop only exact cancellations.  The one
exception is the series engine's working form ``Majorized``, which keeps
a rounding majorant per term and the exact cancellations as ghost terms.
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


@dataclass(frozen=True)
class Majorized(ExpSum):
    """An exponential sum in the series engine's working form: each term
    carries a majorant ``major``, and ``rounds`` is a count r of rounding
    units, such that every coefficient c~ lies within gamma_r * A of its
    exact value c, and A <= (1 + gamma_r) * major.

    Here gamma_k = k*u / (1 - k*u) with u = 2**-53, the exact value is the
    same computation in exact arithmetic on the exact input data (the
    frequencies, merges and truncations are the float run's), and A is
    the path sum: the sum of |t| over the products t of input
    coefficients along every path of the computation into the term.  IEEE
    double arithmetic rounds to nearest and nothing underflows.

    A term whose coefficient is exactly zero is a ghost: a group whose
    members cancelled exactly.  A canonical sum drops it; here it stays,
    so that its majorant reaches its descendants, whose float values lack
    its exact (nonzero, at most gamma_r * A) value.  Ghost products are
    ghosts.  The coefficients merge over the live terms alone, exactly as
    ``_canonical_from_arrays`` merges them, so every live term is the
    canonical sum's term bit for bit; ``canonical`` drops the ghosts.

    The invariant holds by induction over the operations (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, Lemma 3.3:
    (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_{a+b}):

    - Input data x~ within gamma_a of x (``majorize``): A = |x| and
      major = fl|x~| with ``np.abs`` within one ulp, so r = 2a + 2 covers
      1 / ((1 - gamma_a)(1 - 2u)) <= 1 + gamma_{2a+2}.
    - A product of terms (c, A, r) and (d, B, q) rounds once, with
      relative error at most sqrt5*u <= gamma_3 (Brent, Percival and
      Zimmermann, Math. Comp. 76, 2007), and its group sum passes each
      raw term through at most g - 1 additions, g the group size:
      |c~d~ - cd| <= gamma_{r+q} A B, so each raw term errs by at most
      gamma_{r+q+g+2} A B, and so does a ghost pair, whose float term is
      0 and whose exact term is at most gamma_r A B.  The path sums of a
      group add the raw products A B, and the float majorant sums the
      products major_c * major_d in g roundings of nonnegative numbers,
      each of relative error at most u.  Hence r' = r + q + g + 2.
    - A sum rounds each term through at most g - 1 additions:
      r' = max(r, q) + g - 1.  Scaling by a real w is exact for |w| = 1
      (r' = r) and rounds once otherwise (r' = r + 1).

    g is the largest group of the merge over all terms, ghosts included.
    A ghost member joins the group of live terms it chains to by
    ``FREQ_TOL`` gaps: each live group takes the majorant of the whole
    chain over all terms that holds it, which bounds the path sum of the
    live group with any of the chain's ghosts, and a chain without a live
    member is one ghost at its lowest frequency.  The coefficients alone
    merge as if no ghost were there, so a ghost between two live groups
    never joins them.
    """

    major: np.ndarray
    rounds: int

    def canonical(self) -> ExpSum:
        """The canonical sum: the live terms, bit for bit."""
        live = self.coeffs != 0
        return _make(self.freqs[live], self.coeffs[live])


def _majorized(freqs, coeffs, major, rounds: int) -> Majorized:
    f = _make(freqs, coeffs)
    major = np.ascontiguousarray(major, dtype=float)
    major.setflags(write=False)
    return Majorized(f.freqs, f.coeffs, major, int(rounds))


def majorize(f: ExpSum, units: int = 0) -> Majorized:
    """f as input data of the series engine, each coefficient within
    gamma_units (relative) of its exact value."""
    return _majorized(f.freqs, f.coeffs, np.abs(f.coeffs), 2 * units + 2)


def exp_units(x):
    """k with |fl(exp(x~)) / exp(x) - 1| <= gamma_k, where x~ is
    x = 2*pi*w*s computed with three roundings (fl(2*pi) and two products):
    |x~ - x| <= gamma_3 |x|, and exp(y) <= 1 + gamma_j once j*u >= y, so
    j = 3|x| with room for the rounding of x~.  The exp itself is allowed
    10 units: numpy's accuracy test of float64 exp
    (umath-validation-set-exp.csv) holds it to 1 ulp, 2 units, on its test
    points, and 8 more are a margin for its other inputs and kernels,
    which are not proven.  Scalars give an int."""
    k = np.ceil(3.0 * np.abs(x) * (1.0 + 1e-12)) + 10.0
    return int(k) if np.ndim(k) == 0 else k


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
    """The frequency-merge rule: the stable sort order of ``freqs``, the
    sorted frequencies, and which of them start a spectral point (a chain
    of consecutive gaps <= FREQ_TOL is one point)."""
    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    new_group = np.empty(freqs.size, dtype=bool)
    new_group[0] = True
    np.greater(np.diff(freqs), FREQ_TOL, out=new_group[1:])
    return order, freqs, new_group


def _merge_run(freqs, coeffs, new_group, starts):
    """Representative frequency (``_representatives``) and merged
    coefficient of each group of sorted terms."""
    merged = np.add.reduceat(coeffs, starts)
    if starts.size == freqs.size:
        return freqs, merged
    return freqs[_representatives(np.abs(coeffs), new_group, starts)], merged


def _canonical_from_arrays(freqs, coeffs, prune_tol, track=None) -> ExpSum:
    """Merge and prune (frequency, coefficient) arrays into a canonical sum.

    With ``track = (major, live, rounds)`` (prune_tol 0) the result is a
    ``Majorized`` sum instead: ghosts stay, ``major`` (per raw term) is
    summed over the same sort order and groups, ``live`` marks the raw
    terms that are not ghosts (None: all), and the result's count is
    ``rounds`` plus the largest group size.
    """
    freqs, coeffs = np.asarray(freqs, float), np.asarray(coeffs, complex)
    if freqs.size == 0:
        return empty_sum() if track is None else _majorized(
            np.empty(0), np.empty(0, complex), np.empty(0), track[2])
    order, freqs, new_group = _merge_groups(freqs)
    coeffs = coeffs[order]
    starts = np.flatnonzero(new_group)
    if track is not None:
        major, live, rounds = track
        size = freqs.size - starts[-1]
        if starts.size > 1:
            size = max(size, int(np.max(np.diff(starts))))
        return _merge_majorized(freqs, coeffs, np.add.reduceat(major[order], starts),
                                None if live is None or live.all() else live[order],
                                new_group, starts, rounds + size)
    rep_freqs, merged = _merge_run(freqs, coeffs, new_group, starts)
    norm = float(np.sum(np.abs(merged)))
    keep = np.abs(merged) > prune_tol * norm
    return _make(rep_freqs[keep], merged[keep])


def _merge_majorized(freqs, coeffs, major, live, new_group, starts, rounds) -> Majorized:
    """The ``Majorized`` merge of sorted raw terms, given the majorant of
    each chain over all terms (``major``): the coefficients merge over the
    live terms alone, each live group takes its chain's majorant, and a
    chain without a live member is a ghost at its lowest frequency."""
    if live is None:
        rep_freqs, merged = _merge_run(freqs, coeffs, new_group, starts)
        return _majorized(rep_freqs, merged, major, rounds)
    out_f, out_c, out_m = freqs.copy(), np.zeros(freqs.size, complex), np.empty(freqs.size)
    slot = np.zeros(freqs.size, dtype=bool)
    ghost = np.ones(starts.size, dtype=bool)
    if live.any():
        lf, lc = freqs[live], coeffs[live]
        lnew = np.empty(lf.size, dtype=bool)
        lnew[0] = True
        np.greater(np.diff(lf), FREQ_TOL, out=lnew[1:])
        lstarts = np.flatnonzero(lnew)
        at = np.flatnonzero(live)[lstarts]  # sorted position of each live group
        chain = (np.cumsum(new_group) - 1)[at]
        ghost[chain] = False
        out_f[at], out_c[at] = _merge_run(lf, lc, lnew, lstarts)
        out_m[at] = major[chain]
        slot[at] = True
    out_m[starts[ghost]] = major[ghost]
    slot[starts[ghost]] = True
    keep = np.flatnonzero(slot)
    return _majorized(out_f[keep], out_c[keep], out_m[keep], rounds)


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


def _tracked(f: ExpSum, g: ExpSum) -> bool:
    if isinstance(f, Majorized) != isinstance(g, Majorized):
        raise TypeError("a Majorized sum combines only with a Majorized sum")
    return isinstance(f, Majorized)


def add(f: ExpSum, g: ExpSum) -> ExpSum:
    freqs = np.concatenate([f.freqs, g.freqs])
    coeffs = np.concatenate([f.coeffs, g.coeffs])
    if not _tracked(f, g):
        return _canonical_from_arrays(freqs, coeffs, 0.0)
    return _canonical_from_arrays(freqs, coeffs, 0.0, (
        np.concatenate([f.major, g.major]), coeffs != 0, max(f.rounds, g.rounds) - 1))


def scale(f: ExpSum, c) -> ExpSum:
    if isinstance(f, Majorized):
        return _majorized(f.freqs, f.coeffs * complex(c), f.major * abs(c),
                          f.rounds + (abs(c) != 1))
    if c == 0 or len(f) == 0:
        return empty_sum()
    return _make(f.freqs, f.coeffs * complex(c))


def _live(f: ExpSum) -> int:
    """The number of terms of f that are not ghosts, which the capacity
    limits count: those of its canonical sum."""
    return int(np.count_nonzero(f.coeffs)) if isinstance(f, Majorized) else len(f)


def _runs_apart(f: ExpSum, g: ExpSum) -> bool:
    """True if both spectra increase by more than 4 ulps of
    max|f| + max|g| at every step.  Two pairwise sums f_i + g_j and
    f_k + g_l, each rounded by at most half an ulp of that bound, can then
    round to the same float only if i < k and j > l or the reverse: any
    other pair of pairs differs by at least one gap before rounding."""
    room = 4.0 * float(np.spacing(f.max_abs_freq + g.max_abs_freq))
    return all(len(x) < 2 or float(np.min(np.diff(x.freqs))) > room for x in (f, g))


def multiply(f: ExpSum, g: ExpSum, *, keep_freqs_up_to: float | None = None) -> ExpSum:
    """Product in the algebra: all pairwise frequency sums, then canonicalize.

    The Wiener norm is submultiplicative, so the result's norm never
    exceeds the product of the inputs' norms.  ``keep_freqs_up_to``
    drops the pairwise terms above that frequency (by more than
    ``FREQ_TOL``) before they are merged.

    The pairwise terms are laid out row by row of f, or, when
    ``_runs_apart``, column by column of g from its highest frequency
    down.  Each column is then a sorted run, which the stable sort merges
    fast, and it orders the terms as in the row layout: equal sums tie by
    ascending i in the row layout, and by descending j in the columns,
    which is the same order since ``_runs_apart`` leaves only ties with i
    and j in opposite order.  So the merge, and the product, do not depend
    on the layout.
    """
    n, m = len(f), len(g)
    tracked = _tracked(f, g)
    rounds = f.rounds + g.rounds + 2 if tracked else 0
    if n == 0 or m == 0:
        return _majorized(np.empty(0), np.empty(0, complex), np.empty(0),
                          rounds) if tracked else empty_sum()
    raw = _live(f) * _live(g)
    if raw > _WORK_CAP:
        raise CapacityError(
            f"product would create {raw} raw terms, above the workspace cap {_WORK_CAP}"
        )
    if _runs_apart(f, g):
        def pairs(op, a, b):
            return op(a[None, :], b[::-1, None]).ravel()
    else:
        def pairs(op, a, b):
            return op(a[:, None], b[None, :]).ravel()
    freqs = pairs(np.add, f.freqs, g.freqs)
    coeffs = pairs(np.multiply, f.coeffs, g.coeffs)
    major = live = None
    if tracked:
        major = pairs(np.multiply, f.major, g.major)
        live_f, live_g = f.coeffs != 0, g.coeffs != 0
        if not (live_f.all() and live_g.all()):
            live = pairs(np.logical_and, live_f, live_g)
    if keep_freqs_up_to is not None:
        low = freqs <= keep_freqs_up_to + FREQ_TOL
        freqs, coeffs = freqs[low], coeffs[low]
        if tracked:
            major = major[low]
            live = None if live is None else live[low]
    out = _canonical_from_arrays(freqs, coeffs, 0.0, (major, live, rounds) if tracked else None)
    kept = _live(out)
    if kept > MAX_TERMS:
        raise CapacityError(f"product has {kept} terms, above the capacity {MAX_TERMS}")
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

    A ``Majorized`` x gives a ``Majorized`` series: its ghosts ride along
    until the truncation empties the power.
    """
    if len(x) and x.freqs[0] <= 0:
        raise InvalidInputError("a truncated power series needs strictly positive frequencies")
    if not math.isfinite(cutoff):
        raise InvalidInputError("the series cutoff must be finite")
    series = power = constant(1.0)
    if isinstance(x, Majorized):
        series = power = majorize(series)
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
    high-frequency coefficients by large exponentials afterwards.  This
    is the canonical sum of ``_neumann_series``.
    """
    return _neumann_series(f, s, cutoff).canonical()


def _neumann_series(f: ExpSum, s: float, cutoff: float) -> Majorized:
    """``neumann_inverse`` in the series engine's working form, ghosts
    and majorant included.

    Its exact values are those of the exact f: at_height puts
    exp_units(2*pi*w*s) + 1 units on each coefficient, the quotient by q1
    (Smith's algorithm, within 2*gamma_3 + gamma_4 <= gamma_10 of the
    exact quotient's modulus) 10 more, and the error of q1 enters twice
    (|1/(1 + t) - 1| <= gamma_{2k} for |t| <= gamma_k): H has
    e_max + 2*e_1 + 13 units and 1/q1 has 2*e_1 + 12, with e_max and e_1
    the units of the largest |w| and of w1.
    """
    if len(f) == 0:
        raise InvalidInputError("cannot invert the empty sum")
    s = float(s)
    fs = at_height(f, s)
    w1 = float(fs.freqs[0])
    q1 = complex(fs.coeffs[0])
    e_1 = exp_units(2.0 * math.pi * w1 * s)
    shift = majorize(canonicalize([(-w1, 1.0 / q1)]), 2 * e_1 + 12)
    if len(fs) == 1:
        return shift
    H = _make(fs.freqs[1:] - w1, fs.coeffs[1:] / q1)
    hnorm = H.wiener_norm
    if hnorm >= 1.0:
        raise DivergenceError(
            f"||H||_W = {hnorm:.6g} >= 1 at height s = {s:.6g}; use a larger height"
        )
    e_max = exp_units(2.0 * math.pi * f.max_abs_freq * s)
    series = _power_series(majorize(H, e_max + 2 * e_1 + 13), lambda j: -1.0, cutoff)
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
