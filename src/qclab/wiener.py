"""Arithmetic in the algebra of absolutely convergent exponential sums.

An exponential sum is a finite list of terms ``q * exp(2j*pi*omega*z)``
stored as parallel arrays of frequencies (cycles per unit length) and
complex coefficients.  The Wiener norm ``sum(|q|)`` turns these sums into
a normed algebra: sums, products, Neumann inverses and exponentials stay
inside the class, which is what the zero-counting and reconstruction
modules rely on.

Every sum, product and series runs in one form, ``Majorized``, which
keeps a rounding majorant per term and the exact cancellations as ghost
terms, through one frequency merge (``_merge``): frequencies strictly
increasing, and each chain of frequencies closer than ``FREQ_TOL``,
ghosts included, merged into one term.  A call on plain sums returns
the canonical sum, which drops the ghosts.
``canonicalize`` and ``derivative`` also drop coefficients below
``PRUNE_TOL`` times the Wiener norm.

Division by ``f = q1 * exp(2j*pi*w1*x) * (1 + H)`` is one triangular
solve (``_solve``): H's spectrum is strictly positive, so the
coefficients of y with (1 + H) * y = r follow band by band in
increasing frequency, each from the bands already solved.  The
exponential of a sum G of strictly positive spectrum is the same solve
from 1, with the weights of E' = G' * E: one series engine runs the
Neumann inverse, f'/f and exp.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError

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
    ghosts; ``canonical`` drops the ghosts.

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

    g is the largest group of the merge, ghosts included.  A ghost
    merges as a term of coefficient 0: it adds an exact 0 to its group's
    coefficient and its majorant to the group's.  So the float run merges
    the same groups as the exact computation, whose ghosts are nonzero,
    and a group of ghosts alone is a ghost.
    """

    major: np.ndarray
    rounds: int

    def canonical(self) -> ExpSum:
        """The canonical sum: the terms that are not ghosts."""
        kept = self.coeffs != 0
        return _make(self.freqs[kept], self.coeffs[kept])


def _majorized(freqs, coeffs, major, rounds: int) -> Majorized:
    f = _make(freqs, coeffs)
    major = np.ascontiguousarray(major, dtype=float)
    major.setflags(write=False)
    return Majorized(f.freqs, f.coeffs, major, int(rounds))


def majorize(f: ExpSum, units: int = 0) -> Majorized:
    """f as input data of the series engine, each coefficient within
    gamma_units (relative) of its exact value."""
    return _majorized(f.freqs, f.coeffs, np.abs(f.coeffs), 2 * units + 2)


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


def _group_starts(freqs):
    """The frequency-merge rule: which of the sorted ``freqs`` start a
    spectral point (a chain of consecutive gaps <= FREQ_TOL is one point)."""
    new_group = np.empty(freqs.size, dtype=bool)
    new_group[0] = True
    np.greater(np.diff(freqs), FREQ_TOL, out=new_group[1:])
    return new_group


def _merge_groups(freqs):
    """The stable sort order of ``freqs``, the sorted frequencies, and ``_group_starts``."""
    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    return order, freqs, _group_starts(freqs)


def _merge(freqs, coeffs, major, rounds) -> Majorized:
    """The ``Majorized`` merge of raw (frequency, coefficient) terms: each
    chain of the merge rule (``_group_starts``), ghosts included, is one
    term at its ``_representatives`` pick, with the sum of its members'
    coefficients (a ghost adds an exact 0) and of their majorants
    ``major``.  A chain of ghosts alone is a ghost at its lowest
    frequency.  The result's count is ``rounds`` plus the largest chain.
    """
    if freqs.size == 0:
        return _majorized(np.empty(0), np.empty(0, complex), np.empty(0), rounds)
    order, freqs, new_group = _merge_groups(freqs)
    coeffs = coeffs[order]
    starts = np.flatnonzero(new_group)
    rounds += int(np.max(np.diff(starts, append=freqs.size)))
    if starts.size < freqs.size:
        freqs = freqs[_representatives(np.abs(coeffs), new_group, starts)]
    return _majorized(freqs, np.add.reduceat(coeffs, starts),
                      np.add.reduceat(major[order], starts), rounds)


def _canonical_from_arrays(freqs, coeffs, prune_tol) -> ExpSum:
    """The canonical sum of (frequency, coefficient) arrays: ``_merge``,
    then the coefficients at most ``prune_tol`` times the Wiener norm
    dropped."""
    merged = _merge(freqs, coeffs, np.abs(coeffs), 0)
    mag = np.abs(merged.coeffs)
    keep = mag > prune_tol * float(np.sum(mag))
    return _make(merged.freqs[keep], merged.coeffs[keep])


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


def _plain_or_majorized(op):
    """``op``, written for ``Majorized`` sums, on plain sums too: each
    plain operand enters as ``majorize`` of it, and the result leaves as
    its canonical sum.  A plain and a ``Majorized`` operand do not mix."""
    @functools.wraps(op)
    def run(*args, **kwargs):
        sums = [a for a in (*args, *kwargs.values()) if isinstance(a, ExpSum)]
        tracked = {isinstance(a, Majorized) for a in sums}
        if tracked == {True}:
            return op(*args, **kwargs)
        if True in tracked:
            raise TypeError("a Majorized sum combines only with a Majorized sum")
        args = [majorize(a) if isinstance(a, ExpSum) else a for a in args]
        kwargs = {k: majorize(a) if isinstance(a, ExpSum) else a for k, a in kwargs.items()}
        return op(*args, **kwargs).canonical()
    return run


@_plain_or_majorized
def add(f: ExpSum, g: ExpSum) -> ExpSum:
    return _merge(np.concatenate([f.freqs, g.freqs]), np.concatenate([f.coeffs, g.coeffs]),
                  np.concatenate([f.major, g.major]), max(f.rounds, g.rounds) - 1)


@_plain_or_majorized
def scale(f: ExpSum, c) -> ExpSum:
    return _majorized(f.freqs, f.coeffs * complex(c), f.major * abs(c),
                      f.rounds + (abs(c) != 1))


@_plain_or_majorized
def multiply(f: ExpSum, g: ExpSum, *, keep_freqs_up_to: float | None = None) -> ExpSum:
    """Product in the algebra: all pairwise frequency sums, then merged.

    The Wiener norm is submultiplicative, so the result's norm never
    exceeds the product of the inputs' norms.  ``keep_freqs_up_to``
    drops the pairwise terms above that frequency (by more than
    ``FREQ_TOL``) before they are merged.  Ghosts count toward neither
    capacity limit.
    """
    raw = int(np.count_nonzero(f.coeffs)) * int(np.count_nonzero(g.coeffs))
    if raw > _WORK_CAP:
        raise CapacityError(
            f"product would create {raw} raw terms, above the workspace cap {_WORK_CAP}"
        )
    # broadcast rows, not np.multiply.outer, which rounds a 1-by-1 complex
    # product in another loop, an ulp apart
    terms = [op(x[:, None], y[None, :]).ravel() for op, x, y in (
        (np.add, f.freqs, g.freqs), (np.multiply, f.coeffs, g.coeffs),
        (np.multiply, f.major, g.major))]
    if keep_freqs_up_to is not None:
        low = terms[0] <= keep_freqs_up_to + FREQ_TOL
        terms = [x[low] for x in terms]
    out = _merge(*terms, f.rounds + g.rounds + 2)
    kept = int(np.count_nonzero(out.coeffs))
    if kept > MAX_TERMS:
        raise CapacityError(f"product has {kept} terms, above the capacity {MAX_TERMS}")
    return out


def derivative(f: ExpSum) -> ExpSum:
    """Term-wise derivative ``q -> 2j*pi*omega*q``."""
    return _canonical_from_arrays(f.freqs, f.coeffs * (2j * np.pi * f.freqs), PRUNE_TOL)


def is_hermitian(f: ExpSum) -> bool:
    """True if terms pair omega <-> -omega with conjugate coefficients, to
    1e-12 of max(1, ||f||_W)."""
    if len(f) == 0:
        return True
    if np.max(np.abs(f.freqs + f.freqs[::-1])) > FREQ_TOL:
        return False
    defect = np.max(np.abs(f.coeffs - np.conj(f.coeffs[::-1])))
    return bool(defect <= 1e-12 * max(1.0, f.wiener_norm))


def neumann_inverse(f: ExpSum, cutoff: float) -> ExpSum:
    """Inverse of f as an exponential sum, exact at the frequencies up to
    ``cutoff - w1``: the canonical sum of ``_neumann_series``."""
    if len(f) == 0:
        raise InvalidInputError("cannot invert the empty sum")
    return _neumann_series(f, cutoff).canonical()


def _monic(f: ExpSum) -> tuple[Majorized, Majorized]:
    """H and exp(-2j*pi*w1*x)/q1 with ``f = q1 * exp(2j*pi*w1*x) * (1 + H)``,
    w1 the lowest frequency of f, in the series engine's working form.

    Their exact values are those of the exact f, whose coefficients are
    input data: the quotients by q1 (Smith's algorithm, within 2*gamma_3 +
    gamma_4 <= gamma_10 of the exact quotient's modulus) put 10 units on H
    and on 1/q1.  f must not be empty.
    """
    w1, q1 = float(f.freqs[0]), complex(f.coeffs[0])
    H = _make(f.freqs[1:] - w1, f.coeffs[1:] / q1)
    return majorize(H, 10), majorize(canonicalize([(-w1, 1.0 / q1)]), 10)


def _neumann_series(f: ExpSum, cutoff: float) -> Majorized:
    """The inverse of f, truncated at the frequencies up to ``cutoff - w1``,
    in the series engine's working form, ghosts and majorant included:
    ``_solve`` of (1 + H) * y = 1 (``_monic``), shifted by
    exp(-2j*pi*w1*x)/q1.  The spectrum of H is strictly positive, so
    every term up to the cutoff is the formal (exact) coefficient of the
    Neumann series ``sum (-H)^j``, however small, whatever ||H||_W is.
    f must not be empty.
    """
    H, shift = _monic(f)
    return multiply(_solve(H, majorize(constant(1.0)), cutoff), shift)


def _solve(H: Majorized, r: Majorized, cutoff: float, *, exp: bool = False) -> Majorized:
    """The y with (1 + H) * y = r at the frequencies up to ``cutoff``, in
    the series engine's working form: y_gamma = r_gamma - sum_j h_j *
    y_(gamma - eta_j), with (eta_j, h_j) the terms of H.  With ``exp``, H
    is a sum G of terms (eta_j, g_j), r is 1 and y is exp(G): E' = G' * E
    gives gamma * y_gamma = sum_j eta_j * g_j * y_(gamma - eta_j) (Brent
    and Kung, J. ACM 25, 1978), the same recursion with the weight
    eta_j * g_j in place of -h_j, and each merged term of a band above 0
    divided by its frequency.

    The spectrum of H must be strictly positive, from eta = H's lowest
    frequency.  The recursion then runs in bands of width at most eta:
    every raw term h_j * y_a of a band comes from a y_a of a band already
    solved.  Each band takes the pending raw terms (r's, and the products
    of the bands before it) below ``lo + eta``, lo the lowest pending
    frequency, which are all that will ever reach there, and ends at the
    last ``FREQ_TOL`` chain that stays 2 ``FREQ_TOL`` below that edge,
    so no chain is split across a band edge.  ``_merge`` merges the band,
    ghosts included; its products with H, those at most
    ``cutoff`` (by up to ``FREQ_TOL``), join the pending terms.  The
    ``_solve`` of r is the formal (1 + H)^-1 * r up to the cutoff: the
    truncation drops only terms above it, whose products lie higher.

    The bound, by induction over the bands, with the ``Majorized``
    invariant and Higham's (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_{a+b}.
    Let R be the largest count of the bands solved so far and q the
    count of the weights w_j: H's for w_j = -h_j, as negation is exact,
    and G's + 1 for w_j = eta_j * g_j, a product by the real eta_j that
    rounds each part once, as does its majorant eta_j * major_j.  A raw
    product w_j * y_a rounds once, within sqrt5*u <= gamma_3, so it is
    within gamma_{q+R+3} of w_j * y_a's exact value times the path sum
    |w_j| * A_a, and so is a ghost product, whose float term is 0.  A
    term of r is within gamma_{r.rounds} of its own.  The group sum
    passes each raw term through at most g - 1 additions, g the band's
    largest chain, and the path sum A_gamma = A(r_gamma) + sum |w_j| *
    A_a adds the raw path sums, while the float majorant major = |r| +
    sum |w_j| * major_a sums the product majorants (one rounding each)
    in at most g roundings of nonnegative numbers.  So the band's count
    is max(r.rounds - 1, q + R + 2) + g.  The exponential divides a band
    term above 0 by fl(gamma), its float frequency: numpy divides a
    complex number by a real one as the product by fl(1 / fl(gamma)),
    within gamma_2, and the majorant's quotient rounds once, so the
    quotient, whose path sum is A_gamma / fl(gamma), adds 2 to the
    count.  The result carries the last band's count, the largest.

    The exact value that the bound covers divides by fl(gamma), as the
    frequencies are the float run's (``Majorized``).  The formal
    exponential divides by the exact frequency, the sum of the exact
    eta_j along a path; fl(gamma) is a float sum of at most cutoff / eta
    + 1 positive frequencies, within gamma_(cutoff/eta) of it, and a
    ``FREQ_TOL`` chain that merges distinct exact frequencies divides
    their sum by one of them.  That is an error of the frequency model,
    as the merge itself is, and the bound leaves it out.

    Capacity: a band whose live products with the live terms of H exceed
    ``_WORK_CAP``, or a result above ``MAX_TERMS`` live terms, raises
    ``CapacityError``; ghosts count toward neither.
    """
    if len(H) and H.freqs[0] <= 0:
        raise InvalidInputError("a triangular solve needs H with a strictly positive spectrum")
    if not math.isfinite(cutoff):
        raise InvalidInputError("the series cutoff must be finite")
    top = cutoff + FREQ_TOL
    low = r.freqs <= top
    pending = [r.freqs[low], r.coeffs[low], r.major[low]]
    eta = float(H.freqs[0]) if len(H) else math.inf
    n_live_h = int(np.count_nonzero(H.coeffs))
    if exp:
        w, w_major, q = H.freqs * H.coeffs, H.freqs * H.major, H.rounds + 1
    else:
        w, w_major, q = -H.coeffs, H.major, H.rounds
    bands, rounds, kept = [], None, 0
    while pending[0].size:
        reach = float(np.min(pending[0])) + eta
        ready = np.flatnonzero(pending[0] < reach)
        order = ready[np.argsort(pending[0][ready], kind="stable")]
        sorted_f = pending[0][order]
        new_group = _group_starts(sorted_f)
        cut = int(np.searchsorted(sorted_f, reach - 2.0 * FREQ_TOL))
        if cut < sorted_f.size:
            cut = int(np.flatnonzero(new_group[:cut + 1])[-1])
        if cut == 0:
            raise InvalidInputError(
                f"a FREQ_TOL chain spans H's lowest frequency {eta:.6g}; "
                "the recursion has no band to solve")
        band = order[:cut]
        base = r.rounds - 1 if rounds is None else max(r.rounds - 1, q + rounds + 2)
        y = _merge(*(x[band] for x in pending), base)
        if exp and bands:
            y = _majorized(y.freqs, y.coeffs / y.freqs, y.major / y.freqs, y.rounds + 2)
        rest = np.ones(pending[0].size, dtype=bool)
        rest[band] = False
        pending = [x[rest] for x in pending]
        rounds = y.rounds
        bands.append(y)
        n_live_y = int(np.count_nonzero(y.coeffs))
        kept += n_live_y
        if kept > MAX_TERMS:
            raise CapacityError(f"the solve has {kept} terms, above the capacity {MAX_TERMS}")
        if n_live_y * n_live_h > _WORK_CAP:
            raise CapacityError(
                f"a band would create {n_live_y * n_live_h} raw terms, "
                f"above the workspace cap {_WORK_CAP}")
        prods = [np.add.outer(y.freqs, H.freqs).ravel(),
                 np.multiply.outer(y.coeffs, w).ravel(),
                 np.multiply.outer(y.major, w_major).ravel()]
        low = prods[0] <= top
        pending = [np.concatenate([x, p[low]]) for x, p in zip(pending, prods)]
    if not bands:
        return _merge(*pending, r.rounds - 1)
    return _majorized(*(np.concatenate([getattr(y, k) for y in bands])
                        for k in ("freqs", "coeffs", "major")), rounds)


@_plain_or_majorized
def exp_series(g: ExpSum, cutoff: float) -> ExpSum:
    """Exponential of g, truncated at the frequency ``cutoff``: ``_solve``'s
    recursion of exp(g) from 1; g needs a strictly positive spectrum.

    Every coefficient up to the cutoff receives all of its contributions,
    however small, so each is the formal coefficient of ``sum g^k / k!``.
    """
    return _solve(g, majorize(constant(1.0)), cutoff, exp=True)
