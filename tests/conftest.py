import itertools
import math

import numpy as np
import pytest

from qclab.wiener import canonicalize, multiply
from qclab.zeros import ZeroSet

SQRT2 = np.sqrt(2.0)


def lattice_points(offset, spacing, half):
    """Points k*spacing + offset inside [-half, half]."""
    n = int(np.ceil((half + abs(offset)) / spacing)) + 2
    ks = np.arange(-n, n + 1)
    pts = ks * spacing + offset
    return np.sort(pts[(pts >= -half) & (pts <= half)])


def lattice_zeroset(offset, spacing, half):
    pts = lattice_points(offset, spacing, half)
    return ZeroSet((-half, half), pts, np.ones(pts.size, np.int64))


def union_zeroset(half):
    """Zeros of cos(pi z) * cos(sqrt2 pi z): the union of Z+1/2 and (Z+1/2)/sqrt2."""
    pts = np.sort(np.concatenate([
        lattice_points(0.5, 1.0, half),
        lattice_points(0.5 / SQRT2, 1.0 / SQRT2, half),
    ]))
    return ZeroSet((-half, half), pts, np.ones(pts.size, np.int64))


def cos_sum(freq=0.5):
    """cos(2*pi*freq*z) as an exponential sum; freq=0.5 gives cos(pi z)."""
    return canonicalize([(-freq, 0.5), (freq, 0.5)])


def union_sum():
    return multiply(cos_sum(0.5), cos_sum(SQRT2 / 2.0))


def lattice_measure(K=10, d=1.0):
    """Exact diffraction of Z+1/2 truncated at |gamma| <= K: b_k = (-1)^k."""
    from qclab.diffraction import PointMeasure
    ks = np.arange(1, K + 1, dtype=float)
    b = (-1.0 + 0j) ** ks
    return PointMeasure(d=d, gammas=np.concatenate([-ks[::-1], ks]),
                        masses=np.concatenate([np.conj(b[::-1]), b]))


def lee_yang_rows(n, seed):
    """The Lee-Yang sum det(I - U diag(e^{2 pi i a_j z})), a = (1, sqrt2,
    sqrt3, sqrt5)[:n], U a unitary drawn from the seed: expanded by
    principal minors, shifted by -sum(a)/2 and divided by
    sqrt((-1)^n det U), so that it is Hermitian with only real zeros.
    Rows (omega, re, im) as floats, the fields of the CSV input."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    a = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)])[:n]
    norm = np.sqrt((-1) ** n * np.linalg.det(U))
    rows = []
    for chosen in itertools.product((0, 1), repeat=n):
        idx = np.flatnonzero(chosen)
        minor = np.linalg.det(U[np.ix_(idx, idx)]) if idx.size else 1.0
        c = complex((-1) ** idx.size * minor / norm)
        rows.append((float(np.sum(a[idx]) - np.sum(a) / 2), c.real, c.imag))
    return sorted(rows)


@pytest.fixture(scope="session")
def cos():
    return cos_sum()


@pytest.fixture(scope="session")
def funion():
    return union_sum()


@pytest.fixture(scope="session")
def lat500():
    return lattice_zeroset(0.5, 1.0, 500)


@pytest.fixture(scope="session")
def uni500():
    return union_zeroset(500)


@pytest.fixture(scope="session")
def lat2100():
    return lattice_zeroset(0.5, 1.0, 2100)


@pytest.fixture(scope="session")
def uni2100():
    return union_zeroset(2100)
