"""CSV file formats for exponential sums, zero sets and point measures.

Headers are exact: ``omega,re,im`` for sums, ``point,multiplicity`` for
zero sets (window in a JSON sidecar next to the CSV), ``gamma,re,im``
for measures with the gamma = 0 row carrying the density.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .diffraction import PointMeasure
from .errors import InvalidInputError, ParseError
from .wiener import FREQ_TOL, ExpSum, canonicalize
from .zeros import ZeroSet

EXPSUM_HEADER = ["omega", "re", "im"]
ZEROSET_HEADER = ["point", "multiplicity"]
MEASURE_HEADER = ["gamma", "re", "im"]


def _decode(data: bytes, path) -> str:
    """``data`` as UTF-8 text less a leading byte-order mark; a byte that
    is not UTF-8 is a ParseError naming its line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        body = data.removeprefix(codecs.BOM_UTF8)  # the decoder's offsets skip the mark
        raise ParseError(f"byte {body[exc.start]:#04x} is not UTF-8", path=path,
                         line=body.count(b"\n", 0, exc.start) + 1) from None


def _read_rows(path, header):
    path = Path(path)
    text = _decode(path.read_bytes(), path)
    rows = list(csv.reader(text.splitlines()))
    if not rows or [c.strip() for c in rows[0]] != header:
        raise ParseError(f"expected header {','.join(header)!r}", path=path, line=1)
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                             path=path, line=i)
        try:
            vals = [float(c) for c in row]
        except ValueError:
            raise ParseError(f"non-numeric field in {row!r}", path=path, line=i) from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError("non-finite value", path=path, line=i)
        out.append((i, vals))
    return out


def read_expsum(path) -> ExpSum:
    rows = _read_rows(path, EXPSUM_HEADER)
    return canonicalize([(w, re + 1j * im) for _, (w, re, im) in rows])


def _write_rows(path, header, columns) -> None:
    """The header and one line per row of ``columns`` (lists of Python
    numbers), byte for byte as csv.writer writes their reprs: separated
    by commas, each line ended by CRLF.  No repr holds a character that
    csv would quote."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*columns)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_expsum(f: ExpSum, path) -> None:
    _write_rows(path, EXPSUM_HEADER,
                (f.freqs.tolist(), f.coeffs.real.tolist(), f.coeffs.imag.tolist()))


def _zeroset_table(path) -> np.ndarray | None:
    """The rows (point, multiplicity) of a zero-set CSV from one np.loadtxt
    call, checked as whole arrays; None where anything fails, so that the
    row parser can name the error and its line.  Text that is not UTF-8
    is a ParseError here already.

    np.loadtxt parses a field to the same float as float(), but accepts
    nan and overflowing values as inf, so finiteness is checked here.
    """
    lines = _decode(Path(path).read_bytes(), path).splitlines()
    if not lines or [c.strip() for c in lines[0].split(",")] != ZEROSET_HEADER:
        return None
    if not any(lines[1:]):
        return None
    try:
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if table.shape[1] != len(ZEROSET_HEADER) or not np.isfinite(table).all():
        return None
    m = table[:, 1]
    if not np.all((m >= 1) & (m == np.floor(m)) & (m < 2.0**53)):
        return None
    return table


def read_zeroset(path) -> ZeroSet:
    table = _zeroset_table(path)
    if table is not None:
        pts, mults = table[:, 0], table[:, 1].astype(np.int64)
    else:
        pts, mults = [], []
        for line, (p, m) in _read_rows(path, ZEROSET_HEADER):
            if not (m.is_integer() and 1 <= m < 2.0**53):
                raise ParseError(f"multiplicity must be an integer in [1, 2**53), got {m}",
                                 path=path, line=line)
            pts.append(p)
            mults.append(int(m))
        pts = np.asarray(pts, dtype=float)
        mults = np.asarray(mults, dtype=np.int64)
    sidecar = Path(path).with_suffix(".json")
    if sidecar.exists():
        window = _sidecar_window(sidecar)
        outside = (pts < window[0]) | (pts > window[1])
        if outside.any():
            raise ParseError(f"point {float(pts[np.argmax(outside)])!r} lies outside the "
                             f"window [{window[0]!r}, {window[1]!r}] of {sidecar.name}",
                             path=path)
    else:
        warnings.warn(f"no sidecar {sidecar.name}; taking the window from the point range")
        if pts.size == 0:
            raise InvalidInputError("empty zero set and no sidecar window")
        window = (float(np.min(pts)), float(np.max(pts)))
    return ZeroSet(window, pts, mults)


def _sidecar_window(sidecar: Path) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in json.loads(_decode(sidecar.read_bytes(), sidecar))["window"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f'expected {{"window": [lo, hi]}} ({type(exc).__name__}: {exc})',
                         path=sidecar) from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ParseError(f"window must be finite with lo < hi, got [{lo!r}, {hi!r}]",
                         path=sidecar)
    return lo, hi


def write_zeroset(A: ZeroSet, path) -> None:
    _write_rows(path, ZEROSET_HEADER, (A.points.tolist(), A.mults.tolist()))
    sidecar = Path(path).with_suffix(".json")
    sidecar.write_text(
        json.dumps({"window": [A.window[0], A.window[1]]}, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_measure(path) -> PointMeasure:
    rows = _read_rows(path, MEASURE_HEADER)
    gammas = np.sort([g for _, (g, _, _) in rows])
    if np.any(np.diff(gammas) <= FREQ_TOL):
        warnings.warn(f"{path}: duplicate gamma rows merged by summing coefficients")
    mu = canonicalize([(g, complex(re, im)) for _, (g, re, im) in rows], prune_tol=0.0)
    at_zero = np.abs(mu.freqs) <= FREQ_TOL
    d = float(mu.coeffs[at_zero][0].real) if at_zero.any() else 0.0
    return PointMeasure(d=d, gammas=mu.freqs[~at_zero], masses=mu.coeffs[~at_zero])


def write_measure(mu: PointMeasure, path) -> None:
    _write_rows(path, MEASURE_HEADER,
                ([0.0] + mu.gammas.tolist(), [float(mu.d)] + mu.masses.real.tolist(),
                 [0.0] + mu.masses.imag.tolist()))


def sniff_kind(path) -> str:
    """Map a file's header line to its object kind."""
    with open(path, "rb") as fh:
        first = _decode(fh.readline(), path).splitlines()
    header = [c.strip() for c in (first[0] if first else "").strip().split(",")]
    if header == EXPSUM_HEADER:
        return "expsum"
    if header == ZEROSET_HEADER:
        return "zeroset"
    if header == MEASURE_HEADER:
        return "measure"
    raise ParseError(f"unrecognized header {','.join(header)!r}", path=path, line=1)
