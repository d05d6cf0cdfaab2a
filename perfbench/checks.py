"""Output check: compare one CLI call's artifacts with the closed forms.

The checker reads only the files the call wrote and never imports qclab,
so a defect in the program cannot also hide in the check.

* ``analyze`` (log-derivative route): the zeros, the density d, every
  dual atom below the cutoff and the reconstruction roundtrip, each
  within 1e-9.
* ``diffract`` (Bohr route): d and the atoms that lie on the scan grid,
  within BOHR_TOL_MULT * k1/T, the O(k1/T) edge error of a Bohr mean.

Atoms that match no dual-lattice point are counted as spurious, not
failed: the log-derivative route is known to emit them.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Instance, dual_atoms, lattice_zeros

TOL = 1e-9              # log-derivative route: zeros, d, atoms and roundtrip
MATCH_TOL = 1e-9        # an emitted atom this close to k*c is a true atom
BOHR_TOL_MULT = 1.0


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    atoms_emitted: int = 0
    spurious_atoms: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _rows(path: Path, header: list[str]) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return [[float(v) for v in row] for row in rows[1:] if row]


def read_measure(path: Path) -> tuple[float, list[tuple[float, complex]]]:
    """(d, positive atoms sorted by frequency) from a measure.csv."""
    d = None
    atoms = []
    for g, re, im in _rows(path, ["gamma", "re", "im"]):
        if g == 0.0:
            d = re
        elif g > 0.0:
            atoms.append((g, complex(re, im)))
    if d is None:
        raise ValueError("measure.csv has no gamma = 0 row")
    return d, sorted(atoms, key=lambda a: a[0])


def _nearest(atoms: list[tuple[float, complex]], gamma: float) -> tuple[float, complex] | None:
    i = bisect.bisect_left(atoms, gamma, key=lambda a: a[0])
    best = min(atoms[max(i - 1, 0):i + 1], key=lambda a: abs(a[0] - gamma), default=None)
    if best is None or abs(best[0] - gamma) > MATCH_TOL:
        return None
    return best


def _is_true_atom(gamma: float, scales) -> bool:
    return any(round(gamma / c) >= 1 and abs(gamma - round(gamma / c) * c) <= MATCH_TOL
               for c in scales)


def _check_zeros(inst: Instance, out: Path, v: Verdict) -> None:
    rows = _rows(out / "zeros.csv", ["point", "multiplicity"])
    expected = lattice_zeros(inst.workload.scales, *inst.window)
    if len(rows) != len(expected):
        v.problems.append(f"zeros: {len(rows)} points, expected {len(expected)}")
        return
    worst = max((abs(p - x) for (p, _), x in zip(rows, expected)), default=0.0)
    if worst > TOL:
        v.problems.append(f"zeros: worst deviation {worst:.3g} > {TOL:g}")
    if any(m != 1 for _, m in rows):
        v.problems.append("zeros: a multiplicity is not 1")


def _check_atoms(expected, atoms, tol, v: Verdict) -> None:
    for gamma, mass in expected:
        got = _nearest(atoms, gamma)
        if got is None:
            v.problems.append(f"atoms: none at {gamma:.12g}")
        elif abs(got[1] - mass) > tol:
            v.problems.append(f"atoms: mass {got[1]:.6g} at {gamma:.12g}, expected {mass:.6g}")


def check_outputs(inst: Instance, out_dir) -> Verdict:
    """Check the artifacts one call of ``inst`` wrote to ``out_dir``."""
    out = Path(out_dir)
    w = inst.workload
    v = Verdict()
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if "error" in report:
            v.problems.append(f"report: stage error {report['error']}")
            return v
        d, atoms = read_measure(out / "measure.csv")
        if w.command == "analyze":
            _check_zeros(inst, out, v)
            tol = TOL
            expected = dual_atoms(w.scales, w.cutoff)
            roundtrip = report["stages"]["reconstruct"]["roundtrip"]["max_deviation"]
            if roundtrip is None or roundtrip > TOL:
                v.problems.append(f"roundtrip: max_deviation {roundtrip} > {TOL:g}")
        else:
            k1 = sum(math.ceil(c) for c in w.scales)
            tol = BOHR_TOL_MULT * k1 / w.T
            expected = [(g, b) for g, b in dual_atoms(w.scales, w.cutoff, inclusive=True)
                        if abs(g / w.grid - round(g / w.grid)) < 1e-6]
        if abs(d - sum(w.scales)) > tol:
            v.problems.append(f"density: d = {d!r}, expected {sum(w.scales)!r}")
        _check_atoms(expected, atoms, tol, v)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        v.problems.append(f"artifacts unreadable: {type(exc).__name__}: {exc}")
        return v
    v.atoms_emitted = len(atoms)
    v.spurious_atoms = sum(not _is_true_atom(g, w.scales) for g, _ in atoms)
    return v
