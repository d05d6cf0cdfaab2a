"""Benchmark workloads: seeded inputs built from closed forms.

Every input is a product of cosine factors cos(pi*c*z), or the zero set
of one.  The factor with scale c has the zeros (Z + 1/2)/c, and the
Fourier transform of their counting measure is c at 0 plus the atoms
c*(-1)^k at k*c for every nonzero integer k.  The sum over the factors
is the answer the output checker compares each run's artifacts with.

The seed only jitters the window endpoints, so the same seed gives the
same files, and the program sees nothing but those files and ``--seed``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# No window endpoint lies within EDGE_CLEARANCE of a zero: the zero finder
# rejects such a window with BoundaryError, a usage error, not a workload.
EDGE_CLEARANCE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "analyze" reads the sum, "diffract" its zero set
    scales: tuple[float, ...]    # one factor cos(pi*c*z) per scale c
    half: float                  # nominal half-width of the window
    cutoff: float
    T: float = 2000.0
    grid: float | None = None    # Bohr scan grid step; None keeps the CLI default
    jitter: float = 0.25         # each window endpoint moves by up to this much

    @property
    def input_kind(self) -> str:
        return "expsum" if self.command == "analyze" else "zeroset"


WORKLOADS = {w.name: w for w in (
    Workload("cos-zeros", "analyze", (1.0,), 2000.0, 10.0),
    Workload(
        "three-deep", "analyze", (1.0, SQRT2, SQRT3), 20.0, 40.0,
        # Near-coincident zeros make the scan halve its step for about half
        # of all window offsets larger than 0.01 (349 boxes instead of 173),
        # which would let the seed, not the code, set the run time.  A jitter
        # well below that keeps one scan pass on every seed.
        jitter=0.002),
    Workload("zeroset-diffract", "diffract", (1.0, SQRT2), 2100.0, 10.0, grid=0.02),
)}


def distance_to_zero(x: float, scales) -> float:
    """Distance from x to the nearest point of the union of (Z + 1/2)/c."""
    return min(abs(x * c - 0.5 - round(x * c - 0.5)) / c for c in scales)


def lattice_zeros(scales, lo: float, hi: float) -> list[float]:
    """Sorted zeros of the cosine product strictly inside (lo, hi)."""
    pts = []
    for c in scales:
        n0 = math.floor(lo * c - 0.5)
        n1 = math.ceil(hi * c - 0.5)
        pts.extend(x for x in ((n + 0.5) / c for n in range(n0, n1 + 1)) if lo < x < hi)
    return sorted(pts)


def dual_atoms(scales, cutoff: float, inclusive: bool = False) -> list[tuple[float, float]]:
    """Positive atoms (k*c, c*(-1)^k) below the cutoff, sorted by frequency."""
    atoms = []
    for c in scales:
        k = 1
        while k * c < cutoff or (inclusive and k * c <= cutoff):
            atoms.append((k * c, c * (-1.0) ** k))
            k += 1
    return sorted(atoms)


def product_terms(scales) -> list[tuple[float, float]]:
    """The cosine product as (frequency, coefficient) pairs of exp(2*pi*i*omega*z)."""
    weight = 0.5 ** len(scales)
    return sorted((sum(s * c for s, c in zip(signs, scales)) / 2.0, weight)
                  for signs in itertools.product((-1.0, 1.0), repeat=len(scales)))


def draw_window(w: Workload, seed: int) -> tuple[float, float]:
    rng = random.Random(seed)

    def endpoint(nominal):
        while True:
            x = nominal + rng.uniform(-w.jitter, w.jitter)
            if distance_to_zero(x, w.scales) > EDGE_CLEARANCE:
                return x

    return endpoint(-w.half), endpoint(w.half)


@dataclass(frozen=True)
class Instance:
    """One seeded input of a workload, written to disk."""

    workload: Workload
    seed: int
    window: tuple[float, float]
    input_path: Path

    def argv(self) -> list[str]:
        """CLI arguments; the caller appends ``--out DIR``."""
        w = self.workload
        lo, hi = self.window
        argv = [w.command, "--input", str(self.input_path)]
        if w.input_kind == "expsum":
            argv.append(f"--window={lo!r},{hi!r}")
        argv += ["--T", repr(w.T), "--cutoff", repr(w.cutoff)]
        if w.grid is not None:
            argv += ["--grid", repr(w.grid)]
        return argv + ["--seed", str(self.seed)]


def make_instance(w: Workload, seed: int, directory) -> Instance:
    """Write the workload's input for this seed into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lo, hi = draw_window(w, seed)
    if w.input_kind == "expsum":
        path = directory / "sum.csv"
        rows = ["omega,re,im"] + [f"{om!r},{q!r},0.0" for om, q in product_terms(w.scales)]
    else:
        path = directory / "zeros.csv"
        rows = ["point,multiplicity"] + [f"{x!r},1" for x in lattice_zeros(w.scales, lo, hi)]
        path.with_suffix(".json").write_text(json.dumps({"window": [lo, hi]}) + "\n",
                                             encoding="utf-8")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return Instance(w, seed, (lo, hi), path)
