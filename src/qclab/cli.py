"""Command-line orchestration: parse inputs, run pipelines, persist artifacts.

``analyze`` runs the full forward and inverse chain on an exponential
sum: real zeros, set analytics, both diffraction routes with the Poisson
check, then reconstruction, whose rebuilt spectrum must have the zero
set's density as its width, and whose rebuilt sum is certified against
the input by its coefficient distance and Rouché's theorem over the
whole window (``_roundtrip``).  The other commands expose the individual
stages.  Reports embed the full config/tolerance snapshot, carry no
timestamps, and are byte-identical across reruns with the same config
and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import apset, diffraction, io, reconstruct, wiener, zeros
from .diffraction import PointMeasure
from .errors import (
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    InvalidInputError,
    QclabError,
    StageError,
)
from .wiener import ExpSum
from .zeros import ZeroSet

SCHEMA_VERSION = 6
ROUNDTRIP_TOL = 1e-9  # largest coefficient distance of a round trip, relative to ||f_hat||_W
COMMANDS = ("analyze", "zeros", "diffract", "reconstruct", "apset")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    input_path: str
    window: tuple[float, float] = (-100.0, 100.0)
    cutoff: float = 10.0
    grid_step: float = 0.25
    T: float = 2000.0
    eps: float = 0.05
    out_dir: str | None = None
    seed: int = 0

    def snapshot(self) -> dict:
        """The report's ``config``: every field but ``out_dir``, the input
        path under ``input``, and the fixed budget and tolerances."""
        doc = asdict(self)
        del doc["out_dir"]
        doc["input"] = doc.pop("input_path")
        doc["t3_budget"] = reconstruct.T3_BUDGET
        doc["tolerances"] = {
            "freq_tol": wiener.FREQ_TOL,
            "prune_tol": wiener.PRUNE_TOL,
            "max_terms": wiener.MAX_TERMS,
        }
        return doc


@dataclass
class Report:
    summary: dict
    zeroset: ZeroSet | None = None
    measure: PointMeasure | None = None
    rebuilt: ExpSum | None = None
    plot_g: list = field(default_factory=list)
    plot_m: list = field(default_factory=list)
    plot_poisson: list = field(default_factory=list)


def parse_inputs(path, kind: str):
    """Read a CSV input of the given kind (expsum, zeroset or measure)."""
    if kind == "expsum":
        return io.read_expsum(path)
    if kind == "zeroset":
        return io.read_zeroset(path)
    if kind == "measure":
        return io.read_measure(path)
    raise InvalidInputError(f"unknown input kind {kind!r}")


def _stage(name, fn):
    try:
        return fn()
    except StageError:
        raise
    except (QclabError, OverflowError) as exc:
        raise StageError(name, exc) from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _report_text(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _zeros_stage(f, cfg):
    A = zeros.find_real_zeros(f, cfg.window)
    realness = zeros.realness_check(f, A)
    info = {
        "count": A.count,
        "distinct_points": len(A),
        "realness": asdict(realness),
    }
    return A, realness, info


def _counting_spot_check(A, k2, rng, trials):
    """How many of ``trials`` random pairs of equal-length windows differ
    in count by more than k2.

    Per trial a length h in [0.01, length/4) and two windows [x, x+h)
    inside the window.  ``rng`` is a ``random.Random``, and the draws are
    3·trials values u of ``rng.random()`` in order: per trial one for
    h = 0.01 + (length/4 - 0.01)·u, then one for each of x1 and x2,
    x = lo + ((hi - h) - lo)·u.
    """
    lo, hi = A.window
    e = A.expand()
    u = np.array([rng.random() for _ in range(3 * trials)]).reshape(trials, 3)
    h = 0.01 + ((hi - lo) / 4.0 - 0.01) * u[:, 0]
    x = lo + ((hi - h) - lo)[:, None] * u[:, 1:]
    c = apset._searched_counts(e, x, h[:, None])
    return int(np.sum(np.abs(c[:, 0] - c[:, 1]) > k2))


def _apset_stage(A, half, cfg):
    rng = random.Random(cfg.seed)
    dens = apset.density(A)
    lo, hi = A.window
    length = hi - lo

    trials = 2000
    violations = _counting_spot_check(A, dens.counting.k2, rng, trials)

    tau_hi = min(50.0, length / 10.0)
    periods = apset.almost_periods(A, cfg.eps, (0.0, tau_hi))
    phi = apset.phi_representation(A, dens.d)

    n_list = sorted({max(2.0, half / 8), half / 4, half / 2, float(half)})
    try:
        sums, cauchy = apset.lindelof_sum(A, n_list)
        lindelof = {"N": list(n_list), "partial_sums": sums, "cauchy_delta": cauchy}
    except DomainError as exc:
        lindelof = {"skipped": str(exc)}

    n_max = int(phi.n.max())
    n_min = int(phi.n.min())
    taus = list(range(1, 21))
    N_diag = min(1000, n_max - max(taus) - 1, -n_min - 1)
    if N_diag >= 50:
        krein = {"N": N_diag, "taus": [1, 20],
                 "value": apset.krein_levin_diagnostic(phi, taus, N_diag)}
    else:
        krein = {"skipped": "phi window too short"}

    info = {
        "d": dens.d,
        "error_bound": dens.error_bound,
        **asdict(dens.counting),
        "counting_spot_check": {"trials": trials, "violations": violations},
        "periods": [{"tau": t, "h": h, "sup_dev": s} for t, h, s in periods.periods],
        "periods_max_gap": periods.max_gap,
        "phi": {"sup_abs": phi.sup_abs, "index_offset": phi.index_offset},
        "lindelof": lindelof,
        "krein_levin": krein,
    }
    return dens, info


def _diffraction_stage(f, A, half, dens, realness, cfg):
    if f is not None:
        if not realness.all_real:
            raise StageError("diffraction/logderiv", DomainError(
                f"the zero set is not real: {realness.real_count} real of "
                f"{realness.total_count} zeros in the strip; the log-derivative route "
                "needs real zeros"))
        mu_log = _stage("diffraction/logderiv",
                        lambda: diffraction.logderiv_measure(f, cfg.cutoff))
    else:
        mu_log = None

    if half <= 0:
        raise StageError("diffraction/bohr", DomainError(
            f"the zero-set window {A.window} must contain 0 for Bohr means over |a| < T"))
    T_eff = min(cfg.T, float(half))
    # The main scan at T_eff and the Poisson-vs-T scans at T_eff/8 .. T_eff
    # each need the means at T and T/2: five nested windows
    Ts = [T_eff / 2 ** k for k in range(5)]
    thresholds = [max(0.05, 3.0 * dens.counting.k1 / T) for T in Ts]
    # k * step for |k| <= K: exact +- pairs, whose means bohr_means mirrors.
    # Only a column that passes the stability rule loosened by the screen's
    # bound at some scanned T can be an atom; the others get no exact pass
    K = round(cfg.cutoff / cfg.grid_step)
    screen, eta = _stage("diffraction/bohr",
                         lambda: diffraction.bohr_grid_screen(A, cfg.grid_step, K, Ts))
    candidate = np.zeros(K + 1, bool)
    for k in range(4):
        candidate |= diffraction.bohr_stable(screen[k], screen[k + 1], thresholds[k],
                                             slack=eta[k] + eta[k + 1])
    ks = np.arange(-K, K + 1)
    grid = cfg.grid_step * ks[candidate[np.abs(ks)]]
    if mu_log is not None and len(mu_log):
        # a grid point at a log atom is that atom (9.0 beside 8.999999999999998):
        # one column each, or both would count as atoms.  The atoms and the
        # grid are exact +- pairs, so the merge keeps them so
        grid = np.concatenate([grid[mu_log.atom_index(grid) < 0], mu_log.gammas])
    gammas = np.unique(grid)
    means = _stage("diffraction/bohr", lambda: diffraction.bohr_means(A, gammas, Ts))

    def bohr(k):
        return diffraction.bohr_atoms(A, gammas, means[k], means[k + 1], Ts[k], thresholds[k])

    mu_bohr = _stage("diffraction/bohr", lambda: bohr(0))

    agreement = None
    if mu_log is not None and len(mu_log) and len(mu_bohr):
        diffs = np.abs(means[0][np.searchsorted(gammas, mu_log.gammas)] - mu_log.masses)
        agreement = {
            "atoms_compared": int(diffs.size),
            "max_atom_difference": float(np.max(diffs)),
            "d_difference": abs(mu_log.d - mu_bohr.d),
        }

    mu = mu_log if mu_log is not None else mu_bohr
    poisson = _stage("diffraction/poisson", lambda: diffraction.poisson_residual(A, mu))
    plot_poisson, skipped = [], []
    for k in (3, 2, 1, 0):
        try:
            mu_k = bohr(k) if k else mu_bohr
            r_k = poisson if mu_k is mu else diffraction.poisson_residual(A, mu_k)
        except QclabError as exc:
            skipped.append({"T": float(Ts[k]), "error": type(exc).__name__, "message": str(exc)})
        else:
            plot_poisson.append((float(Ts[k]), float(r_k.residual)))

    profile = diffraction.growth_profile(mu, np.linspace(0.5, cfg.cutoff, 20))

    info = {
        "route": "logderiv+bohr" if mu_log is not None else "bohr-only",
        "logderiv": None,
        "bohr": {
            "T": T_eff,
            "threshold": thresholds[0],
            "d": mu_bohr.d,
            "atom_count": len(mu_bohr),
        },
        "agreement": agreement,
        "poisson": {"sigma": diffraction.POISSON_SIGMA, **asdict(poisson)},
        "poisson_vs_T_skipped": skipped,
        "growth": {"t3_value": profile.t3_value},
    }
    if mu_log is not None:
        info["logderiv"] = {
            "cutoff": cfg.cutoff,
            "d": mu_log.d,
            "atom_count": len(mu_log),
            "conjugate_defect": mu_log.conjugate_defect(),
            "d_vs_density": abs(mu_log.d - dens.d),
            "noise_dropped": mu_log.noise_dropped,
            "certified_cutoff": mu_log.certified_cutoff,
            "max_error_bound": mu_log.max_error_bound,
        }
    return mu, profile, plot_poisson, info


def _roundtrip(f, A, rebuilt):
    """The round-trip certificate of the rebuilt sum g against the input f,
    over the strip that ``find_real_zeros`` counted A on.

    The rebuild is normalized as f_hat = f e^{-2 pi i c z} / f(0), c the
    centre of f's spectrum.  The strip's contour floor, rescaled to f_hat
    by e^{-2 pi |c| h} / |f(0)|, bounds |f_hat| on the contour from below,
    so a coefficient distance delta below it gives g the count of f in
    the strip (Rouché).  ``rouche_radii`` then puts m zeros of g within r
    of each point of order m; discs that are disjoint and inside the
    strip hold every zero of g there, and ``max_deviation``, the largest
    r, bounds the distance of each to its point.  delta must also be at
    most ``ROUNDTRIP_TOL`` ||f_hat||_W: a rebuild that only keeps the
    zeros near their points is not the input sum.  A failed test is a
    ConvergenceError.
    """
    lo, hi = A.window
    h = A.strip_height
    centre = 0.5 * (float(f.freqs[0]) + float(f.freqs[-1]))
    v0 = wiener.evaluate(f, 0.0)
    if v0 == 0:
        raise DomainError("the input sum vanishes at 0, where the rebuild is normalized")
    f_hat = wiener.multiply(f, wiener.canonicalize([(-centre, 1.0 / v0)]))
    floor = A.contour_floor * math.exp(-2 * math.pi * abs(centre) * h) / abs(v0)
    delta = reconstruct.coefficient_distance(rebuilt, f_hat, h,
                                             math.hypot(max(abs(lo), abs(hi)), h))
    tol = ROUNDTRIP_TOL * f_hat.wiener_norm
    if not (delta < floor and delta <= tol):
        raise ConvergenceError(
            f"the rebuilt sum ({len(rebuilt)} terms) lies delta = {delta:.3g} from the "
            f"normalized input ({len(f_hat)} terms) over |Im z| <= {h:.3g}; the round trip "
            f"needs delta below the contour floor {floor:.3g} and at most {tol:.3g}")
    r = zeros.rouche_radii(f_hat, A, delta)
    apart = r[:-1] + r[1:] < np.diff(A.points)
    ok = (r < h) & (A.points - r > lo) & (A.points + r < hi)
    ok[:-1] &= apart
    if not ok.all():
        i = int(np.argmin(ok))
        raise ConvergenceError(
            f"the disc test fails at the zero {A.points[i]:.9g} (radius {r[i]:.3g}): no disc "
            "inside the strip and clear of its neighbours holds its zeros of the rebuilt sum")
    return {
        "window": [lo, hi],
        "coefficient_distance": delta,
        "contour_floor": floor,
        "tolerance": tol,
        "original_count": A.count,
        "rebuilt_count": A.count,
        "max_deviation": float(np.max(r)) if r.size else None,
    }


def _reconstruct_stage(mu, f, A, dens, report):
    """The stage's report entry; sets ``report.rebuilt`` and ``report.plot_g``.

    With the zero set's density ``dens`` the rebuilt spectrum's width,
    max - min, must be d within its error bound: a sum whose spectrum has
    width w has zeros of density w.  The round trip is certified against
    the input sum f, if there is one."""
    L = _stage("reconstruct/log_series", lambda: reconstruct.log_series(mu))
    rebuilt = _stage("reconstruct/rebuild",
                     lambda: reconstruct.rebuild_from_log_series(L, mu.d))
    if dens is not None:
        width = float(rebuilt.freqs[-1] - rebuilt.freqs[0])
        if abs(width - dens.d) > dens.error_bound:
            raise StageError("reconstruct/width", InsufficientDataError(
                f"the rebuilt spectrum has width {width:.9g}, but the zero set has density "
                f"d = {dens.d:.9g} within {dens.error_bound:.3g}: the atoms do not rebuild "
                "a sum with these zeros"))
    roundtrip = None
    if f is not None:
        roundtrip = _stage("reconstruct/roundtrip", lambda: _roundtrip(f, A, rebuilt))

    greport = reconstruct.g_boundedness(mu, [5.0, 10.0, 20.0, 40.0])
    info = {
        "log_series_norm": L.wiener_norm,
        "rebuilt_terms": len(rebuilt),
        "spectrum": {
            "min_freq": float(rebuilt.freqs[0]) if len(rebuilt) else None,
            "max_freq": float(rebuilt.freqs[-1]) if len(rebuilt) else None,
        },
        "roundtrip": roundtrip,
        "g": asdict(greport),
    }
    report.rebuilt = rebuilt
    report.plot_g = greport.windows
    return info


def run_pipeline(cfg: RunConfig) -> Report:
    """Execute the configured command; raises StageError naming the
    failing stage on any module error (with the stages completed so far
    attached as ``partial_stages``)."""
    summary: dict = {"schema": SCHEMA_VERSION, "config": cfg.snapshot(), "stages": {}}
    report = Report(summary=summary)
    stages = summary["stages"]
    try:
        return _run_pipeline_inner(cfg, report, stages)
    except StageError as exc:
        exc.partial_stages = stages
        raise


def _run_pipeline_inner(cfg: RunConfig, report: Report, stages: dict) -> Report:

    kind = _stage("parse", lambda: io.sniff_kind(cfg.input_path))
    obj = _stage("parse", lambda: parse_inputs(cfg.input_path, kind))
    stages["parse"] = {"kind": kind}

    f: ExpSum | None = None
    A: ZeroSet | None = None
    mu: PointMeasure | None = None
    realness = None
    if kind == "expsum":
        f = obj
        stages["parse"]["terms"] = len(f)
    elif kind == "zeroset":
        A = obj
        stages["parse"]["points"] = len(A)
    else:
        mu = obj
        stages["parse"]["atoms"] = len(mu)

    if cfg.command == "reconstruct":
        if mu is None:
            raise StageError("parse", InvalidInputError("reconstruct expects a measure input"))
        stages["reconstruct"] = _stage("reconstruct",
                                       lambda: _reconstruct_stage(mu, None, None, None, report))
        report.measure = mu
        report.plot_m = diffraction.growth_profile(mu, np.linspace(0.5, cfg.cutoff, 20)).m_of_s
        return report

    if f is not None:
        A, realness, zinfo = _stage("zeros", lambda: _zeros_stage(f, cfg))
        stages["zeros"] = zinfo
        report.zeroset = A
    if A is None:
        raise StageError("parse", InvalidInputError(
            f"command {cfg.command!r} needs an exponential sum or zero set input"))

    if cfg.command == "zeros":
        return report

    half = min(-A.window[0], A.window[1])  # the symmetric half-window
    dens, ainfo = _stage("apset", lambda: _apset_stage(A, half, cfg))
    stages["apset"] = ainfo
    if cfg.command == "apset":
        return report

    mu, profile, plot_poisson, dinfo = _stage(
        "diffraction", lambda: _diffraction_stage(f, A, half, dens, realness, cfg))
    stages["diffraction"] = dinfo
    report.measure = mu
    report.plot_m = profile.m_of_s
    report.plot_poisson = plot_poisson
    if cfg.command == "diffract":
        return report

    stages["reconstruct"] = _stage("reconstruct",
                                   lambda: _reconstruct_stage(mu, f, A, dens, report))
    return report


def emit_outputs(report: Report, out_dir) -> list[str]:
    """Write report.json plus the data and plot CSV artifacts; returns the
    file names written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    (out / "report.json").write_text(_report_text(report.summary), encoding="utf-8")
    written.append("report.json")

    if report.zeroset is not None:
        io.write_zeroset(report.zeroset, out / "zeros.csv")
        written.extend(["zeros.csv", "zeros.json"])
    if report.measure is not None:
        io.write_measure(report.measure, out / "measure.csv")
        written.append("measure.csv")
    if report.rebuilt is not None:
        io.write_expsum(report.rebuilt, out / "rebuilt.csv")
        written.append("rebuilt.csv")

    def plot_csv(name, header, rows):
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        written.append(name)

    if report.plot_g:
        plot_csv("plot_g_sup.csv", "X,sup_abs_g", report.plot_g)
    if report.plot_m:
        plot_csv("plot_m_of_s.csv", "s,m", report.plot_m)
    if report.plot_poisson:
        plot_csv("plot_poisson_vs_T.csv", "T,residual", report.plot_poisson)
    return written


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _window(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects A,B; got {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"expects finite A < B, got {text!r}")
    return lo, hi


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expects a finite number > 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expects an integer >= 0, got {text!r}")
    return value


def build_parser() -> _Parser:
    """The command line; each dest is a ``RunConfig`` field, and the
    defaults are ``RunConfig``'s."""
    p = _Parser(prog="qclab", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", required=True, dest="input_path",
                   help="input CSV (kind sniffed from header)")
    p.add_argument("--window", type=_window, help="A,B real window")
    p.add_argument("--cutoff", type=_positive, help="atom frequency cutoff")
    p.add_argument("--grid", type=_positive, dest="grid_step", help="Bohr scan grid step")
    p.add_argument("--T", type=_positive, help="Bohr averaging half-length")
    p.add_argument("--eps", type=_positive, help="almost-period tolerance")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--seed", type=_seed, help="seed for randomized sampling")
    p.set_defaults(**{f.name: f.default for f in fields(RunConfig) if f.default is not MISSING})
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = RunConfig(**vars(parser.parse_args(argv)))
        if not Path(cfg.input_path).is_file():
            raise UsageError(f"input file not found: {cfg.input_path}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_pipeline(cfg)
    except StageError as exc:
        error_doc = {
            "schema": SCHEMA_VERSION,
            "config": cfg.snapshot(),
            "stages": exc.partial_stages,
            "error": {
                "stage": exc.stage,
                "type": type(exc.cause).__name__,
                "message": str(exc.cause),
            },
        }
        print(f"stage error at {exc.stage}: {exc.cause}", file=sys.stderr)
        if cfg.out_dir:
            try:
                out = Path(cfg.out_dir)
                out.mkdir(parents=True, exist_ok=True)
                (out / "report.json").write_text(_report_text(error_doc), encoding="utf-8")
            except OSError:
                pass
        return 2

    if cfg.out_dir:
        try:
            files = emit_outputs(report, cfg.out_dir)
        except OSError as exc:
            print(f"cannot write outputs: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(files)} files to {cfg.out_dir}")
    else:
        sys.stdout.write(_report_text(report.summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
