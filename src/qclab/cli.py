"""Command-line orchestration: parse inputs, run pipelines, persist artifacts.

``analyze`` runs the full forward and inverse chain on an exponential
sum: real zeros, set analytics, both diffraction routes with the Poisson
check, then reconstruction with the roundtrip audit.  The other commands
expose the individual stages.  Reports embed the full config/tolerance
snapshot, carry no timestamps, and are byte-identical across reruns with
the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import apset, diffraction, io, reconstruct, wiener, zeros
from .diffraction import PointMeasure
from .errors import DomainError, InvalidInputError, QclabError, StageError
from .wiener import ExpSum
from .zeros import ZeroSet

SCHEMA_VERSION = 1
COMMANDS = ("analyze", "zeros", "diffract", "poisson", "reconstruct", "apset")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    input_path: str
    window: tuple[float, float] = (-100.0, 100.0)
    height: float | str = "auto"
    cutoff: float = 10.0
    grid_step: float = 0.25
    T: float = 2000.0
    eps: float = 0.05
    out_dir: str | None = None
    seed: int = 0

    def snapshot(self) -> dict:
        return {
            "command": self.command,
            "input": self.input_path,
            "window": list(self.window),
            "height": self.height,
            "cutoff": self.cutoff,
            "grid_step": self.grid_step,
            "T": self.T,
            "eps": self.eps,
            "seed": self.seed,
            "t3_budget": reconstruct.T3_BUDGET,
            "tolerances": {
                "freq_tol": wiener.FREQ_TOL,
                "prune_tol": wiener.PRUNE_TOL,
                "max_terms": wiener.MAX_TERMS,
            },
        }


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


def _zeros_stage(f, cfg):
    A = zeros.find_real_zeros(f, cfg.window)
    realness = zeros.realness_check(f, A)
    info = {
        "count": A.count,
        "distinct_points": len(A),
        "realness": {
            "real_count": realness.real_count,
            "total_count": realness.total_count,
            "all_real": realness.all_real,
        },
    }
    return A, realness, info


def _counting_spot_check(A, k2, rng, trials):
    """How many of ``trials`` random pairs of equal-length windows differ
    in count by more than k2.

    Per trial a length h in [0.01, length/4) and two windows [x, x+h)
    inside the window; the draws are those of rng.uniform(0.01, length/4)
    then rng.uniform(lo, hi - h, 2), trial after trial.
    """
    lo, hi = A.window
    e = A.expand()
    u = rng.random(3 * trials).reshape(trials, 3)
    h = 0.01 + ((hi - lo) / 4.0 - 0.01) * u[:, 0]
    x = lo + ((hi - h) - lo)[:, None] * u[:, 1:]
    c = np.searchsorted(e, x + h[:, None]) - np.searchsorted(e, x)
    return int(np.sum(np.abs(c[:, 0] - c[:, 1]) > k2))


def _apset_stage(A, cfg):
    rng = np.random.default_rng(cfg.seed)
    dens = apset.density(A)
    cc = dens.counting
    lo, hi = A.window
    length = hi - lo

    trials = 2000
    violations = _counting_spot_check(A, cc.k2, rng, trials)

    tau_hi = min(50.0, length / 10.0)
    periods = apset.almost_periods(A, cfg.eps, (0.0, tau_hi), d=dens.d)
    phi = apset.phi_representation(A, dens.d)

    half = min(-lo, hi)
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
        "k1": cc.k1,
        "k2": cc.k2,
        "windows_sampled": cc.windows_sampled,
        "counting_spot_check": {"trials": trials, "violations": violations},
        "periods": [{"tau": t, "h": h, "sup_dev": s} for t, h, s in periods.periods],
        "periods_max_gap": periods.max_gap,
        "phi": {"sup_abs": phi.sup_abs, "index_offset": phi.index_offset},
        "lindelof": lindelof,
        "krein_levin": krein,
    }
    return dens, cc, phi, info


def _diffraction_stage(f, A, dens, cc, realness, cfg):
    if f is not None:
        if realness is not None and not realness.all_real:
            raise StageError("diffraction/logderiv", DomainError(
                f"the zero set is not real: {realness.real_count} real of "
                f"{realness.total_count} zeros in the strip; the log-derivative route "
                "needs real zeros"))
        s = cfg.height
        mu_log = _stage("diffraction/logderiv",
                        lambda: diffraction.logderiv_measure(f, s, cfg.cutoff))
    else:
        mu_log = None

    lo, hi = A.window
    half = min(-lo, hi)
    T_eff = min(cfg.T, float(half))
    threshold = max(0.05, 3.0 * cc.k1 / T_eff)
    # k * step for |k| <= K: exact +- pairs, whose means bohr_means mirrors
    K = round(cfg.cutoff / cfg.grid_step)
    grid = cfg.grid_step * np.arange(-K, K + 1)
    if mu_log is not None and len(mu_log):
        # a grid point within FREQ_TOL of a log atom is that atom (9.0 beside
        # 8.999999999999998): one column each, or both would count as atoms.
        # The atoms and the grid are exact +- pairs, so the merge keeps them so
        atoms = mu_log.gammas  # sorted
        i = np.searchsorted(atoms, grid)
        gap = np.minimum(np.abs(atoms[np.maximum(i - 1, 0)] - grid),
                         np.abs(atoms[np.minimum(i, atoms.size - 1)] - grid))
        grid = np.concatenate([grid[gap > wiener.FREQ_TOL], atoms])
    gammas = np.unique(grid)
    # The main scan at T_eff and the Poisson-vs-T scans at T_eff/8 .. T_eff
    # each need the means at T and T/2: five nested windows, one pass.
    Ts = [T_eff / 2 ** k for k in range(5)]
    means = _stage("diffraction/bohr", lambda: diffraction.bohr_means(A, gammas, Ts))
    mu_bohr = _stage("diffraction/bohr", lambda: diffraction.bohr_atoms(
        A, gammas, means[0], means[1], T_eff, threshold))

    agreement = None
    if mu_log is not None and len(mu_log):
        diffs = np.abs(means[0][np.searchsorted(gammas, mu_log.gammas)] - mu_log.masses)
        agreement = {
            "atoms_compared": int(diffs.size),
            "max_atom_difference": float(np.max(diffs)),
            "d_difference": abs(mu_log.d - mu_bohr.d),
        }

    mu = mu_log if mu_log is not None else mu_bohr
    poisson = _stage("diffraction/poisson", lambda: diffraction.poisson_residual(A, mu))
    plot_poisson = []
    for k in (3, 2, 1, 0):
        Ti = Ts[k]
        thr_i = max(0.05, 3.0 * cc.k1 / Ti)
        try:
            mu_i = diffraction.bohr_atoms(A, gammas, means[k], means[k + 1], Ti, thr_i)
            r_i = diffraction.poisson_residual(A, mu_i).residual
            plot_poisson.append((float(Ti), float(r_i)))
        except QclabError:
            continue

    profile = diffraction.growth_profile(mu, np.linspace(0.5, cfg.cutoff, 20))

    info = {
        "route": "logderiv+bohr" if mu_log is not None else "bohr-only",
        "logderiv": None,
        "bohr": {
            "T": T_eff,
            "threshold": threshold,
            "d": mu_bohr.d,
            "atom_count": len(mu_bohr),
        },
        "agreement": agreement,
        "poisson": {
            "sigma": diffraction.POISSON_SIGMA,
            "residual": poisson.residual,
            "zero_side": poisson.zero_side,
            "atom_side": _jsonable(poisson.atom_side),
            "zero_tail": poisson.zero_tail,
            "atom_tail": poisson.atom_tail,
        },
        "growth": {
            "t3_value": profile.t3_value,
            "kappa_fit": profile.kappa_fit,
        },
    }
    if mu_log is not None:
        info["logderiv"] = {
            "height": cfg.height,
            "cutoff": cfg.cutoff,
            "d": mu_log.d,
            "atom_count": len(mu_log),
            "conjugate_defect": mu_log.conjugate_defect(),
            "d_vs_density": abs(mu_log.d - dens.d) if dens is not None else None,
        }
    return mu, mu_bohr, profile, plot_poisson, info


def _reconstruct_stage(mu, A, cfg):
    L = _stage("reconstruct/log_series", lambda: reconstruct.log_series_at_height_one(mu, mu.d))
    rebuilt = _stage("reconstruct/rebuild",
                     lambda: reconstruct.rebuild_from_log_series(L, mu.d))

    roundtrip = None
    if A is not None:
        lo, hi = A.window
        wlo, whi = max(lo, -20.0), min(hi, 20.0)
        z_new = _stage("reconstruct/roundtrip",
                       lambda: zeros.find_real_zeros(rebuilt, (wlo, whi)))
        inside = (A.points > wlo) & (A.points < whi)
        old = np.repeat(A.points[inside], A.mults[inside])
        new = z_new.expand()
        if old.size == new.size and old.size:
            residual = float(np.max(np.abs(old - new)))
        else:
            residual = None
        roundtrip = {
            "window": [wlo, whi],
            "original_count": int(old.size),
            "rebuilt_count": int(new.size),
            "max_deviation": residual,
        }

    greport = reconstruct.g_boundedness(mu, [5.0, 10.0, 20.0, 40.0])
    etype = reconstruct.exponential_type(rebuilt, [4.0, 6.0, 8.0, 10.0])
    info = {
        "log_series_norm": L.wiener_norm,
        "rebuilt_terms": len(rebuilt),
        "spectrum": {
            "min_freq": float(rebuilt.freqs[0]) if len(rebuilt) else None,
            "max_freq": float(rebuilt.freqs[-1]) if len(rebuilt) else None,
        },
        "roundtrip": roundtrip,
        "g": {
            "windows": [[x, s] for x, s in greport.windows],
            "slope_fit": greport.slope_fit,
            "verdict": greport.bounded_verdict,
        },
        "exponential_type": {
            "estimate": etype,
            "pi_d": float(np.pi * mu.d),
            "relative_error": abs(etype - np.pi * mu.d) / (np.pi * mu.d) if mu.d > 0 else None,
        },
    }
    return rebuilt, greport, info


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
        rebuilt, greport, info = _stage("reconstruct", lambda: _reconstruct_stage(mu, None, cfg))
        stages["reconstruct"] = info
        report.measure = mu
        report.rebuilt = rebuilt
        report.plot_g = [(x, s) for x, s in greport.windows]
        profile = diffraction.growth_profile(mu, np.linspace(0.5, cfg.cutoff, 20))
        report.plot_m = profile.m_of_s
        return report

    if f is not None and cfg.command in ("analyze", "zeros", "diffract", "poisson", "apset"):
        A, realness, zinfo = _stage("zeros", lambda: _zeros_stage(f, cfg))
        stages["zeros"] = zinfo
        report.zeroset = A
    if A is None:
        raise StageError("parse", InvalidInputError(
            f"command {cfg.command!r} needs an exponential sum or zero set input"))

    if cfg.command == "zeros":
        return report

    dens, cc, phi, ainfo = _stage("apset", lambda: _apset_stage(A, cfg))
    stages["apset"] = ainfo
    if cfg.command == "apset":
        return report

    mu, mu_bohr, profile, plot_poisson, dinfo = _stage(
        "diffraction", lambda: _diffraction_stage(f, A, dens, cc, realness, cfg))
    stages["diffraction"] = dinfo
    report.measure = mu
    report.plot_m = profile.m_of_s
    report.plot_poisson = plot_poisson
    if cfg.command in ("diffract", "poisson"):
        return report

    rebuilt, greport, rinfo = _stage("reconstruct", lambda: _reconstruct_stage(mu, A, cfg))
    stages["reconstruct"] = rinfo
    report.rebuilt = rebuilt
    report.plot_g = [(x, s) for x, s in greport.windows]
    return report


def emit_outputs(report: Report, out_dir) -> list[str]:
    """Write report.json plus the data and plot CSV artifacts; returns the
    file names written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    text = json.dumps(_jsonable(report.summary), indent=2, sort_keys=True) + "\n"
    (out / "report.json").write_text(text, encoding="utf-8")
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


def build_parser() -> _Parser:
    p = _Parser(prog="qclab", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", required=True, help="input CSV (kind sniffed from header)")
    p.add_argument("--window", default="-100,100", help="A,B real window")
    p.add_argument("--height", default="auto", help="height s for the log-derivative route")
    p.add_argument("--cutoff", type=float, default=10.0, help="atom frequency cutoff")
    p.add_argument("--grid", type=float, default=0.25, dest="grid_step",
                   help="Bohr scan grid step")
    p.add_argument("--T", type=float, default=2000.0, help="Bohr averaging half-length")
    p.add_argument("--eps", type=float, default=0.05, help="almost-period tolerance")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sampling")
    return p


def config_from_args(args) -> RunConfig:
    try:
        lo, hi = (float(x) for x in args.window.split(","))
    except ValueError:
        raise UsageError(f"--window expects A,B; got {args.window!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise UsageError(f"--window expects finite A < B, got {args.window!r}")
    height: float | str = "auto"
    if args.height != "auto":
        try:
            height = float(args.height)
        except ValueError:
            raise UsageError(f"--height expects a number or 'auto', got {args.height!r}") from None
        if not np.isfinite(height):
            raise UsageError(f"--height expects a finite number or 'auto', got {args.height!r}")
    for flag, value in (("--T", args.T), ("--cutoff", args.cutoff),
                        ("--grid", args.grid_step), ("--eps", args.eps)):
        if not (np.isfinite(value) and value > 0):
            raise UsageError(f"{flag} expects a finite number > 0, got {value!r}")
    if args.seed < 0:
        raise UsageError(f"--seed expects an integer >= 0, got {args.seed}")
    return RunConfig(
        command=args.command,
        input_path=args.input,
        window=(lo, hi),
        height=height,
        cutoff=args.cutoff,
        grid_step=args.grid_step,
        T=args.T,
        eps=args.eps,
        out_dir=args.out,
        seed=args.seed,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
        if not Path(cfg.input_path).is_file():
            raise UsageError(f"input file not found: {cfg.input_path}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_pipeline(cfg)
    except QclabError as exc:
        if not isinstance(exc, StageError):
            exc = StageError("pipeline", exc)
        error_doc = {
            "schema": SCHEMA_VERSION,
            "config": cfg.snapshot(),
            "stages": getattr(exc, "partial_stages", {}),
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
                (out / "report.json").write_text(
                    json.dumps(_jsonable(error_doc), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
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
        print(json.dumps(_jsonable(report.summary), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
