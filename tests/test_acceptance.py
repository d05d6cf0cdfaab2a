"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute; without -s they appear in the captured output.
"""

import json
import math
import time

import numpy as np
import pytest

from qclab.apset import (
    almost_periods,
    counting_constants,
    density,
    lindelof_sum,
    phi_representation,
)
from qclab.diffraction import (
    bohr_atoms,
    bohr_means,
    logderiv_measure,
    poisson_residual,
)
from qclab.reconstruct import (
    exponential_type,
    g_boundedness,
    g_function,
    rebuild_dirichlet,
)
from qclab.wiener import (
    add,
    canonicalize,
    constant,
    multiply,
    neumann_inverse,
)
from qclab.zeros import find_real_zeros

from conftest import (
    SQRT2,
    cos_sum,
    lattice_measure,
    lattice_zeroset,
    union_sum,
    union_zeroset,
)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_lattice_pipeline():
    """cos(pi z) on [-1000, 1000]: 2000 simple zeros, density, exact atoms."""
    t0 = time.perf_counter()
    f = cos_sum()
    A = find_real_zeros(f, (-1000.0, 1000.0))
    expect = np.arange(-1000, 1000) + 0.5
    zero_err = float(np.max(np.abs(A.points - expect)))
    d_est = density(A).d
    mu = logderiv_measure(f, 10.5)
    atom_err = max(abs(mu.mass_at(float(k)) - (-1.0) ** k) for k in range(1, 11))
    elapsed = time.perf_counter() - t0
    ok = (
        A.count == 2000
        and bool(np.all(A.mults == 1))
        and zero_err < 1e-10
        and abs(d_est - 1.0) <= 0.01
        and abs(mu.d - 1.0) < 1e-10
        and atom_err < 1e-10
        and elapsed < 10.0
    )
    _report(1, ok, f"2000 zeros (err {zero_err:.2e}), d={d_est}, "
                   f"atom err {atom_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_route_agreement():
    """Bohr (T=2000) vs log-derivative atoms on both fixtures; union density."""
    t0 = time.perf_counter()
    lat = lattice_zeroset(0.5, 1.0, 2100)
    uni = union_zeroset(2100)
    worst = 0.0
    for f, A in ((cos_sum(), lat), (union_sum(), uni)):
        mu = logderiv_measure(f, 10.0)
        means = bohr_means(A, np.append(mu.gammas, 0.0), [2000.0])[0]
        worst = max(worst, float(np.max(np.abs(means[:-1] - mu.masses))),
                    abs(means[-1].real - mu.d))
    d_uni = density(uni).d
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and abs(d_uni - (1 + SQRT2)) <= 0.02 and elapsed < 60.0
    _report(2, ok, f"worst atom disagreement {worst:.2e}, union d={d_uni:.5f}, "
                   f"{elapsed:.1f}s")


def test_criterion_3_poisson_identity():
    """Gaussian residuals: exact lattice, scanned union, negative control."""
    lat = lattice_zeroset(0.5, 1.0, 2100)
    uni = union_zeroset(2100)
    r_exact = poisson_residual(lat, lattice_measure(K=8)).residual
    grid = sorted(set([float(k) for k in range(-8, 9)]
                      + [round(k * SQRT2, 12) for k in range(-6, 7)]))
    full, half = bohr_means(uni, grid, [2000.0, 1000.0])
    mu_uni = bohr_atoms(uni, grid, full, half, 2000.0, 0.1)
    r_union = poisson_residual(uni, mu_uni).residual
    r_broken = poisson_residual(lat, lattice_measure(K=8).drop_atom(1.0)).residual
    ok = r_exact < 1e-8 and r_union < 1e-3 and r_broken > 1e-2
    _report(3, ok, f"exact {r_exact:.1e}, union {r_union:.1e}, control {r_broken:.1e}")


def test_criterion_4_reconstruction_roundtrip():
    """zeros -> measure -> Dirichlet series reproduces both fixtures."""
    cos = cos_sum()
    mu = logderiv_measure(cos, 10.0)
    rebuilt = rebuild_dirichlet(mu)
    coeff_err = max(abs(q1 - q2) for (_, q1), (_, q2)
                    in zip(rebuilt.terms(), cos.terms()))
    funion = union_sum()
    mu_u = logderiv_measure(funion, 10.0)
    rebuilt_u = rebuild_dirichlet(mu_u)
    z_new = find_real_zeros(rebuilt_u, (-20.0, 20.0))
    z_old = find_real_zeros(funion, (-20.0, 20.0))
    same_count = z_new.count == z_old.count
    zero_err = (float(np.max(np.abs(z_new.expand() - z_old.expand())))
                if same_count else math.inf)
    ok = len(rebuilt) == 2 and coeff_err < 1e-8 and same_count and zero_err < 1e-4
    _report(4, ok, f"cos coeff err {coeff_err:.1e}, union zero err {zero_err:.1e}")


def test_criterion_5_g_criterion_and_type():
    """g bounded on lattice fixtures, single-atom sup exactly 2, type ~ pi*d."""
    from qclab.diffraction import PointMeasure
    lat_rep = g_boundedness(lattice_measure(K=10), [5.0, 10.0, 20.0])
    mu6 = PointMeasure(0.6, np.array([-0.6, 0.6]), np.array([-0.6 + 0j, -0.6 + 0j]))
    sup_g = abs(g_function(mu6, 5.0 / 6.0))
    rep6 = g_boundedness(mu6, [5.0, 10.0, 20.0, 40.0])

    cos = cos_sum()
    funion = union_sum()
    type_errs = []
    for f, d_ref in ((cos, 1.0), (union_sum(), 1 + SQRT2)):
        mu = logderiv_measure(f, 10.0)
        rebuilt = rebuild_dirichlet(mu)
        est = exponential_type(rebuilt)
        type_errs.append(abs(est - math.pi * d_ref) / (math.pi * d_ref))
    type_errs.append(abs(exponential_type(cos) - math.pi) / math.pi)
    # the bound 2 * sum |b|/gamma is attained by the sampled sup of the 0.6 atom
    ok = (
        lat_rep.sup_bound == 0.0
        and rep6.sup_bound == 2.0
        and abs(rep6.windows[-1][1] - rep6.sup_bound) < 1e-9
        and abs(sup_g - 2.0) < 1e-12
        and max(type_errs) < 0.05
    )
    _report(5, ok, f"lattice sup bound {lat_rep.sup_bound}, 0.6-atom sup bound "
                   f"{rep6.sup_bound}, sampled sup {rep6.windows[-1][1]}, sup|g|={sup_g}, "
                   f"max type err {max(type_errs):.2%}")


def test_criterion_6_section2_properties():
    """Counting bounds on 1e4 random windows, period consistency, phi identity,
    the 1/a_n sums on Z+3/4."""
    uni = union_zeroset(500)
    cc = counting_constants(uni)
    e = uni.expand()
    lo, hi = uni.window
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(10_000):
        h = float(rng.uniform(0.01, (hi - lo) / 4))
        x1, x2 = rng.uniform(lo, hi - h, 2)
        c1 = int(np.searchsorted(e, x1 + h) - np.searchsorted(e, x1))
        c2 = int(np.searchsorted(e, x2 + h) - np.searchsorted(e, x2))
        if c1 > cc.k1 * (h + 1) or abs(c1 - c2) > cc.k2:
            violations += 1

    d = density(uni).d
    rep = almost_periods(uni, 0.05, (0.0, 200.0))
    period_ok = len(rep.periods) > 0 and all(
        abs(tau - h / d) <= 0.05 for tau, h, _ in rep.periods)

    phi = phi_representation(uni, d)
    phi_ok = np.array_equal(phi.reconstruct(), uni.expand())

    A34 = lattice_zeroset(0.75, 1.0, 10 ** 6)
    sums, _ = lindelof_sum(A34, [10 ** 5, 10 ** 6])
    lindelof_err = abs(sums[-1] - (-math.pi))

    ok = violations == 0 and period_ok and phi_ok and lindelof_err < 1e-3
    _report(6, ok, f"{violations} counting violations, {len(rep.periods)} periods, "
                   f"phi exact {phi_ok}, lindelof err {lindelof_err:.1e}")


def test_criterion_7_algebra_suite():
    """Submultiplicativity on 1000 pairs; (1 + H) * y = 1 below the cutoff
    for the Neumann inverse y at height 0, to rounding."""
    rng = np.random.default_rng(1)
    sub_ok = True
    for _ in range(1000):
        n1, n2 = rng.integers(2, 12, 2)
        f = canonicalize(zip(rng.uniform(-4, 4, n1),
                             rng.normal(size=n1) + 1j * rng.normal(size=n1)))
        g = canonicalize(zip(rng.uniform(-4, 4, n2),
                             rng.normal(size=n2) + 1j * rng.normal(size=n2)))
        if multiply(f, g).wiener_norm > f.wiener_norm * g.wiener_norm * (1 + 1e-12):
            sub_ok = False
            break

    worst_resid = 0.0
    for _ in range(150):
        n = int(rng.integers(2, 10))
        freqs = np.cumsum(rng.uniform(0.05, 1.0, n))
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        coeffs[0] = 1.0  # 1 + H, with ||H||_W above 1 or below
        one_plus_h = canonicalize(zip(freqs - freqs[0], coeffs))
        y = neumann_inverse(one_plus_h, 4.0)
        resid = add(multiply(one_plus_h, y, keep_freqs_up_to=4.0), constant(-1.0)).wiener_norm
        worst_resid = max(worst_resid, resid / (one_plus_h.wiener_norm * y.wiener_norm))
    ok = sub_ok and worst_resid < 1e-14
    _report(7, ok, f"submultiplicative {sub_ok}, worst residual of (1 + H) y = 1 "
                   f"{worst_resid:.1e} of ||1 + H||_W ||y||_W")


def test_criterion_8_determinism(tmp_path):
    """Repeated analyze runs with a fixed seed are byte-identical."""
    from qclab import io as qio
    from qclab.cli import main

    src = tmp_path / "cos.csv"
    qio.write_expsum(cos_sum(), src)
    args = ["analyze", "--input", str(src), "--window=-60,60", "--T", "50",
            "--seed", "42"]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    doc = json.loads(a)
    ok = code_a == code_b == 0 and a == b and doc["schema"] == 5
    _report(8, ok, f"{len(a)} byte reports, identical {a == b}")
