"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or rely on pytest's captured
stdout on failure).  Desk scale throughout: laptop, double precision.
"""

import math
import time

import numpy as np
import pytest

from waveholtz import (
    BoundarySpec,
    ForcingSchedule,
    HelmholtzProblem,
    KrylovConfig,
    LinearOperator,
    ScalarField,
    UniformGrid,
    WaveHoltzConfig,
    beta_continuous,
    dirichlet_box_spectrum,
    fixed_point_rate_bound,
    fixed_point_solve,
    gmres_solve,
    helmholtz_residual,
    modified_frequency,
    multifreq_solve,
    norm2,
    optimize_tunable_filter,
    pi_apply_spectral,
    shifted_eigenvalue,
    solve,
    trapezoid_reference,
)
from waveholtz.iteration import as_affine_system

from conftest import (
    affine_pi,
    delta_forcing,
    problem_1d,
    problem_2d,
    random_interior_field,
    reference_stencil,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {name}" + (f" ({detail})" if detail else ""))
    return ok


def test_c01_fixed_point_theorem_reproduction():
    t0 = time.perf_counter()
    p = problem_1d(omega=1.22, n=100)
    cfg = WaveHoltzConfig.build(p, periods=1, tol=1e-12, max_iters=200)
    v, rep = fixed_point_solve(p, cfg)
    wt = modified_frequency(p.omega, cfg.tg.dt)
    res = helmholtz_residual(p, v, wt)
    elapsed = time.perf_counter() - t0
    ok = rep.converged and res <= 1e-8 and elapsed < 10.0
    assert _report(1, "fixed-point solves the shifted-frequency equation", ok,
                   f"iters={rep.iters} residual={res:.2e} time={elapsed:.2f}s")


def test_c02_contraction_rate_bound():
    violations = []
    for omega in (1.22, 2.3, 4.0, 7.2, 11.0):
        p = problem_1d(omega=omega, n=100)
        cfg = WaveHoltzConfig.build(p, tol=1e-10, max_iters=4000)
        sd = dirichlet_box_spectrum(p)
        # theorem premises must hold for the bound to apply
        assert cfg.tg.dt * omega <= min(sd.delta_h, 1.0) + 1e-12
        bound = fixed_point_rate_bound(sd.delta_h)
        v, rep = fixed_point_solve(p, cfg)
        if not (rep.converged and rep.measured_rate <= bound + 0.01):
            violations.append((omega, rep.measured_rate, bound))
    assert _report(2, "measured rates sit under max(1-0.3 d^2, 0.6) + 0.01",
                   not violations, f"violations={violations}")


def test_c03_spectral_time_stepping_equivalence():
    p = problem_1d(omega=1.22, n=50)
    cfg = WaveHoltzConfig.build(p)
    pi = affine_pi(p, cfg)  # the operator that fixed point, GMRES and CG run
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        v = random_interior_field(p.grid, rng)
        a = pi(v)
        b = pi_apply_spectral(v, p, cfg)
        rel = norm2(ScalarField(p.grid, a.values - b.values)) / max(norm2(a), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-10
    assert _report(3, "eigenspace and time-stepping operators agree", ok,
                   f"worst rel diff={worst:.2e}")


def test_c04_corrected_drive_solves_true_equation():
    p = problem_1d(omega=1.22, n=100)
    cfg = WaveHoltzConfig.build(p, tol=1e-12, max_iters=300, correction=True)
    v, rep = fixed_point_solve(p, cfg)
    res = helmholtz_residual(p, v, p.omega)
    ok = rep.converged and res <= 1e-8
    assert _report(4, "corrected drive satisfies the unmodified equation", ok,
                   f"residual={res:.2e}")


def test_c05_trapezoid_lemma():
    # Fair fixed-seed sampling of the lemma's stated domain |alpha/M| <= pi.
    # The error is exactly |sin a| (1 - g(ha)) / |a| with
    # x^2/12 <= 1 - g(x) <= x^2/pi^2 on |x| <= pi, so the uniform bound is
    # |a| / (pi^2 M^2) and the leading-order term |sin a| |a| / (12 M^2) is
    # matched to within the factor 12/pi^2 (see notes/decisions.md).
    rng = np.random.default_rng(20240501)
    sharp_ratio = 12.0 / math.pi**2
    closed_ok = True
    bound_failures = []
    ratio_failures = []
    ratios = []
    for _ in range(50):
        M = int(rng.integers(1, 500))
        alpha = float(rng.uniform(-math.pi * M, math.pi * M))
        if alpha == 0.0:
            alpha = 1.0
        r = trapezoid_reference(alpha, M)
        if abs(r.direct - r.closed) > 1e-13:
            closed_ok = False
        err = abs(r.exact - r.direct)
        sharp = abs(alpha) / (math.pi**2 * M**2)
        if err > sharp or not math.isclose(r.error_bound, sharp, rel_tol=1e-14):
            bound_failures.append((alpha, M, err, sharp, r.error_bound))
        # two-sided leading-order check, with the closed-form tolerance as
        # the roundoff slack on the direct sum
        lead = abs(math.sin(alpha)) * abs(alpha) / (12.0 * M**2)
        if lead < 1e-12:
            continue
        ratios.append(err / lead)
        if not lead - 1e-13 <= err <= sharp_ratio * lead + 1e-13:
            ratio_failures.append((alpha, M, err / lead))

    # pinned counterexample to the 1/12 constant: alpha = pi/2, M = 1
    r = trapezoid_reference(math.pi / 2, 1)
    err = abs(r.exact - r.direct)
    counter_ok = math.pi / 24 < err <= 1.0 / (2.0 * math.pi)

    _report(5, "trapezoid closed form matches the direct sum to 1e-13", closed_ok)
    lemma_ok = not bound_failures and not ratio_failures and counter_ok
    _report(5, "trapezoid error within |alpha|/(pi^2 M^2), ratio to "
               "|sin a||a|/(12 M^2) in [1, 12/pi^2] on 50 fair samples",
            lemma_ok,
            f"{len(bound_failures)} bound and {len(ratio_failures)} ratio "
            f"violations, ratios in [{min(ratios):.7f}, {max(ratios):.4f}] "
            f"over {len(ratios)} samples, alpha=pi/2 M=1 error {err:.5f} "
            f"in (pi/24, 1/(2 pi)]: {counter_ok}")
    assert closed_ok and lemma_ok, (bound_failures[:1], ratio_failures[:1], err)


def test_c06_filter_bound_suite():
    failures = []
    if abs(beta_continuous(1.0) - 1.0) > 1e-14:
        failures.append("beta(1) != 1")
    if abs(beta_continuous(0.0) + 0.5) > 1e-14:
        failures.append("beta(0) != -1/2")
    r = np.concatenate([np.linspace(0.0, 0.5, 500),
                        np.linspace(1.5, 50.0, 500)])
    if np.any(np.abs(beta_continuous(r)) > 0.5 + 1e-14):
        failures.append("|beta| > 1/2 on [0,.5] U [1.5,50]")
    delta = np.linspace(-0.5, 0.5, 200)
    b = beta_continuous(1.0 + delta)
    if np.any(b < -1e-14) or np.any(b > 1.0 - delta**2 / 2.0 + 1e-14):
        failures.append("peak bracket 0 <= beta(1+d) <= 1 - d^2/2 violated")
    assert _report(6, "closed-form filter bound suite", not failures,
                   ", ".join(failures) or "1200 samples, zero violations")


def test_c07_multifrequency_second_order():
    t0 = time.perf_counter()
    omegas = np.array([1.0, 2.0, 4.0, 8.0])

    def solve_on(n):
        grid = UniformGrid.line(0.0, 1.0, n)
        fd = delta_forcing(grid)
        p = HelmholtzProblem(grid, ScalarField.constant(grid, 1.0), fd, 1.0,
                             BoundarySpec.all_dirichlet(1))
        sched = ForcingSchedule([fd] * 4, omegas)
        cfg = WaveHoltzConfig.build(p, schedule=sched, tol=1e-11, max_iters=800)
        res = multifreq_solve(p, cfg, method="cg")
        assert res.report.converged
        errs = []
        x = grid.axis_coords(0)
        for i, w in enumerate(omegas):
            s = 0.5
            exact = np.where(
                x <= s,
                np.sin(w * x) * np.sin(w * (1 - s)),
                np.sin(w * s) * np.sin(w * (1 - x)),
            ) / (w * math.sin(w))
            errs.append(float(np.sqrt(grid.h[0]
                                      * np.sum((res.solutions[i].values - exact) ** 2))))
        return np.array(errs)

    errors = {n: solve_on(n) for n in (40, 80, 160, 320)}
    bad = []
    for i, w in enumerate(omegas):
        for na, nb in ((40, 80), (80, 160), (160, 320)):
            ratio = errors[na][i] / errors[nb][i]
            if not 3.2 <= ratio <= 4.8:
                bad.append((float(w), na, round(ratio, 3)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    assert _report(7, "multi-frequency extraction converges at second order", ok,
                   f"bad ratios={bad} time={elapsed:.1f}s")


def _sweep_problem(omega):
    n = 10 * int(math.ceil(omega))
    grid = UniformGrid.line(-6.0, 6.0, n)
    x = grid.axis_coords(0)
    f = ScalarField(grid, omega**2 * np.exp(-((omega * x) ** 2)))
    return HelmholtzProblem(grid, ScalarField.constant(grid, 1.0), f, omega,
                            BoundarySpec.all_dirichlet(1))


def test_c08_gmres_iteration_scaling():
    omegas = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    iters = []
    for omega in omegas:
        p = _sweep_problem(omega)
        cfg = WaveHoltzConfig.build(p, tol=1e-10, max_iters=2000)
        _, rep = solve(p, cfg, method="gmres",
                       krylov=KrylovConfig(tol=1e-10, restart=1000, max_iters=1000))
        assert rep.converged
        iters.append(rep.iters)
    slope = float(np.polyfit(np.log(omegas), np.log(iters), 1)[0])
    ok = 0.8 <= slope <= 1.3
    assert _report(8, "GMRES iteration count scales linearly in omega", ok,
                   f"iters={iters} slope={slope:.3f}")


def test_c09_near_resonance_robustness():
    omegas = np.linspace(19.0, 19.25, 21)
    gmres_iters = []
    deltas = []
    for omega in omegas:
        p = _sweep_problem(float(omega))
        cfg = WaveHoltzConfig.build(p, tol=1e-10, max_iters=2000)
        _, rep = solve(p, cfg, method="gmres",
                       krylov=KrylovConfig(tol=1e-10, restart=500, max_iters=1500))
        gmres_iters.append(rep.iters if rep.converged else 10**6)
        deltas.append(dirichlet_box_spectrum(p).delta_h)
    gmres_iters = np.array(gmres_iters)
    median = float(np.median(gmres_iters))
    worst_ratio = float(gmres_iters.max() / median)

    # plain iteration at the sweep point closest to a discrete resonance
    worst = int(np.argmin(deltas))
    p = _sweep_problem(float(omegas[worst]))
    cfg = WaveHoltzConfig.build(p, tol=1e-10, max_iters=2000)
    _, rep_plain = fixed_point_solve(p, cfg)
    ok = worst_ratio <= 5.0 and not rep_plain.converged and rep_plain.iters == 2000
    assert _report(
        9, "GMRES stays robust across a resonance while plain iteration stalls",
        ok, f"max/median={worst_ratio:.2f} plain_iters={rep_plain.iters} "
            f"plain_converged={rep_plain.converged} at omega={omegas[worst]:.4f}")


def test_c10_closed_geometry_needs_more_iterations():
    t0 = time.perf_counter()
    counts = {"closed": [], "open": []}
    omegas = [8.5, 10.5, 12.5]
    for omega in omegas:
        for label, bc in (("closed", "dirichlet"), ("open", "impedance")):
            p = problem_2d(omega=omega, bc=bc)
            cfg = WaveHoltzConfig.build(p, periods=10, scheme="rk4",
                                        tol=1e-7, max_iters=1000)
            _, rep = solve(p, cfg, method="gmres",
                           krylov=KrylovConfig(tol=1e-7, restart=100,
                                               max_iters=1000))
            assert rep.converged
            counts[label].append(rep.iters)
    ordered = all(c > o for c, o in zip(counts["closed"], counts["open"]))
    elapsed = time.perf_counter() - t0
    # trend exponents are informational only at this frequency range
    exp_closed = float(np.polyfit(np.log(omegas), np.log(counts["closed"]), 1)[0])
    exp_open = float(np.polyfit(np.log(omegas), np.log(counts["open"]), 1)[0])
    ok = ordered and elapsed < 600.0
    assert _report(
        10, "trapping (all-Dirichlet) box iterates more than the open box", ok,
        f"closed={counts['closed']} open={counts['open']} "
        f"exponents closed~w^{exp_closed:.2f} open~w^{exp_open:.2f} "
        f"time={elapsed:.0f}s")


def test_c11_tunable_filter_beats_standard_near_resonance():
    omega = 4.1 * math.pi
    # odd n: a mid-node delta would have zero overlap with the resonant mode
    p = problem_1d(omega=omega, n=129, forcing="delta")
    sd = dirichlet_box_spectrum(p)
    assert sd.delta_h == pytest.approx(0.025, abs=0.002)

    cfg = WaveHoltzConfig.build(p, tol=1e-8, max_iters=20000)
    lam_t = shifted_eigenvalue(sd.lambdas, cfg.tg.dt)
    design = optimize_tunable_filter(
        omega, 4.0 * math.pi, 12, cfg.tg,
        sample_hi=float(lam_t.max()) * 1.02, n_samples=800,
        extra_penalty_points=lam_t, seed=7,
    )
    assert design.cost < design.standard_cost

    cfg_opt = WaveHoltzConfig.build(p, tol=1e-8, max_iters=20000, spec=design.spec)
    v_opt, rep_opt = fixed_point_solve(p, cfg_opt)

    cfg_std = WaveHoltzConfig.build(p, tol=1e-8, max_iters=rep_opt.iters)
    v_std, rep_std = fixed_point_solve(p, cfg_std)

    ok = rep_opt.converged and not rep_std.converged
    assert _report(
        11, "optimized 12-coefficient filter converges strictly faster", ok,
        f"optimized={rep_opt.iters} iters (converged={rep_opt.converged}); "
        f"standard residual {rep_std.residual_history[-1]:.2e} after the same "
        f"{rep_std.iters} iters")


def test_c12_dense_iteration_matrix_is_positive_definite():
    p = problem_1d(omega=1.22, n=40)
    cfg = WaveHoltzConfig.build(p)
    A, _ = as_affine_system(p, cfg)
    free = np.flatnonzero(~p.dirichlet_mask.ravel())
    M = np.zeros((free.size, free.size))
    for k, idx in enumerate(free):
        e = np.zeros(A.dimension)
        e[idx] = 1.0
        M[:, k] = A.apply(e)[free]
    ev = np.linalg.eigvals(M)
    rho = fixed_point_rate_bound(dirichlet_box_spectrum(p).delta_h)
    ok = bool(np.all(ev.real >= 1.0 - rho - 1e-8)
              and np.all(np.abs(ev.imag) <= 1e-8))
    assert _report(
        12, "assembled I - S has real spectrum bounded away from zero", ok,
        f"min Re={ev.real.min():.6f} (floor {1 - rho:.3f}) "
        f"max |Im|={np.abs(ev.imag).max():.1e}")


def test_c13_whi_beats_direct_gmres():
    omega = 15.5
    p = problem_2d(omega=omega, bc="dirichlet")
    cfg = WaveHoltzConfig.build(p, periods=10, scheme="leapfrog",
                                tol=1e-7, max_iters=600)
    _, rep = solve(p, cfg, method="gmres",
                   krylov=KrylovConfig(tol=1e-7, restart=100, max_iters=600))
    assert rep.converged
    whi_evals = rep.operator_applications * cfg.tg.steps

    # restarted GMRES(100) on the directly discretized operator -L + omega^2,
    # granted exactly the budget (in matrix applications = rhs evaluations)
    # that the filtered-wave solve needed
    free = np.flatnonzero(~p.dirichlet_mask.ravel())
    shape = p.grid.shape

    def direct_apply(x):
        w = np.zeros(p.grid.num_nodes)
        w[free] = x
        lw = reference_stencil(p, w.reshape(shape)).ravel()
        return -lw[free] + omega**2 * x

    A = LinearOperator(free.size, direct_apply)
    b = p.forcing.values.ravel()[free]
    _, rep_direct = gmres_solve(
        A, b, KrylovConfig(tol=1e-7, restart=100, max_iters=whi_evals)
    )
    ok = not rep_direct.converged
    assert _report(
        13, "filtered-wave GMRES needs fewer rhs evaluations than direct GMRES",
        ok, f"whi_evals={whi_evals} direct residual after same budget="
            f"{rep_direct.residual_history[-1]:.2e}")
