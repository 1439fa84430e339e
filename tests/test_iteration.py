import math
import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from waveholtz import (
    FilterSpec,
    ForcingSchedule,
    HelmholtzProblem,
    IndefiniteOperatorError,
    IterationReport,
    KrylovConfig,
    ScalarField,
    TimeGrid,
    WaveHoltzConfig,
    WaveState,
    as_affine_system,
    beta_by_quadrature,
    dirichlet_box_spectrum,
    direct_helmholtz_solve,
    evolve_and_filter,
    fixed_point_rate_bound,
    fixed_point_solve,
    helmholtz_residual,
    modified_frequency,
    multifreq_solve,
    norm2,
    shifted_eigenvalue,
    solve,
)
from waveholtz import iteration
from waveholtz.krylov import cg_solve
from waveholtz.oracle import sine_transform

from conftest import affine_pi, delta_forcing, problem_1d, problem_2d


def test_pi_fixed_point_is_vinf():
    p = problem_1d(omega=1.22, n=60)
    cfg = WaveHoltzConfig.build(p)
    vinf = direct_helmholtz_solve(p, modified_frequency(p.omega, cfg.tg.dt))
    out = affine_pi(p, cfg)(vinf)
    assert norm2(ScalarField(p.grid, out.values - vinf.values)) < 1e-10 * norm2(vinf)


def test_pi_of_zero_modal_coefficients():
    # Pi(0) has sine coefficients (1 - beta_h(lambda_tilde_j)) vinf_j
    p = problem_1d(omega=2.0, n=32)
    cfg = WaveHoltzConfig.build(p)
    out = affine_pi(p, cfg)(ScalarField.zeros(p.grid))
    lam = (2.0 / p.grid.h[0]) * np.sin(
        np.arange(1, p.grid.n[0]) * math.pi / (2 * p.grid.n[0])
    )
    betas = beta_by_quadrature(shifted_eigenvalue(lam, cfg.tg.dt), cfg.spec, cfg.tg)
    vinf = sine_transform(direct_helmholtz_solve(
        p, modified_frequency(p.omega, cfg.tg.dt)))
    expect = (1.0 - betas) * vinf
    got = sine_transform(out)
    assert np.max(np.abs(got - expect)) < 1e-11 * max(1.0, np.max(np.abs(vinf)))


def test_pi_zero_forcing_linear():
    p = problem_1d(n=30, forcing="zero")
    cfg = WaveHoltzConfig.build(p)
    out = affine_pi(p, cfg)(ScalarField.zeros(p.grid))
    assert not np.any(out.values)


def test_fixed_point_converges_and_satisfies_helmholtz():
    p = problem_1d(omega=1.22, n=60)
    cfg = WaveHoltzConfig.build(p, tol=1e-12, max_iters=100)
    v, rep = fixed_point_solve(p, cfg)
    assert rep.converged
    wt = modified_frequency(p.omega, cfg.tg.dt)
    assert helmholtz_residual(p, v, wt) < 1e-9


def test_fixed_point_rate_respects_bound():
    p = problem_1d(omega=2.3, n=60)
    cfg = WaveHoltzConfig.build(p, tol=1e-10, max_iters=500)
    v, rep = fixed_point_solve(p, cfg)
    sd = dirichlet_box_spectrum(p)
    assert rep.converged
    assert rep.measured_rate <= fixed_point_rate_bound(sd.delta_h) + 0.01


def test_fixed_point_stagnation_is_resonant_mode():
    # Near resonance the increment aligns with the resonant eigenfunction.
    # n must be odd: a delta exactly at x = 1/2 has zero overlap with
    # sin(4 pi x), so the resonant mode would never be excited.
    omega = 4.1 * math.pi
    p = problem_1d(omega=omega, n=129, forcing="delta")
    cfg = WaveHoltzConfig.build(p, tol=1e-14, max_iters=1)
    pi = affine_pi(p, cfg)
    v = ScalarField.zeros(p.grid)
    prev = v
    for _ in range(700):
        prev, v = v, pi(v)
    inc = v.values - prev.values
    x = p.grid.axis_coords(0)
    mode = np.sin(4 * math.pi * x)
    mode[0] = mode[-1] = 0.0
    cosang = abs(float(inc @ mode)) / (
        np.linalg.norm(inc) * np.linalg.norm(mode)
    )
    assert cosang > 0.99


def test_fixed_point_nonconvergence_is_flagged_not_raised():
    p = problem_1d(omega=4.1 * math.pi, n=100, forcing="delta")
    cfg = WaveHoltzConfig.build(p, tol=1e-12, max_iters=20)
    v, rep = fixed_point_solve(p, cfg)
    assert not rep.converged
    assert rep.iters == 20


@pytest.mark.parametrize("bc,omega", [("dirichlet", 2.3), ("impedance", 6.0)])
def test_fixed_point_matches_forced_reference_loop(bc, omega):
    # S x + b from one forced solve against x <- Pi(x) forced every iteration:
    # the same iteration count and the same iterate to roundoff
    p = problem_1d(omega=omega, n=60, bc=bc)
    cfg = WaveHoltzConfig.build(p, tol=1e-10, max_iters=500)
    v, rep = fixed_point_solve(p, cfg)
    sched = ForcingSchedule([p.forcing], [cfg.tg.omega])
    x = np.zeros(p.grid.num_nodes * (2 if cfg.scheme == "rk4" else 1))
    history, denom = [], None
    while not history or (history[-1] > cfg.tol and len(history) < cfg.max_iters):
        x_new, _ = evolve_and_filter(x, sched, p, cfg.tg, cfg.spec, cfg.scheme)
        inc = float(np.linalg.norm(x_new - x))
        x, denom = x_new, denom or inc
        history.append(inc / denom)
    assert rep.converged and rep.iters == len(history) > 2
    got = (np.concatenate([v.w.values.ravel(), v.v.values.ravel()])
           if cfg.scheme == "rk4" else v.values.ravel())
    assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)
    assert np.allclose(rep.residual_history, history, rtol=1e-6, atol=1e-14)


def test_fixed_point_forces_only_its_first_wave_solve(monkeypatch):
    # one forced solve builds b, then one unforced solve per later iteration,
    # each made through the module attributes a tracer would wrap: the later
    # ones as applications of as_affine_system's A
    calls, applications = [], []
    real, affine = iteration.evolve_and_filter, iteration.as_affine_system

    def counting(x, schedule, *args, **kwargs):
        calls.append(schedule is not None)
        return real(x, schedule, *args, **kwargs)

    def counted_system(*args, **kwargs):
        A, b = affine(*args, **kwargs)
        apply = A.apply
        A.apply = lambda x: (applications.append(1), apply(x))[1]
        return A, b

    monkeypatch.setattr(iteration, "evolve_and_filter", counting)
    monkeypatch.setattr(iteration, "as_affine_system", counted_system)
    p = problem_1d(omega=2.3, n=60)
    _, rep = fixed_point_solve(p, WaveHoltzConfig.build(p, tol=1e-10, max_iters=500))
    assert rep.converged and rep.iters > 2
    assert calls == [True] + [False] * (rep.iters - 1)
    assert rep.operator_applications == rep.iters
    assert len(applications) == rep.operator_applications - 1


@pytest.mark.parametrize("bc", ["dirichlet", "impedance"])
def test_fixed_point_solve_is_solve(bc, monkeypatch):
    # fixed_point_solve runs through iteration.solve, the one place that times
    # and counts a solve, and returns what solve returns, under both schemes
    calls = []
    real = iteration.solve

    def recorded(*args, **kwargs):
        calls.append(args[2:] + tuple(kwargs.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(iteration, "solve", recorded)
    p = problem_1d(omega=2.3, n=40, bc=bc)
    cfg = WaveHoltzConfig.build(p, tol=1e-8, max_iters=300)
    assert cfg.scheme == ("leapfrog" if bc == "dirichlet" else "rk4")
    v, rep = fixed_point_solve(p, cfg)
    assert calls == [("fixed_point",)]
    w, ref = real(p, cfg, "fixed_point")
    if cfg.scheme == "rk4":
        assert np.array_equal(v.w.values, w.w.values)
        assert np.array_equal(v.v.values, w.v.values)
    else:
        assert np.array_equal(v.values, w.values)
    assert rep.converged
    assert replace(rep, wall_time=0.0) == replace(ref, wall_time=0.0)


def test_affine_system_properties(rng):
    p = problem_1d(omega=1.22, n=40)
    cfg = WaveHoltzConfig.build(p)
    A, b = as_affine_system(p, cfg)
    zero = np.zeros(A.dimension)
    assert not np.any(A.apply(zero))
    x = rng.standard_normal(A.dimension)
    y = rng.standard_normal(A.dimension)
    lhs = A.apply(1.3 * x - 0.4 * y)
    rhs = 1.3 * A.apply(x) - 0.4 * A.apply(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(1.0, np.max(np.abs(rhs)))
    # the fixed point solves the system
    vinf = direct_helmholtz_solve(p, modified_frequency(p.omega, cfg.tg.dt))
    res = b - A.apply(vinf.values.ravel())
    assert np.linalg.norm(res) < 1e-10 * np.linalg.norm(b)


def test_affine_system_positive_definite_witness(rng):
    p = problem_1d(omega=1.22, n=40)
    cfg = WaveHoltzConfig.build(p)
    A, _ = as_affine_system(p, cfg)
    mask = p.dirichlet_mask.ravel()
    for _ in range(100):
        x = rng.standard_normal(A.dimension)
        x[mask] = 0.0
        assert float(x @ A.apply(x)) > 0.0


def test_corrected_drive_solves_true_helmholtz():
    p = problem_1d(omega=1.22, n=60)
    cfg = WaveHoltzConfig.build(p, tol=1e-12, max_iters=200, correction=True)
    v, rep = fixed_point_solve(p, cfg)
    assert rep.converged
    assert helmholtz_residual(p, v, p.omega) <= 10 * 1e-8
    # the correction carries through the affine reformulation unchanged
    vg, rg = solve(p, cfg, method="gmres")
    assert rg.converged
    assert helmholtz_residual(p, vg, p.omega) <= 10 * 1e-8


@pytest.mark.parametrize("omega", [10.0, 20.0])
def test_corrected_drive_exact_at_coarse_dt(omega):
    # C08 grid (10 nodes per unit omega on [-6, 6]) with dt*omega near 0.77:
    # the drive, window and filter all run at omega_bar, so beta_h = 1 there
    p = problem_1d(omega=omega, n=10 * int(omega), lo=-6.0, hi=6.0)
    cfg = WaveHoltzConfig.build(p, tol=1e-10, correction=True)
    assert cfg.tg.dt * omega > 0.7
    assert modified_frequency(cfg.tg.omega, cfg.tg.dt) == pytest.approx(omega, rel=1e-14)
    v, rep = solve(p, cfg, method="gmres",
                   krylov=KrylovConfig(restart=1000, tol=1e-10, max_iters=1000))
    assert rep.converged
    assert helmholtz_residual(p, v, omega) <= 1e-9


def test_correction_rejects_rk4_and_several_frequencies():
    with pytest.raises(ValueError, match="leapfrog"):
        WaveHoltzConfig.build(problem_1d(bc="impedance"), correction=True)
    p = problem_1d(omega=1.0)
    with pytest.raises(ValueError, match="takes no schedule"):
        WaveHoltzConfig.build(p, schedule=ForcingSchedule([p.forcing] * 2, [1.0, 2.0]),
                              correction=True)
    # a schedule driven off the corrected grid frequency is refused
    cfg = WaveHoltzConfig.build(p, correction=True)
    with pytest.raises(ValueError, match="schedule"):
        solve(p, replace(cfg, schedule=ForcingSchedule.single(p)))


def test_krylov_wall_time_includes_b_solve():
    from conftest import problem_2d

    p = problem_2d(omega=8.5, n=48)
    cfg = WaveHoltzConfig.build(p, periods=2)
    t0 = time.perf_counter()
    _, rep = solve(p, cfg, method="cg", krylov=KrylovConfig(method="cg", max_iters=1))
    outside = time.perf_counter() - t0
    assert rep.operator_applications == 2  # b and one step; r0 = b costs none
    assert rep.wall_time >= 0.9 * outside


def _count_wave_solves(monkeypatch):
    """A list that gains one entry per call of ``iteration.evolve_and_filter``."""
    evolve, calls = iteration.evolve_and_filter, []

    def counted(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(iteration, "evolve_and_filter", counted)
    return calls


def _count_steps(monkeypatch):
    """A list that gains one entry per leapfrog step of any wave solve."""
    from waveholtz import wavesolver

    products, steps = wavesolver._products, []

    def counted(problem, dt, scheme):
        Kx = products(problem, dt, scheme)
        return lambda x, out: (steps.append(1), Kx(x, out))

    monkeypatch.setattr(wavesolver, "_products", counted)
    return steps


@pytest.mark.parametrize("hi,n", [(2.0, 40), (1.0, 50)])
def test_solve_rejects_a_schedule_on_another_grid(hi, n, monkeypatch):
    # a forcing on [0, 2] with the problem's node count, or on [0, 1] with
    # another, fails before the first leapfrog step
    from waveholtz import GridMismatchError, UniformGrid

    p = problem_1d(omega=2.0, n=40)
    grid = UniformGrid.line(0.0, hi, n)
    sched = ForcingSchedule([ScalarField.constant(grid, 1.0)], [p.omega])
    steps = _count_steps(monkeypatch)
    with pytest.raises(GridMismatchError):
        solve(p, WaveHoltzConfig.build(p, schedule=sched), "gmres")
    assert not steps


@pytest.mark.parametrize("entry", ["solve", "evolve_and_filter"])
@pytest.mark.parametrize("drive,filtered", [((1.0, 2.0), (1.0,)), ((1.0,), (1.0, 2.0)),
                                            ((1.0, 3.0), (1.0, 2.0))])
def test_forced_solve_rejects_a_schedule_off_its_filter(entry, drive, filtered,
                                                        monkeypatch):
    # the filter is the whole averaging weight: a drive at other frequencies
    # than the filter's, even one sharing its lowest, fails before any step
    p = problem_1d(omega=2.0, n=40)
    sched = ForcingSchedule([p.forcing] * len(drive), [p.omega * w for w in drive])
    cfg = WaveHoltzConfig.build(p, schedule=sched,
                                spec=FilterSpec([p.omega * w for w in filtered]))
    steps = _count_steps(monkeypatch)
    with pytest.raises(ValueError, match="schedule"):
        if entry == "solve":
            solve(p, cfg, "gmres")
        else:
            evolve_and_filter(np.zeros(p.grid.num_nodes), sched, p, cfg.tg, cfg.spec,
                              cfg.scheme)
    assert not steps


@pytest.mark.parametrize("method,other", [("cg", "gmres"), ("gmres", "cg"),
                                          ("fixed_point", "gmres")])
def test_solve_rejects_a_krylov_config_of_another_method(method, other, monkeypatch):
    p = problem_1d(omega=2.0, n=40)
    calls = _count_wave_solves(monkeypatch)
    with pytest.raises(ValueError, match="KrylovConfig"):
        solve(p, WaveHoltzConfig.build(p), method,
              krylov=KrylovConfig(method=other, restart=2))
    assert not calls


@pytest.mark.parametrize("bc", ["dirichlet", "impedance"])
def test_solve_rejects_cg_under_rk4(bc, monkeypatch):
    # the rk4 A acts on the (w, v) pair and is not self-adjoint: CG ran its
    # whole budget there and returned a diverged iterate without an error
    p = problem_1d(omega=2.0, n=40, bc=bc)
    cfg = WaveHoltzConfig.build(p, scheme="rk4")
    calls = _count_wave_solves(monkeypatch)
    with pytest.raises(ValueError, match="cg needs leapfrog"):
        solve(p, cfg, method="cg")
    assert not calls


def test_krylov_methods_agree_with_fixed_point():
    p = problem_1d(omega=2.0, n=50)
    cfg = WaveHoltzConfig.build(p, tol=1e-11, max_iters=400)
    vf, _ = fixed_point_solve(p, cfg)
    vg, rg = solve(p, cfg, method="gmres")
    vc, rc = solve(p, cfg, method="cg")
    assert rg.converged and rc.converged
    scale = norm2(vf)
    assert norm2(ScalarField(p.grid, vg.values - vf.values)) < 1e-9 * scale
    assert norm2(ScalarField(p.grid, vc.values - vf.values)) < 1e-9 * scale


@pytest.mark.parametrize("make", [
    lambda: problem_1d(omega=5.3, n=80, bc="neumann"),
    lambda: problem_2d(omega=2.0, n=9, bc=("neumann", "neumann", "dirichlet", "neumann")),
], ids=["1d-neumann", "2d-mixed"])
def test_cg_on_neumann_sides_matches_gmres(make):
    # the system runs in y = s v, s = sqrt(W), where A is symmetric: plain CG
    # needs no more iterations than GMRES, and both report ||b - A y|| / ||b||,
    # the trapezoid-rule norm of the residual
    p = make()
    weight = np.ones(p.grid.shape)  # 1/2 per Neumann side a node lies on
    weight[[0, -1]] = 0.5  # x_lo and x_hi (both cases)
    if p.grid.dim == 2:  # y_lo Dirichlet, y_hi Neumann
        weight[:, -1] *= 0.5
        assert weight[0, -1] == weight[-1, -1] == 0.25 and weight[0, 0] == 0.5
    assert np.array_equal(p.trapezoid_weight, weight.ravel())
    cfg = WaveHoltzConfig.build(p, tol=1e-10, max_iters=200)
    vg, rg = solve(p, cfg, method="gmres")
    vc, rc = solve(p, cfg, method="cg")
    assert rg.converged and rc.converged
    assert rc.iters <= rg.iters + 2
    assert norm2(ScalarField(p.grid, vc.values - vg.values)) <= 1e-8 * norm2(vg)
    A, b = as_affine_system(p, cfg)
    s = np.sqrt(weight.ravel())
    for v, rep in ((vc, rc), (vg, rg)):
        true = np.linalg.norm(b - A.apply(s * v.values.ravel())) / np.linalg.norm(b)
        assert true <= cfg.tol
        assert abs(true - rep.residual_history[-1]) <= 1e-3 * cfg.tol


def test_cg_on_dirichlet_box_uses_the_plain_system():
    p = problem_1d(omega=2.0, n=30)
    cfg = WaveHoltzConfig.build(p, tol=1e-10)
    A, b = as_affine_system(p, cfg)
    x, rep = cg_solve(A, b, KrylovConfig(method="cg", tol=1e-10,
                                         max_iters=cfg.max_iters))
    v, rc = solve(p, cfg, method="cg")
    assert np.array_equal(v.values.ravel(), x)
    assert rc.residual_history == rep.residual_history
    assert rep.wall_time == 0.0 < rc.wall_time  # only solve keeps the clock


def test_impedance_solve_returns_state():
    p = problem_1d(omega=5.0, n=60, bc="impedance")
    cfg = WaveHoltzConfig.build(p, periods=5, tol=1e-9, max_iters=200)
    assert cfg.scheme == "rk4"
    v, rep = solve(p, cfg, method="gmres")
    assert rep.converged
    assert isinstance(v, WaveState)


def test_multifreq_single_frequency_degenerates(monkeypatch):
    # one frequency needs no extra period: the solution is the combined field
    p = problem_1d(omega=2.0, n=40, forcing="delta")
    sched = ForcingSchedule([p.forcing], np.array([2.0]))
    cfg = WaveHoltzConfig.build(p, schedule=sched, tol=1e-11, max_iters=300)
    calls = _count_wave_solves(monkeypatch)
    res = multifreq_solve(p, cfg, method="cg")
    assert res.report.converged
    assert len(calls) == res.report.operator_applications
    assert len(res.solutions) == 1
    assert np.max(np.abs(res.solutions[0].values - res.combined.values)) < 1e-14
    # several frequencies: the extraction period counts as one more wave solve
    sched = ForcingSchedule([p.forcing] * 3, [2.0, 4.0, 6.0])
    calls.clear()
    res = multifreq_solve(p, WaveHoltzConfig.build(p, schedule=sched, tol=1e-10))
    assert res.report.converged and len(res.solutions) == 3
    assert len(calls) == res.report.operator_applications


def test_multifreq_filter_can_make_a_indefinite():
    # at omega = 4, 8, 12 the three-frequency transfer function exceeds 1 on a
    # shifted eigenvalue, so A is indefinite: CG fails and the default GMRES
    # converges
    p = problem_1d(omega=4.0, n=100)
    omegas = [4.0, 8.0, 12.0]
    sched = ForcingSchedule([p.forcing] * 3, omegas)
    cfg = WaveHoltzConfig.build(p, schedule=sched, tol=1e-10)
    lam_t = shifted_eigenvalue(dirichlet_box_spectrum(p).lambdas, cfg.tg.dt)
    assert beta_by_quadrature(lam_t, cfg.spec, cfg.tg).max() > 1.0
    res = multifreq_solve(p, cfg)
    assert res.report.converged
    with pytest.raises(IndefiniteOperatorError):
        multifreq_solve(p, cfg, method="cg")


def test_multifreq_rejects_non_integer_ratios():
    p = problem_1d(omega=1.0, n=30, forcing="delta")
    sched = ForcingSchedule([p.forcing, p.forcing], np.array([1.0, 2.5]))
    cfg = WaveHoltzConfig.build(p, schedule=sched)
    with pytest.raises(ValueError):
        multifreq_solve(p, cfg)


def test_multifreq_extracts_components():
    fd_omegas = np.array([1.0, 2.0])
    p = problem_1d(omega=1.0, n=60, forcing="delta")
    fd = delta_forcing(p.grid)
    sched = ForcingSchedule([fd, fd], fd_omegas)
    cfg = WaveHoltzConfig.build(p, schedule=sched, tol=1e-11, max_iters=400)
    res = multifreq_solve(p, cfg, method="cg")
    assert res.report.converged
    for u, om in zip(res.solutions, fd_omegas):
        pj = problem_1d(omega=float(om), n=60, forcing="delta")
        ref = direct_helmholtz_solve(pj, modified_frequency(float(om), cfg.tg.dt))
        assert np.max(np.abs(u.values - ref.values)) \
            < 1e-7 * max(1.0, np.max(np.abs(ref.values)))


def _direct(omegas, dt, n):
    """The direct solve at each omega's leapfrog image, on the delta-forced line."""
    return [direct_helmholtz_solve(problem_1d(omega=om, n=n, forcing="delta"),
                                   modified_frequency(om, dt)).values for om in omegas]


def _assert_separates(p, cfg, omegas):
    res = multifreq_solve(p, cfg, method="gmres")
    assert res.report.converged
    for u, ref in zip(res.solutions, _direct(omegas, cfg.tg.dt, p.grid.n[0])):
        assert np.max(np.abs(u.values - ref)) < 1e-10 * np.max(np.abs(ref))


def test_config_rejects_a_drive_off_whole_half_cycles_before_solving(monkeypatch):
    # omega = 4 and 5 over one period of 4: omega = 5 makes 2.5 half cycles,
    # where beta_h(5) = 1.64, not 1, and the field GMRES converged to was 4.2
    # (relative, max norm) away from the sum of the direct solves.  Every
    # construction of the config raises before any wave solve
    p = problem_1d(omega=4.0, n=100, forcing="delta")
    sched = ForcingSchedule([p.forcing] * 2, [4.0, 5.0])
    calls = _count_wave_solves(monkeypatch)
    with pytest.raises(ValueError, match="whole half cycles"):
        WaveHoltzConfig.build(p, schedule=sched)
    ok = WaveHoltzConfig.build(p, schedule=ForcingSchedule([p.forcing] * 2, [4.0, 6.0]))
    with pytest.raises(ValueError, match="whole half cycles"):
        WaveHoltzConfig(ok.tg, FilterSpec([4.0, 5.0]), schedule=sched)
    with pytest.raises(ValueError, match="whole half cycles"):
        replace(ok, spec=FilterSpec([4.0, 5.0]), schedule=sched)
    assert not calls


def test_half_cycle_drive_solves_to_the_direct_sum():
    # omega = 4 and 6 over one period of 4: 6 makes 1.5 cycles, whole half
    # cycles, so beta_h = 1 at both and the fixed point is the sum of the
    # direct solves, though the projection cannot separate it
    p = problem_1d(omega=4.0, n=100, forcing="delta")
    sched = ForcingSchedule([p.forcing] * 2, [4.0, 6.0])
    cfg = WaveHoltzConfig.build(p, schedule=sched, tol=1e-12)
    v, rep = solve(p, cfg, "gmres")
    assert rep.converged
    ref = sum(_direct([4.0, 6.0], cfg.tg.dt, 100))
    assert np.max(np.abs(v.values - ref)) < 1e-9 * np.max(np.abs(ref))
    with pytest.raises(ValueError, match="whole cycles"):
        multifreq_solve(p, cfg)


def test_multifreq_separates_whole_cycles_off_integer_ratios():
    # omega = 4 and 6 over two periods of 4 make 2 and 3 whole cycles: the
    # ratio 1.5 is no integer, but the window carries both
    p = problem_1d(omega=4.0, n=100, forcing="delta")
    sched = ForcingSchedule([p.forcing] * 2, [4.0, 6.0])
    _assert_separates(p, WaveHoltzConfig.build(p, periods=2, schedule=sched, tol=1e-12),
                      [4.0, 6.0])


def test_multifreq_separates_on_steps_off_whole_periods():
    # the extraction projects the solve's own window, so steps that do not
    # divide into whole periods still separate omega = 3 and 6 over two periods
    p = problem_1d(omega=3.0, n=40, forcing="delta")
    sched = ForcingSchedule([p.forcing] * 2, [3.0, 6.0])
    built = WaveHoltzConfig.build(p, periods=2, schedule=sched, tol=1e-12)
    cfg = replace(built, tg=TimeGrid(3.0, 2, built.tg.steps + 1))
    assert cfg.tg.steps % 2
    _assert_separates(p, cfg, [3.0, 6.0])


def test_config_rejects_too_few_steps_for_the_top_frequency():
    # omega = 4 makes 8 half cycles over one period of omega = 1: 8 steps
    # cannot sample it (beta_h(4) = 2 there, and the projection could not
    # separate it), so the config itself is refused; 9 steps can
    p = problem_1d(omega=1.0, n=30, forcing="delta")
    omegas = [1.0, 2.0, 4.0]
    sched = ForcingSchedule([p.forcing] * 3, omegas)
    with pytest.raises(ValueError, match="fewer than its 8 steps"):
        WaveHoltzConfig(TimeGrid(1.0, 1, 8), FilterSpec(omegas), schedule=sched)
    WaveHoltzConfig(TimeGrid(1.0, 1, 9), FilterSpec(omegas), schedule=sched)


def test_multifreq_rejects_rk4_before_solving(monkeypatch):
    # the projection assumes leapfrog's time-symmetric trajectory; an
    # impedance box builds an RK4 config, which fails before any wave solve
    p = problem_1d(omega=1.0, n=30, bc="impedance", forcing="delta")
    cfg = WaveHoltzConfig.build(p, schedule=ForcingSchedule([p.forcing] * 2, [1.0, 2.0]))
    assert cfg.scheme == "rk4"

    def no_wave_solve(*args, **kwargs):
        raise AssertionError("evolve_and_filter ran")

    monkeypatch.setattr(iteration, "evolve_and_filter", no_wave_solve)
    with pytest.raises(ValueError, match="implemented for leapfrog"):
        multifreq_solve(p, cfg)


def test_multifreq_projection_is_exact_for_a_periodic_trajectory(rng, monkeypatch):
    # a trajectory sum_j u_j cos(omega_j t_n) over one period gives back each u_j
    p = problem_1d(omega=1.0, n=30, forcing="delta")
    omegas = np.array([1.0, 2.0, 4.0, 8.0])
    sched = ForcingSchedule([p.forcing] * 4, omegas)
    cfg = WaveHoltzConfig.build(p, schedule=sched)
    U = rng.standard_normal((4, *p.grid.shape))

    def trajectory(x, *args, sample_steps, **kwargs):
        return None, {n: np.cos(omegas * n * cfg.tg.dt) @ U for n in sample_steps}

    report = IterationReport([0.0], 0, True, 0.0)
    monkeypatch.setattr(iteration, "solve",
                        lambda *a, **k: (ScalarField(p.grid, U.sum(0)), report))
    monkeypatch.setattr(iteration, "evolve_and_filter", trajectory)
    res = multifreq_solve(p, cfg)
    assert np.max(np.abs([u.values for u in res.solutions] - U)) < 1e-12


def test_multifreq_wall_time_covers_the_extraction(monkeypatch):
    # the extraction period and the projection belong to the solve's time
    real = iteration.evolve_and_filter

    def slow_extraction(*args, **kwargs):
        if kwargs.get("sample_steps") is not None:
            time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(iteration, "evolve_and_filter", slow_extraction)
    p = problem_1d(omega=2.0, n=40, forcing="delta")
    sched = ForcingSchedule([p.forcing] * 3, [2.0, 4.0, 6.0])
    cfg = WaveHoltzConfig.build(p, schedule=sched, tol=1e-8)
    t0 = time.perf_counter()
    res = multifreq_solve(p, cfg)
    outside = time.perf_counter() - t0
    assert res.report.converged
    assert res.report.wall_time >= 0.05
    assert res.report.wall_time >= 0.9 * outside


def test_residual_history_normalisation():
    p = problem_1d(omega=1.22, n=40)
    cfg = WaveHoltzConfig.build(p, tol=1e-10, max_iters=100)
    _, rep = fixed_point_solve(p, cfg)
    assert rep.residual_history[0] == pytest.approx(1.0)
    assert rep.residual_history[-1] <= 1e-10


def test_mixed_neumann_2d_solve():
    # energy-conserving mixed box: leapfrog applies and GMRES converges
    from conftest import problem_2d

    p = problem_2d(omega=2.7, n=20,
                   bc=("dirichlet", "neumann", "dirichlet", "neumann"))
    cfg = WaveHoltzConfig.build(p, tol=1e-9, max_iters=300)
    assert cfg.scheme == "leapfrog"
    v, rep = solve(p, cfg, method="gmres")
    assert rep.converged
    assert norm2(v) > 0


def test_config_validation():
    p = problem_1d(n=20)
    with pytest.raises(ValueError):
        WaveHoltzConfig.build(p, tol=0.0)
    with pytest.raises(ValueError):
        WaveHoltzConfig.build(p, max_iters=0)
    with pytest.raises(ValueError, match="tol must be positive"):
        KrylovConfig(tol=0.0)
    with pytest.raises(ValueError):
        WaveHoltzConfig.build(p, scheme="verlet")
    with pytest.raises(ValueError, match="the methods are fixed_point, gmres and cg"):
        solve(p, WaveHoltzConfig.build(p), method="bicgstab")
    with pytest.raises(ValueError, match="energy-conserving"):
        WaveHoltzConfig.build(problem_1d(n=20, bc="impedance"), scheme="leapfrog")
    with pytest.raises(ValueError, match="positive and finite"):
        problem_1d(omega=math.inf, forcing="none")
    # a NaN forcing is refused at construction, not by the first wave solve
    f = p.forcing.values.copy()
    f[5] = math.nan
    with pytest.raises(ValueError, match="forcing must be finite"):
        HelmholtzProblem(p.grid, p.csq, ScalarField(p.grid, f), p.omega, p.bcs)
    # non-finite tolerances, fractional counts and unknown Krylov methods are
    # refused before any wave solve
    for kwargs in [dict(tol=math.nan), dict(tol=math.inf)]:
        with pytest.raises(ValueError, match="tol must be positive"):
            KrylovConfig(**kwargs)
    with pytest.raises(ValueError, match="tol must be positive"):
        WaveHoltzConfig.build(p, tol=math.nan)
    for kwargs in [dict(restart=2.5), dict(max_iters=2.5)]:
        with pytest.raises(ValueError, match="integers"):
            KrylovConfig(**kwargs)
    for kwargs in [dict(periods=1.5), dict(steps=200.5), dict(max_iters=2.5)]:
        with pytest.raises(ValueError, match="integers"):
            WaveHoltzConfig.build(p, **kwargs)
    with pytest.raises(ValueError, match="unknown method 'bicgstab': the methods are "
                                         "fixed_point, gmres and cg"):
        KrylovConfig(method="bicgstab")


def test_build_rejects_an_unstable_leapfrog_dt(monkeypatch):
    # 117 steps put dt * lambda_max_estimate at 2.148, where GMRES reports
    # convergence to a wrong answer; build raises before any wave solve
    calls = []
    monkeypatch.setattr(iteration, "evolve_and_filter", lambda *a, **k: calls.append(a))
    p = problem_1d(omega=5.0, n=100)
    with pytest.raises(ValueError, match="stability limit"):
        solve(p, WaveHoltzConfig.build(p, steps=117), method="gmres")
    assert calls == []
    # the rule is exact: 126 steps (dt * lambda = 1.995) are stable and do not alias
    assert WaveHoltzConfig.build(p, steps=126).tg.steps == 126
    assert WaveHoltzConfig.build(p, steps=128).tg.steps == 128
    # rk4 step counts are not checked
    assert WaveHoltzConfig.build(p, steps=117, scheme="rk4").tg.steps == 117


@pytest.mark.parametrize("route", ["direct", "replace"])
def test_a_config_not_from_build_meets_the_leapfrog_rule(route, monkeypatch):
    # 117 steps (dt * lambda = 2.148) on a config that build never saw: the
    # first wave solve refuses the window before any step
    p = problem_1d(omega=5.0, n=100)
    tg = TimeGrid(5.0, 1, 117)
    cfg = (WaveHoltzConfig(tg, FilterSpec.standard(5.0)) if route == "direct"
           else replace(WaveHoltzConfig.build(p), tg=tg))
    steps = _count_steps(monkeypatch)
    with pytest.raises(ValueError, match="stability limit"):
        solve(p, cfg, "gmres")
    assert not steps


def test_a_config_reused_on_a_stiffer_problem_is_refused(monkeypatch):
    # the default step of the c^2 = 1 line has dt * lambda = 2.8 on the c^2 = 4 line
    p, stiff = problem_1d(omega=5.0, n=100), problem_1d(omega=5.0, n=100, csq=4.0)
    cfg = WaveHoltzConfig.build(p)
    steps = _count_steps(monkeypatch)
    with pytest.raises(ValueError, match="stability limit"):
        solve(stiff, cfg, "gmres")
    assert not steps


def test_a_stable_step_that_aliases_is_refused(monkeypatch):
    # the C08 line at omega = 20: 6 steps are stable (dt * lambda = 1.745),
    # but 2 asin(dt lambda / 2) + omega dt = 1.009 pi aliases the top mode
    p = problem_1d(omega=20.0, n=200, lo=-6.0, hi=6.0)
    tg = TimeGrid(20.0, 1, 6)
    assert tg.dt * p.lambda_max_estimate() == pytest.approx(1.745, abs=1e-3)
    steps = _count_steps(monkeypatch)
    with pytest.raises(ValueError, match="stability limit"):
        solve(p, WaveHoltzConfig(tg, FilterSpec.standard(20.0)), "gmres")
    with pytest.raises(ValueError, match="stability limit"):
        WaveHoltzConfig.build(p, steps=6)
    assert not steps


def test_build_accepts_a_step_past_the_linearised_bound():
    # 7 steps there: 0.824 pi, past 2 / (lambda + 2 omega / pi) but inside
    # the exact rule; the limit solves the equation at the modified frequency
    p = problem_1d(omega=20.0, n=200, lo=-6.0, hi=6.0)
    cfg = WaveHoltzConfig.build(p, steps=7)
    assert cfg.tg.dt > 2.0 / (p.lambda_max_estimate() + 2.0 * p.omega / math.pi)
    v, rep = solve(p, cfg, "gmres")
    assert rep.converged
    assert helmholtz_residual(p, v, modified_frequency(p.omega, cfg.tg.dt)) <= 1e-9


def test_build_accepts_the_paper_step_on_the_paper_box():
    # the paper's box at omega = 10.5 with its leapfrog step, 38 steps per
    # period (dt = 0.69 h); CG converges on it
    p = problem_2d(omega=10.5)
    cfg = WaveHoltzConfig.build(p, steps=38, tol=1e-8)
    assert cfg.tg.dt / p.grid.h[0] == pytest.approx(0.693, abs=1e-3)
    v, rep = solve(p, cfg, "cg")
    assert rep.converged
    assert helmholtz_residual(p, v, modified_frequency(p.omega, cfg.tg.dt)) <= 1e-7


def test_config_refuses_a_filter_built_for_another_frequency():
    # 4 half cycles of omega = 8 fit the window of omega = 4, but a filter's
    # first frequency must be its grid's
    with pytest.raises(ValueError, match="different omega"):
        WaveHoltzConfig(TimeGrid(4.0, 1, 200), FilterSpec.standard(8.0))


def test_inputs_are_frozen_and_replace_reruns_their_rules():
    p = problem_1d(omega=4.0, n=50)
    cfg, kc = WaveHoltzConfig.build(p), KrylovConfig()
    sched = ForcingSchedule([p.forcing], [p.omega])
    for obj, name, value in [(p, "csq", ScalarField.constant(p.grid, 4.0)),
                             (cfg, "tol", math.nan), (kc, "restart", 0),
                             (sched, "omegas", np.array([5.0]))]:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, value)
    assert isinstance(sched.forcings, tuple)
    with pytest.raises(ValueError, match="read-only"):
        sched.omegas[0] = 5.0
    with pytest.raises(ValueError, match="tol must be positive"):
        replace(cfg, tol=math.nan)
    with pytest.raises(ValueError, match="integers"):
        replace(kc, restart=0)
    # a replaced problem is a new one: its own operator and an empty slot
    solve(p, cfg, "gmres")
    q = replace(p, csq=ScalarField.constant(p.grid, 4.0))
    assert q.prepared is None
    assert np.array_equal(q.operator[0].data, 4.0 * p.operator[0].data)


def test_build_checks_the_leapfrog_limit():
    # build accepts a step 0.95 times the limit 2 / (lambda_max + 2 omega / pi)
    # and rejects one 1.05 times it
    p = problem_1d(omega=4.0, n=50)
    lam = p.lambda_max_estimate()
    limit = 2.0 / (lam + 2.0 * p.omega / math.pi)
    T = 2.0 * math.pi / p.omega
    stable = WaveHoltzConfig.build(p, steps=math.ceil(T / (0.95 * limit))).tg
    assert 0.9 * limit < stable.dt <= 0.95 * limit
    unstable = math.floor(T / (1.05 * limit))
    assert 1.05 * limit <= T / unstable < 1.1 * limit
    with pytest.raises(ValueError, match="stability limit"):
        WaveHoltzConfig.build(p, steps=unstable)


def test_build_keeps_a_given_step_count():
    # a given steps is the window that runs, whichever route builds it; only
    # the default count is rounded up to whole steps per period
    p = problem_1d(omega=4.0, n=100)
    cfg = WaveHoltzConfig.build(p, periods=3, steps=901)
    assert cfg.tg == TimeGrid(4.0, 3, 901)
    assert WaveHoltzConfig.build(p, periods=3).tg.steps % 3 == 0


def test_default_rk4_step_of_the_open_box_stays_below_its_real_axis_limit():
    # whbench's C10 box: rounding the default count up to whole steps per
    # period gives 270 steps, dt / h = 0.968.  Unrounded it would be 262
    # steps, dt / h = 0.998, past RK4's real-axis limit of about 0.985, where
    # GMRES(100) needs 11 wave solves instead of 9.
    p = problem_2d(omega=12.5, n=104, bc="impedance")
    cfg = WaveHoltzConfig.build(p, periods=10)
    assert cfg.scheme == "rk4"
    assert cfg.tg.dt / min(p.grid.h) <= 0.98


def test_time_grid_stores_its_checked_counts():
    # an integral float64 count is held as the int check_count returns, so
    # tg.eta() takes it and the grid solves as the int one does
    tg = TimeGrid(4.0, np.float64(1), np.float64(90))
    assert type(tg.periods) is int and type(tg.steps) is int
    assert tg == TimeGrid(4.0, 1, 90)
    runs = [solve(problem_1d(omega=4.0, n=40), WaveHoltzConfig(t, FilterSpec((4.0,))),
                  method="gmres") for t in (tg, TimeGrid(4.0, 1, 90))]
    assert np.array_equal(runs[0][0].values, runs[1][0].values)
    assert runs[0][1].residual_history == runs[1][1].residual_history


def test_problem_stores_a_float_omega():
    # a float32 omega is held as the float check_frequencies returns, so T,
    # dt and the filter's sample times are all double precision
    p32, p = (problem_1d(omega=w, n=100, forcing="delta")
              for w in (np.float32(12.5), 12.5))
    assert type(p32.omega) is float and p32.omega == 12.5
    runs = [solve(q, WaveHoltzConfig.build(q), method="gmres") for q in (p32, p)]
    assert np.array_equal(runs[0][0].values, runs[1][0].values)
    assert runs[0][1].residual_history == runs[1][1].residual_history
