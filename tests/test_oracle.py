import ast
import math
from pathlib import Path

import numpy as np
import pytest

from waveholtz import (
    BoundarySpec,
    FilterSpec,
    ForcingSchedule,
    HelmholtzProblem,
    KrylovConfig,
    ResonanceError,
    ScalarField,
    TimeGrid,
    UniformGrid,
    WaveHoltzConfig,
    apply_discrete_laplacian,
    dirichlet_box_spectrum,
    direct_helmholtz_solve,
    direct_rk4_solve,
    evolve_and_filter,
    helmholtz_residual,
    modified_frequency,
    norm2,
    pi_apply_spectral,
    shifted_eigenvalue,
    solve,
    trapezoid_reference,
)
from waveholtz import oracle
from waveholtz.iteration import as_affine_system
from waveholtz.oracle import (
    UnsupportedProblemError,
    assemble_operator,
    g_factor,
    inverse_sine_transform,
    sine_transform,
)

from conftest import (
    affine_pi,
    problem_1d,
    problem_2d,
    random_interior_field,
    reference_stencil,
)


def test_spectrum_single_mode():
    g = UniformGrid.line(0.0, 1.0, 2)
    p = HelmholtzProblem(g, ScalarField.constant(g, 1.0), ScalarField.zeros(g),
                         1.0, BoundarySpec.all_dirichlet(1))
    sd = dirichlet_box_spectrum(p)
    assert sd.lambdas.size == 1
    assert sd.lambdas[0] ** 2 == pytest.approx(8.0)


def test_spectrum_matches_dense_eigenvalues_1d():
    p = problem_1d(n=20)
    sd = dirichlet_box_spectrum(p)
    M = assemble_operator(p)[0].toarray()
    ev = np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))
    assert np.max(np.abs(np.sort(sd.lambdas**2) - ev)) < 1e-10 * ev.max()


def test_spectrum_matches_dense_eigenvalues_2d():
    p = problem_2d(omega=2.0, n=8)
    sd = dirichlet_box_spectrum(p)
    M = assemble_operator(p)[0].toarray()
    ev = np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))
    assert np.max(np.abs(np.sort(sd.lambdas**2) - ev)) < 1e-10 * ev.max()


def _rectangle(n):
    g = UniformGrid.box((0.0, -1.0), (1.0, 2.0), n)
    return HelmholtzProblem(g, ScalarField.constant(g, 1.0), ScalarField.zeros(g),
                            1.0, BoundarySpec.all_dirichlet(2))


# the rectangle has unequal cell counts, so a mode's wave numbers come from
# the interior shape in the right axis order or the check fails
@pytest.mark.parametrize("p", [problem_1d(n=24), _rectangle((9, 14))],
                         ids=["line", "rectangle"])
def test_spectrum_modes_are_eigenvectors(p):
    sd = dirichlet_box_spectrum(p)
    for k in (0, 3, 10, sd.lambdas.size // 2, sd.lambdas.size - 1):
        phi = sd.mode(k)
        lw = apply_discrete_laplacian(p, phi)
        lam2 = sd.lambdas[k] ** 2
        assert np.max(np.abs(lw.values - lam2 * phi.values)) < 1e-11 * lam2


def test_spectrum_delta_h():
    p = problem_1d(omega=1.22, n=100)
    sd = dirichlet_box_spectrum(p)
    assert sd.delta_h > 0
    lam1 = (2.0 / p.grid.h[0]) * math.sin(math.pi / 200.0)
    assert sd.delta_h == pytest.approx(abs(lam1 - 1.22) / 1.22)


def test_spectrum_shift_inequalities():
    p = problem_1d(n=50)
    sd = dirichlet_box_spectrum(p)
    dt = 0.9 * 2.0 / sd.lambdas[-1]
    lt = shifted_eigenvalue(sd.lambdas, dt)
    assert np.all(lt <= 0.5 * math.pi * sd.lambdas + 1e-12)
    assert np.all(np.abs(sd.lambdas - lt) <= dt**2 * lt**3 / 24.0 + 1e-14)


def test_spectrum_rejects_unsupported():
    with pytest.raises(UnsupportedProblemError):
        dirichlet_box_spectrum(problem_1d(n=10, bc="neumann"))
    g = UniformGrid.line(0.0, 1.0, 10)
    c = ScalarField(g, 1.0 + 0.1 * g.axis_coords(0))
    p = HelmholtzProblem(g, c, ScalarField.zeros(g), 1.0,
                         BoundarySpec.all_dirichlet(1))
    with pytest.raises(UnsupportedProblemError):
        dirichlet_box_spectrum(p)
    with pytest.raises(UnsupportedProblemError, match="energy-conserving"):
        assemble_operator(problem_1d(n=10, bc="impedance"))


def test_sine_transform_round_trip(rng):
    p = problem_1d(n=30)
    v = random_interior_field(p.grid, rng)
    back = inverse_sine_transform(sine_transform(v), p.grid)
    assert np.max(np.abs(back.values - v.values)) < 1e-12

    p2 = problem_2d(omega=2.0, n=12)
    v2 = random_interior_field(p2.grid, rng)
    back2 = inverse_sine_transform(sine_transform(v2), p2.grid)
    assert np.max(np.abs(back2.values - v2.values)) < 1e-12


def test_assemble_matches_apply(rng):
    for p in (problem_1d(n=18), problem_1d(n=18, bc="neumann"),
              problem_1d(n=18, bc=("dirichlet", "neumann")),
              problem_2d(omega=2.0, n=7),
              problem_2d(omega=2.0, n=7,
                         bc=("dirichlet", "neumann", "neumann", "dirichlet"))):
        M, free = assemble_operator(p)
        v = random_interior_field(p.grid, rng)
        v.values[~p.dirichlet_mask] = rng.standard_normal(int((~p.dirichlet_mask).sum()))
        v.values[p.dirichlet_mask] = 0.0
        # the stencil itself, not apply_discrete_laplacian (which reads M too)
        lw = reference_stencil(p, v.values)
        got = M @ v.values.ravel()[free]
        assert np.max(np.abs(got - lw.ravel()[free])) < 1e-11


def test_direct_solve_manufactured_eigenmode():
    p = problem_1d(omega=2.0, n=40)
    sd = dirichlet_box_spectrum(p)
    k = 4
    phi = sd.mode(k)
    sigma = 3.3
    f = ScalarField(p.grid, (sigma**2 - sd.lambdas[k] ** 2) * phi.values)
    prob = HelmholtzProblem(p.grid, p.csq, f, p.omega, p.bcs)
    v = direct_helmholtz_solve(prob, sigma)
    assert np.max(np.abs(v.values - phi.values)) < 1e-11
    assert helmholtz_residual(prob, v, sigma) < 1e-12


def test_direct_solve_modal_formula(rng):
    p = problem_1d(omega=2.0, n=32, forcing="gaussian")
    sigma = 2.7
    v = direct_helmholtz_solve(p, sigma)
    sd = dirichlet_box_spectrum(p)
    fhat = sine_transform(p.forcing)
    # natural (index) order eigenvalues for the transform
    lam = (2.0 / p.grid.h[0]) * np.sin(np.arange(1, p.grid.n[0]) * math.pi
                                       / (2 * p.grid.n[0]))
    vhat_expect = fhat / (sigma**2 - lam**2)
    vhat = sine_transform(v)
    assert np.max(np.abs(vhat - vhat_expect)) < 1e-11 * np.max(np.abs(vhat_expect))


def test_direct_solve_resonance_guard():
    p = problem_1d(omega=2.0, n=30)
    sd = dirichlet_box_spectrum(p)
    with pytest.raises(ResonanceError):
        direct_helmholtz_solve(p, float(sd.lambdas[2]))


@pytest.mark.parametrize("csq, sides", [
    (lambda x: 1.0 + 0.5 * np.sin(3.0 * x), ("neumann", "dirichlet")),
    (lambda x: 1.0 + 0.3 * x, ("neumann", "neumann")),
], ids=["sine-speed-mixed", "linear-speed-neumann"])
def test_direct_solve_matches_gmres_without_closed_form(csq, sides):
    # no closed-form spectrum covers these problems, so the resonance guard
    # is skipped and the solve is checked against the WaveHoltz limit itself
    p = problem_1d(omega=5.3, n=100, bc=sides, csq=csq(np.linspace(0.0, 1.0, 101)))
    with pytest.raises(UnsupportedProblemError):
        dirichlet_box_spectrum(p)
    cfg = WaveHoltzConfig.build(p, tol=1e-12)
    sigma = modified_frequency(cfg.tg.omega, cfg.tg.dt)
    v = direct_helmholtz_solve(p, sigma)
    ref, rep = solve(p, cfg, "gmres")
    assert rep.converged
    err = np.linalg.norm(v.values - ref.values) / np.linalg.norm(ref.values)
    assert err < 1e-10
    assert helmholtz_residual(p, v, sigma) < 1e-11


def test_direct_solve_green_function_convergence():
    # point forcing -delta(x - 1/2)/h: nodal solution converges at 2nd order
    omega = 2.0
    errs = []
    for n in (64, 128, 256):
        p = problem_1d(omega=omega, n=n, forcing="delta")
        v = direct_helmholtz_solve(p, omega)
        x = p.grid.axis_coords(0)
        s = 0.5
        exact = np.where(
            x <= s,
            np.sin(omega * x) * np.sin(omega * (1 - s)),
            np.sin(omega * s) * np.sin(omega * (1 - x)),
        ) / (omega * math.sin(omega))
        errs.append(float(np.sqrt(p.grid.h[0] * np.sum((v.values - exact) ** 2))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.8)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.8)


def test_direct_solve_2d_small():
    p = problem_2d(omega=2.5, n=12)
    v = direct_helmholtz_solve(p, p.omega)
    assert helmholtz_residual(p, v, p.omega) < 1e-11


def _flat(state):
    return np.concatenate([state.w.values.ravel(), state.v.values.ravel()])


def _rk4_gmres_against_oracle(p, periods, tol):
    """GMRES rk4 iterate, direct_rk4_solve's state, their relative 2-norm distance
    and the config."""
    cfg = WaveHoltzConfig.build(p, periods=periods, scheme="rk4", tol=tol)
    u, rep = solve(p, cfg, method="gmres",
                   krylov=KrylovConfig(tol=tol, restart=100, max_iters=500))
    assert rep.converged
    ref = direct_rk4_solve(p, cfg.tg.dt)
    x, y = _flat(u), _flat(ref)
    return x, ref, np.linalg.norm(x - y) / np.linalg.norm(y), cfg


@pytest.mark.parametrize("bc", ["impedance", ("impedance", "dirichlet")])
def test_direct_rk4_solve_is_the_gmres_limit_1d(bc):
    # GMRES stops at a relative residual tol, so the error is at most
    # kappa(A) * tol; A = I - S is assembled column by column on the free rows
    p = problem_1d(omega=10.0, n=200, bc=bc)
    x, _, err, cfg = _rk4_gmres_against_oracle(p, 1, 1e-12)
    A, _ = as_affine_system(p, cfg)
    dirichlet = np.tile(p.dirichlet_mask.ravel(), 2)
    free, unit = np.flatnonzero(~dirichlet), np.eye(x.size)
    kappa = np.linalg.cond(np.stack([A.apply(unit[j]) for j in free], axis=1)[free])
    assert err <= kappa * 1e-12
    assert not np.any(x[dirichlet])


def test_direct_rk4_solve_is_the_gmres_limit_2d_open_box():
    # a small C10 box: all impedance sides, 10 periods, 7 GMRES iterations
    p = problem_2d(omega=6.5, bc="impedance")
    _, ref, err, cfg = _rk4_gmres_against_oracle(p, 10, 1e-10)
    assert err <= 10 * 1e-10
    # the oracle's state is the periodic RK4 response: one period of steps,
    # both halves sampled, returns to it
    M = cfg.tg.steps // cfg.tg.periods
    one_period = TimeGrid(cfg.tg.omega, 1, M)
    _, samples = evolve_and_filter(_flat(ref), ForcingSchedule.single(p), p, one_period,
                                   FilterSpec.standard(p.omega), "rk4", sample_steps=[M])
    assert samples[M].shape == (2, *p.grid.shape)
    y, y0 = samples[M].ravel(), _flat(ref)
    assert np.max(np.abs(y - y0)) <= 1e-11 * np.max(np.abs(y0))


def test_pi_spectral_fixed_point():
    p = problem_1d(omega=1.22, n=50)
    cfg = WaveHoltzConfig.build(p)
    wt = modified_frequency(p.omega, cfg.tg.dt)
    vinf = direct_helmholtz_solve(p, wt)
    out = pi_apply_spectral(vinf, p, cfg)
    assert norm2(ScalarField(p.grid, out.values - vinf.values)) < 1e-10 * norm2(vinf)


def test_pi_spectral_matches_time_stepping(rng):
    p = problem_1d(omega=1.22, n=50)
    for correction in (False, True):  # the corrected grid drives at omega_bar
        cfg = WaveHoltzConfig.build(p, correction=correction)
        pi = affine_pi(p, cfg)
        for _ in range(3):
            v = random_interior_field(p.grid, rng)
            a = pi(v)
            b = pi_apply_spectral(v, p, cfg)
            assert norm2(ScalarField(p.grid, a.values - b.values)) \
                <= 1e-10 * max(norm2(a), 1.0)
    # the model drives problem.forcing: a config with its own drive is refused
    sched = ForcingSchedule([random_interior_field(p.grid, rng)], [p.omega])
    with pytest.raises(UnsupportedProblemError, match="problem.forcing"):
        pi_apply_spectral(v, p, WaveHoltzConfig.build(p, schedule=sched))
    with pytest.raises(UnsupportedProblemError, match="leapfrog only"):
        pi_apply_spectral(v, p, WaveHoltzConfig.build(p, scheme="rk4"))


def test_pi_spectral_matches_time_stepping_2d(rng):
    p = problem_2d(omega=2.3, n=10)
    cfg = WaveHoltzConfig.build(p, scheme="leapfrog")
    v = random_interior_field(p.grid, rng)
    a = affine_pi(p, cfg)(v)
    b = pi_apply_spectral(v, p, cfg)
    assert norm2(ScalarField(p.grid, a.values - b.values)) \
        <= 1e-10 * max(norm2(a), 1.0)


def test_pi_spectral_geometric_decay():
    # k applications from zero leave modal error beta^k vinf
    p = problem_1d(omega=2.0, n=24)
    cfg = WaveHoltzConfig.build(p)
    from waveholtz import beta_by_quadrature, shifted_eigenvalue

    lam = (2.0 / p.grid.h[0]) * np.sin(np.arange(1, p.grid.n[0]) * math.pi
                                       / (2 * p.grid.n[0]))
    lam_t = shifted_eigenvalue(lam, cfg.tg.dt)
    betas = beta_by_quadrature(lam_t, cfg.spec, cfg.tg)
    wt = modified_frequency(p.omega, cfg.tg.dt)
    vinf_hat = sine_transform(direct_helmholtz_solve(p, wt))
    v = ScalarField.zeros(p.grid)
    for k in range(1, 4):
        v = pi_apply_spectral(v, p, cfg)
        err_hat = sine_transform(v) - vinf_hat
        expect = -(betas**k) * vinf_hat
        assert np.max(np.abs(err_hat - expect)) < 1e-11 * np.max(np.abs(vinf_hat))


def test_trapezoid_reference_values():
    r = trapezoid_reference(0.0, 17)
    assert r.direct == pytest.approx(1.0, abs=1e-15)
    assert r.closed == pytest.approx(1.0, abs=1e-15)

    r = trapezoid_reference(2 * math.pi, 10)
    assert abs(r.direct - 0.0) <= r.error_bound
    assert r.error_bound == pytest.approx(0.01 * 2 * math.pi / math.pi**2)


def test_trapezoid_closed_form_matches_direct(rng):
    # The error equals |sin a| (1 - g(ha)) / |a| exactly; since
    # sup (1 - g(x)) / x^2 = 1/pi^2 on |x| <= pi, the sharp uniform bound is
    # h^2 |a| / pi^2 (the 1/12-constant claim fails near |sin a| = 1, see
    # test_acceptance criterion 5).
    for _ in range(50):
        M = int(rng.integers(2, 400))
        alpha = float(rng.uniform(-math.pi * M, math.pi * M))
        r = trapezoid_reference(alpha, M)
        assert abs(r.direct - r.closed) < 1e-13
        sharp = abs(alpha) / (math.pi**2 * M**2)
        assert abs(r.exact - r.direct) <= sharp * (1 + 1e-12)


def test_trapezoid_domain_error():
    with pytest.raises(ValueError):
        trapezoid_reference(100.0, 10)
    with pytest.raises(ValueError, match="M >= 1"):
        trapezoid_reference(1.0, 0)


def test_g_factor_bounds():
    x = np.linspace(-3.0, 3.0, 601)
    g = g_factor(x)
    assert np.all(g >= 0.0)
    assert np.all(g <= 1.0 - x**2 / 12.0 + 1e-14)
    assert np.all(g >= 1.0 - x**2 / math.pi**2 - 1e-14)
    assert g_factor(0.0) == 1.0


def test_oracle_imports_only_core_and_filters():
    # the oracle checks the wave solver, the iteration and the Krylov methods,
    # so it is built from none of them
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {m for m in imported if m.startswith((".", "waveholtz"))}
    assert package == {".core", ".filters"}
