import math
import re
from functools import partial

import numpy as np
import pytest

from waveholtz import (
    BoundarySpec,
    FilterSpec,
    ForcingSchedule,
    GridMismatchError,
    HelmholtzProblem,
    InstabilityError,
    ScalarField,
    TimeGrid,
    UniformGrid,
    WaveHoltzConfig,
    WaveState,
    evolve_and_filter,
    first_order_rhs,
    inner_product,
    modified_frequency,
    shifted_eigenvalue,
)
from waveholtz.core import apply_discrete_laplacian
from waveholtz import wavesolver

from conftest import (
    problem_1d,
    problem_2d,
    random_interior_field,
    reference_states,
    reference_stencil,
)


def _eigenmode(problem, j):
    x = problem.grid.axis_coords(0)
    lo, hi = problem.grid.lo[0], problem.grid.hi[0]
    phi = np.sin(j * np.pi * (x - lo) / (hi - lo))
    phi[0] = phi[-1] = 0.0
    h = problem.grid.h[0]
    n = problem.grid.n[0]
    lam = (2.0 / h) * math.sin(j * math.pi / (2 * n))
    return ScalarField(problem.grid, phi), lam


def _samples(p, x, forcing, dt, steps, scheme, at):
    """evolve_and_filter's samples at steps ``at`` of a run of ``steps`` steps
    of size ``dt`` (to roundoff) from the flat iterate x, driven by the field
    ``forcing`` (None: unforced) at the window's frequency 2 pi / (dt steps)."""
    tg = TimeGrid(2.0 * math.pi / (dt * steps), 1, steps)
    sched = None if forcing is None else ForcingSchedule([forcing], [tg.omega])
    return evolve_and_filter(x, sched, p, tg, FilterSpec.standard(tg.omega), scheme,
                             sample_steps=at)[1]


def test_leapfrog_start_zero():
    p = problem_1d(n=20, forcing="zero")
    s = _samples(p, np.zeros(p.grid.num_nodes), p.forcing, 0.01, 4, "leapfrog", [0, 1])
    assert not np.any(s[0]) and not np.any(s[1])


def test_leapfrog_start_forced():
    # from zero data, w^1 = -w^-1 - dt^2 f(0) = -dt^2/2 f(0)
    p = problem_1d(n=20)
    dt = 0.01
    s = _samples(p, np.zeros(p.grid.num_nodes), p.forcing, dt, 4, "leapfrog", [0, 1])
    assert not np.any(s[0])
    expect = -0.5 * dt * dt * p.forcing.values
    assert np.max(np.abs(s[1] - expect)) < 1e-15


def test_leapfrog_start_eigenmode():
    # zero initial velocity: w^1 = K w^0 / 2 = (1 - dt^2 lambda^2 / 2) phi
    p = problem_1d(n=32, forcing="zero")
    phi, lam = _eigenmode(p, 3)
    dt = 0.005
    s = _samples(p, phi.values.ravel(), None, dt, 4, "leapfrog", [1])
    expect = (1.0 - 0.5 * dt * dt * lam * lam) * phi.values
    assert np.max(np.abs(s[1] - expect)) < 1e-12


def test_leapfrog_requires_energy_conserving():
    p = problem_1d(n=20, bc="impedance", forcing="zero")
    with pytest.raises(ValueError):
        _samples(p, np.zeros(p.grid.num_nodes), None, 0.01, 4, "leapfrog", [1])


def test_leapfrog_unforced_eigenmode_trajectory():
    # w^n = cos(lambda_tilde t_n) phi_j, the discrete closed-form solution
    p = problem_1d(n=64, forcing="zero")
    phi, lam = _eigenmode(p, 5)
    dt = 0.9 * 2.0 / p.lambda_max_estimate()
    lam_t = shifted_eigenvalue(lam, dt)
    at = [250, 500, 750, 1000]
    s = _samples(p, phi.values.ravel(), None, dt, 1000, "leapfrog", at)
    for n in at:
        expect = math.cos(lam_t * n * dt) * phi.values
        assert np.max(np.abs(s[n] - expect)) < 1e-11


def test_leapfrog_forced_single_mode_closed_form():
    # from zero data: w^n = vinf (cos(omega t_n) - cos(lambda_tilde t_n)) phi
    p = problem_1d(omega=2.1, n=40, forcing="zero")
    phi, lam = _eigenmode(p, 2)
    fhat = 0.8
    forcing = ScalarField(p.grid, fhat * phi.values)
    prob = HelmholtzProblem(p.grid, p.csq, forcing, p.omega, p.bcs)
    dt = 2.0 * math.pi / (prob.omega * 400)  # the window is one period of the drive
    wt = modified_frequency(prob.omega, dt)
    lam_t = shifted_eigenvalue(lam, dt)
    vinf = fhat / (wt**2 - lam**2)
    s = _samples(prob, np.zeros(prob.grid.num_nodes), forcing, dt, 400, "leapfrog",
                 range(1, 401))
    for n in range(400):
        t = (n + 1) * dt
        expect = vinf * (math.cos(prob.omega * t) - math.cos(lam_t * t)) * phi.values
        assert np.max(np.abs(s[n + 1] - expect)) < 1e-10


def test_leapfrog_energy_conservation():
    p = problem_1d(omega=2.0, n=50, forcing="zero")
    phi, lam = _eigenmode(p, 4)
    dt = 0.5 * 2.0 / p.lambda_max_estimate()
    steps = int(10 * 2 * math.pi / (lam * dt))
    # unforced from zero velocity, the start-up value w^-1 equals w^1
    cur = phi.values
    prev = _samples(p, cur.ravel(), None, dt, steps, "leapfrog", [1])[1]

    def energy(wn, wnm1):
        diff = ScalarField(p.grid, (wn - wnm1) / dt)
        lw = apply_discrete_laplacian(p, ScalarField(p.grid, wn))
        return inner_product(diff, diff) + inner_product(
            lw, ScalarField(p.grid, wnm1)
        )

    e0 = energy(cur, prev)
    for n in range(steps):
        cur, prev = 2.0 * cur - prev - dt * dt * apply_discrete_laplacian(
            p, ScalarField(p.grid, cur)
        ).values, cur
        if n % 100 == 0:
            assert abs(energy(cur, prev) - e0) <= 1e-11 * abs(e0)


def test_leapfrog_instability_detection():
    p = problem_1d(n=50, forcing="zero")
    phi, _ = _eigenmode(p, 7)
    dt = 4.0 / p.lambda_max_estimate()  # far beyond the stability bound
    with pytest.raises(InstabilityError, match="step"), \
            np.errstate(over="ignore", invalid="ignore"):
        _samples(p, phi.values.ravel(), None, dt, 4000, "leapfrog", None)


def _step_window(excinfo):
    """The (lo, hi] step window that an InstabilityError message names."""
    found = re.search(r"between steps (\d+) and (\d+)", str(excinfo.value))
    assert found, str(excinfo.value)
    return int(found[1]), int(found[2])


def _first_nonfinite_step(p, x, tg, scheme):
    """The first step at which the same trajectory, stepped one at a time by
    the reference loop, is not finite; None if it stays finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        states = enumerate(reference_states(p, x, None, tg, scheme))
        return next((n for n, y in states if not np.isfinite(y).all()), None)


def test_evolve_and_filter_leapfrog_instability_names_window():
    p = problem_1d(n=50, forcing="zero")
    phi, _ = _eigenmode(p, 7)
    lam = p.lambda_max_estimate()
    T = 5 * 2 * math.pi / p.omega
    tg = TimeGrid(p.omega, 5, math.ceil(T * lam / 4.0))  # dt = 4/lambda, far beyond 2/lambda
    with pytest.raises(InstabilityError) as excinfo, \
            np.errstate(over="ignore", invalid="ignore"):
        evolve_and_filter(phi.values.ravel(), None, p, tg, FilterSpec.standard(p.omega),
                          "leapfrog")
    lo, hi = _step_window(excinfo)
    # the same trajectory one step at a time fails inside that window
    first = _first_nonfinite_step(p, phi.values.ravel(), tg, "leapfrog")
    assert first is not None and lo < first <= hi <= tg.steps
    assert hi - lo <= wavesolver._CHECK_EVERY


def test_evolve_and_filter_rk4_instability_names_window(rng):
    p = problem_1d(n=50, bc="impedance", forcing="zero")
    dt = 0.1  # dt * lambda_max = 10, far outside RK4's stability region
    tg = TimeGrid(p.omega, 6, math.ceil(6 * 2 * math.pi / p.omega / dt))
    x = rng.standard_normal(2 * p.grid.num_nodes)
    with pytest.raises(InstabilityError) as excinfo, \
            np.errstate(over="ignore", invalid="ignore"):
        evolve_and_filter(x, None, p, tg, FilterSpec.standard(p.omega), "rk4")
    lo, hi = _step_window(excinfo)
    first = _first_nonfinite_step(p, x, tg, "rk4")
    assert first is not None and lo < first <= hi <= tg.steps
    assert hi - lo <= wavesolver._CHECK_EVERY


@pytest.mark.parametrize("bc,scheme", [("dirichlet", "leapfrog"), ("impedance", "rk4")])
def test_evolve_and_filter_nan_iterate_raises(bc, scheme):
    p = problem_1d(omega=2.0, n=30, bc=bc)
    tg = WaveHoltzConfig.build(p, scheme=scheme).tg
    steps = tg.steps
    x = np.zeros(p.grid.num_nodes * (1 if scheme == "leapfrog" else 2))
    x[7] = np.nan
    with pytest.raises(InstabilityError) as excinfo, np.errstate(invalid="ignore"):
        evolve_and_filter(x, ForcingSchedule.single(p), p, tg, FilterSpec.standard(p.omega),
                          scheme)
    assert _step_window(excinfo) == (0, min(wavesolver._CHECK_EVERY, steps))
    assert scheme in str(excinfo.value)


def test_first_order_rhs_zero():
    p = problem_1d(n=20, bc="impedance", forcing="zero")
    st = WaveState.zeros(p.grid)
    dw, dv = first_order_rhs(st, 0.0, None, p)
    assert not np.any(dw.values) and not np.any(dv.values)
    with pytest.raises(GridMismatchError):  # a state on another grid
        first_order_rhs(WaveState.zeros(problem_1d(n=21).grid), 0.0, None, p)


def test_first_order_rhs_dirichlet_matches_laplacian(rng):
    p = problem_1d(n=30, forcing="zero")
    w = random_interior_field(p.grid, rng)
    st = WaveState(w, ScalarField.zeros(p.grid))
    dw, dv = first_order_rhs(st, 0.0, None, p)
    lw = apply_discrete_laplacian(p, w)
    assert np.max(np.abs(dv.values + lw.values)) < 1e-13
    assert not np.any(dw.values)


def test_first_order_rhs_impedance_ghost_closure():
    # alpha v + beta n.D0 w = 0 gives ghost = inner - 2h(alpha/beta) v at both
    # ends; check the boundary rows against the hand-built stencil value.
    n = 16
    g = UniformGrid.line(0.0, 1.0, n)
    h = g.h[0]
    bcs = BoundarySpec.all_impedance(1)  # alpha = beta = 1/sqrt(2)
    p = HelmholtzProblem(g, ScalarField.constant(g, 1.0), ScalarField.zeros(g),
                         1.0, bcs)
    x = g.axis_coords(0)
    w = x.copy()
    v = np.full(g.shape, 0.37)
    st = WaveState(ScalarField(g, w), ScalarField(g, v))
    dw, dv = first_order_rhs(st, 0.0, None, p)
    ratio = bcs.impedance_alpha / bcs.impedance_beta  # = 1
    ghost_left = w[1] - 2 * h * ratio * v[0]
    ghost_right = w[-2] - 2 * h * ratio * v[-1]
    expect_left = (ghost_left - 2 * w[0] + w[1]) / h**2
    expect_right = (w[-2] - 2 * w[-1] + ghost_right) / h**2
    assert dv.values[0] == pytest.approx(expect_left, rel=1e-12)
    assert dv.values[-1] == pytest.approx(expect_right, rel=1e-12)
    assert np.max(np.abs(dv.values[1:-1])) < 1e-12  # interior of a linear w
    assert np.array_equal(dw.values, v)


def test_rk4_zero_state():
    p = problem_1d(n=20, bc="impedance", forcing="zero")
    s = _samples(p, np.zeros(2 * p.grid.num_nodes), None, 0.01, 4, "rk4", [1])
    assert s[1].shape == (2, *p.grid.shape)
    assert not np.any(s[1][0]) and not np.any(s[1][1])


def _pair_energy(p, y):
    w, v = (ScalarField(p.grid, c) for c in y)
    lw = apply_discrete_laplacian(p, w)
    return 0.5 * (inner_product(v, v) + inner_product(lw, w))


def _at_rest(field):
    """The flat rk4 iterate (w, v) = (field, 0)."""
    return np.concatenate([field.values.ravel(), np.zeros(field.grid.num_nodes)])


def test_rk4_energy_drift_small():
    # fundamental mode over one period at dt = h/2: drift ~ 2 pi lam^5 dt^5 / 72
    p = problem_1d(n=40, forcing="zero")
    phi, lam = _eigenmode(p, 1)
    dt = p.grid.h[0] / 2.0
    steps = int(math.ceil(2 * math.pi / (lam * dt)))
    s = _samples(p, _at_rest(phi), None, dt, steps, "rk4", [0, steps])
    e0 = _pair_energy(p, s[0])
    assert abs(_pair_energy(p, s[steps]) - e0) < 1e-8 * abs(e0)


def test_rk4_fourth_order_self_convergence():
    # semi-discrete eigenmode solution is cos(lambda t) phi: O(dt^4) error
    p = problem_1d(n=24, forcing="zero")
    phi, lam = _eigenmode(p, 2)
    t_end = 1.0
    errs = []
    for steps in (40, 80, 160):
        w, _ = _samples(p, _at_rest(phi), None, t_end / steps, steps, "rk4", [steps])[steps]
        errs.append(np.max(np.abs(w - math.cos(lam * t_end) * phi.values)))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_rk4_impedance_energy_nonincreasing():
    n = 60
    g = UniformGrid.line(0.0, 1.0, n)
    p = HelmholtzProblem(g, ScalarField.constant(g, 1.0), ScalarField.zeros(g),
                         5.0, BoundarySpec.all_impedance(1))
    x = g.axis_coords(0)
    h = g.h[0]
    eta = np.ones(g.shape)
    eta[0] = eta[-1] = 0.5
    dt = 0.9 * h
    s = _samples(p, _at_rest(ScalarField(g, np.exp(-80 * (x - 0.4) ** 2))), None, dt,
                 300, "rk4", range(301))

    def energy(y):
        w, v = y
        return 0.5 * (h * float(eta @ (v * v))
                      + h * float(np.sum(((w[1:] - w[:-1]) / h) ** 2)))

    e_prev = energy(s[0])
    for k in range(300):
        e = energy(s[k + 1])
        assert e <= e_prev + 1e-12 * max(e_prev, 1.0)
        e_prev = e


def test_evolve_and_filter_zero():
    p = problem_1d(n=20, forcing="zero")
    tg = TimeGrid(p.omega, 1, 50)
    spec = FilterSpec.standard(p.omega)
    out, samples = evolve_and_filter(np.zeros(p.grid.num_nodes), None, p, tg,
                                     spec, "leapfrog")
    assert out.shape == (p.grid.num_nodes,)
    assert not np.any(out)
    assert samples == {}


def test_evolve_and_filter_affine(rng):
    p = problem_1d(omega=1.7, n=36)
    tg = WaveHoltzConfig.build(p, scheme="leapfrog").tg
    spec = FilterSpec.standard(p.omega)
    sched = ForcingSchedule.single(p)
    v1 = random_interior_field(p.grid, rng).values.ravel()
    v2 = random_interior_field(p.grid, rng).values.ravel()
    pi = lambda v: evolve_and_filter(v, sched, p, tg, spec, "leapfrog")[0]
    lhs = pi(v1) + pi(v2) - pi(np.zeros(p.grid.num_nodes))
    rhs = pi(v1 + v2)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale


def test_evolve_and_filter_rk4_filters_both_components(rng):
    p = problem_1d(omega=2.4, n=30, bc="impedance")
    tg = WaveHoltzConfig.build(p, scheme="rk4").tg
    spec = FilterSpec.standard(p.omega)
    sched = ForcingSchedule.single(p)
    out, _ = evolve_and_filter(np.zeros(2 * p.grid.num_nodes), sched, p, tg,
                               spec, "rk4")
    assert out.shape == (2 * p.grid.num_nodes,)
    w, v = out.reshape(2, -1)
    assert np.linalg.norm(w) > 0 and np.linalg.norm(v) > 0
    # a displacement-only iterate is not an rk4 state
    with pytest.raises(ValueError):
        evolve_and_filter(np.zeros(p.grid.num_nodes), sched, p, tg, spec, "rk4")
    with pytest.raises(ValueError, match="unknown scheme"):
        evolve_and_filter(np.zeros(p.grid.num_nodes), sched, p, tg, spec, "verlet")


def test_evolve_samples_are_trajectory_points():
    p = problem_1d(omega=1.5, n=24)
    tg = WaveHoltzConfig.build(p, scheme="leapfrog").tg
    steps = tg.steps
    spec = FilterSpec.standard(p.omega)
    sched = ForcingSchedule.single(p)
    v0 = np.zeros(p.grid.num_nodes)
    _, samples = evolve_and_filter(v0, sched, p, tg, spec, "leapfrog",
                                   sample_steps=[0, 3, steps])
    assert set(samples) == {0, 3, steps}
    assert not np.any(samples[0])
    # index arrays are requests too, of one step or of several
    for wanted in (np.array([0]), np.array([1, 2])):
        _, samples = evolve_and_filter(v0, sched, p, tg, spec, "leapfrog",
                                       sample_steps=wanted)
        assert set(samples) == set(wanted.tolist())
    for bad in ([steps + 1], [-1], [1.5], [math.nan]):  # steps are counts on the grid
        with pytest.raises(ValueError):
            evolve_and_filter(v0, sched, p, tg, spec, "leapfrog", sample_steps=bad)


def test_default_steps_make_whole_periods():
    p = problem_1d(omega=3.0, n=50)
    for periods in (1, 3, 10):
        tg = WaveHoltzConfig.build(p, scheme="leapfrog", periods=periods).tg
        assert tg.steps * tg.dt == pytest.approx(tg.T, rel=1e-15)
        assert tg.dt * p.lambda_max_estimate() < 2.0
        assert tg.dt * p.omega <= 1.0
    tg4 = WaveHoltzConfig.build(p, scheme="rk4", periods=2).tg
    assert tg4.dt <= p.grid.h[0] / math.sqrt(p.csq.values.max()) + 1e-15


def test_forcing_schedule_validation():
    p = problem_1d(n=10)
    with pytest.raises(ValueError):
        ForcingSchedule([p.forcing], np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ForcingSchedule([p.forcing, p.forcing], np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="empty"):
        ForcingSchedule([], np.array([]))
    for omega in (0.0, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            ForcingSchedule([p.forcing], np.array([omega]))
    with pytest.raises(ValueError, match="share one grid"):
        ForcingSchedule([p.forcing, problem_1d(n=12).forcing], np.array([1.0, 2.0]))


def test_first_order_rhs_forced_matches_stencil(rng):
    p = problem_1d(omega=2.0, n=24, bc=("impedance", "dirichlet"))
    w, v = rng.standard_normal((2, p.grid.num_nodes))
    st = WaveState(ScalarField(p.grid, w), ScalarField(p.grid, v))
    dw, dv = first_order_rhs(st, 0.3, ForcingSchedule.single(p), p)
    expect = -reference_stencil(p, w, v) - math.cos(0.6) * p.forcing.values
    expect[-1] = 0.0
    assert np.max(np.abs(dv.values - expect)) < 1e-12 * np.max(np.abs(expect))
    assert np.array_equal(dw.values, np.where(p.dirichlet_mask, 0.0, v))


@pytest.mark.parametrize("bc,scheme", [("neumann", "leapfrog"), ("impedance", "rk4")])
def test_public_matvec_fallback_matches_compiled_kernel(bc, scheme, rng, monkeypatch):
    # the compiled DIA kernel is private SciPy API; without it the kernels
    # step with L @ x and must give the same averages to roundoff
    if wavesolver._compiled_matvec() is None:
        pytest.skip("this SciPy has no compatible compiled dia_matvec")
    p = problem_1d(omega=3.0, n=40, bc=bc)
    sched = ForcingSchedule([p.forcing] * 2, [p.omega, 2.0 * p.omega])  # forced, two frequencies
    cfg = WaveHoltzConfig.build(p, scheme=scheme, schedule=sched)
    x = rng.standard_normal(p.grid.num_nodes * (1 if scheme == "leapfrog" else 2))

    def run():  # on a fresh problem: the product is prepared once per problem
        fresh = problem_1d(omega=3.0, n=40, bc=bc)
        return evolve_and_filter(x, sched, fresh, cfg.tg, cfg.spec, scheme)[0]

    compiled = run()
    monkeypatch.setattr(wavesolver, "_compiled_matvec", lambda: None)
    fallback = run()
    assert not np.array_equal(fallback, compiled)  # the two paths really differ
    assert np.max(np.abs(fallback - compiled)) <= 1e-13 * np.max(np.abs(compiled))


def _csr_products(problem, dt, scheme):
    """``wavesolver._products`` on CSR copies of ``problem.operator``'s entries,
    stepped by SciPy's compiled ``csr_matvec``, which adds each row's stored
    entries into the buffer in column order."""
    from scipy.sparse import diags, hstack
    from scipy.sparse._sparsetools import csr_matvec

    L, B = problem.operator
    L = L.tocsr()  # drops the stored zeros

    def adder(A):
        return partial(csr_matvec, *A.shape, A.indptr, A.indices, A.data)

    if scheme == "leapfrog":
        return adder(L * (-dt * dt) + diags(2.0 * ~problem.dirichlet_mask.ravel()))
    block = hstack([-L, diags(-B)], format="csr")
    return tuple((s * dt, adder(block * (s * dt))) for s in wavesolver._RK4_LEVELS)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scheme,sides", [
    ("leapfrog", (("dirichlet", "neumann"), ("dirichlet", "neumann", "neumann", "dirichlet"))),
    ("rk4", (("impedance", "impedance"), ("impedance", "dirichlet", "impedance", "impedance"))),
])
def test_dia_steps_bit_for_bit_like_csr(dim, scheme, sides, rng, monkeypatch):
    # the DIA kernel adds the diagonals in ascending offset order, which is
    # CSR's column order within a row, and a stored zero adds an exact +-0:
    # a solve equals one stepping CSR products of the same entries, bit for
    # bit.  Sampled states may differ in the sign of a zero on Dirichlet
    # nodes, which array_equal lets pass; the averages start those nodes at
    # +0, which adding +-0 keeps.
    sparsetools = pytest.importorskip("scipy.sparse._sparsetools")
    if not hasattr(sparsetools, "csr_matvec") or wavesolver._compiled_matvec() is None:
        pytest.skip("this SciPy lacks its compiled csr_matvec or dia_matvec")

    def fresh():  # the products are prepared once per problem
        if dim == 1:
            return problem_1d(omega=3.0, n=40, bc=sides[0])
        return problem_2d(omega=3.0, n=14, bc=sides[1])

    p = fresh()
    sched = ForcingSchedule([p.forcing] * 2, [p.omega, 2.0 * p.omega])
    cfg = WaveHoltzConfig.build(p, scheme=scheme, schedule=sched)
    tg, spec, steps = cfg.tg, cfg.spec, cfg.tg.steps
    x = rng.standard_normal(p.grid.num_nodes * (1 if scheme == "leapfrog" else 2))
    wanted = [1, steps // 2, steps]
    dia = evolve_and_filter(x, sched, fresh(), tg, spec, scheme, sample_steps=wanted)
    monkeypatch.setattr(wavesolver, "_products", _csr_products)
    csr = evolve_and_filter(x, sched, fresh(), tg, spec, scheme, sample_steps=wanted)
    assert dia[0].tobytes() == csr[0].tobytes()
    for n in wanted:
        assert np.array_equal(dia[1][n], csr[1][n])


@pytest.mark.parametrize("dim", [1, 2])
def test_rk4_keeps_dirichlet_rows_exactly_zero(dim, rng):
    # forced at two frequencies from random data: the Horner levels add the
    # velocity into w and the empty block rows into v, so both halves of every
    # Dirichlet row stay 0.0, not just small
    sides = ("dirichlet", "impedance") if dim == 1 else ("impedance", "dirichlet",
                                                         "dirichlet", "impedance")
    p = problem_1d(omega=2.5, n=30, bc=sides) if dim == 1 else problem_2d(
        omega=2.5, n=12, bc=sides)
    sched = ForcingSchedule([p.forcing] * 2, [p.omega, 2.0 * p.omega])
    cfg = WaveHoltzConfig.build(p, scheme="rk4", schedule=sched)
    x = rng.standard_normal(2 * p.grid.num_nodes)
    out, _ = evolve_and_filter(x, sched, p, cfg.tg, cfg.spec, "rk4")
    dirichlet = np.tile(p.dirichlet_mask.ravel(), 2)
    assert np.all(out[dirichlet] == 0.0)
    assert np.all(out[~dirichlet] != 0.0)


@pytest.mark.parametrize("bc,scheme,forced", [("dirichlet", "leapfrog", False),
                                              ("dirichlet", "leapfrog", True),
                                              ("impedance", "rk4", False),
                                              ("impedance", "rk4", True)])
def test_prepared_solve_repeats_bit_for_bit(bc, scheme, forced, rng):
    # the second solve of a system reuses the first one's prepared products
    # and weights, which the problem's slot keeps under that system; both
    # equal a solve on a fresh problem, bit for bit
    p, fresh = (problem_1d(omega=3.0, n=40, bc=bc) for _ in range(2))
    tg, spec = WaveHoltzConfig.build(p, scheme=scheme).tg, FilterSpec.standard(p.omega)
    x = rng.standard_normal(p.grid.num_nodes * (1 if scheme == "leapfrog" else 2))

    def run(problem):
        sched = ForcingSchedule.single(problem) if forced else None
        return evolve_and_filter(x, sched, problem, tg, spec, scheme)[0]

    first, system = run(p), (tg, spec, scheme)
    key, parts = p.prepared
    assert key == system
    assert np.array_equal(run(p), first)
    assert p.prepared[0] == system and p.prepared[1] is parts
    assert np.array_equal(run(fresh), first)


def test_prepared_solves_stay_within_their_bound(rng):
    # one problem cycling through several systems keeps one prepared solve,
    # that of the last system run, and every solve still equals one on a
    # fresh problem
    p = problem_1d(omega=3.0, n=30)
    x = rng.standard_normal(p.grid.num_nodes)
    steps = WaveHoltzConfig.build(p, scheme="leapfrog").tg.steps
    grids = [TimeGrid(p.omega, 1, steps + k) for k in range(6)]
    spec = FilterSpec.standard(p.omega)
    for _ in range(2):
        for tg in grids:
            out, _ = evolve_and_filter(x, None, p, tg, spec, "leapfrog")
            ref, _ = evolve_and_filter(x, None, problem_1d(omega=3.0, n=30), tg, spec,
                                       "leapfrog")
            assert np.array_equal(out, ref)
            assert p.prepared[0] == (tg, spec, "leapfrog")


@pytest.mark.parametrize("change", ["tg", "spec", "filter_omegas"])
def test_prepared_solve_never_lends_another_systems_weights(change, rng):
    # a second system on the same problem gets its own products and weights:
    # it matches a fresh problem and differs from the first system
    p = problem_1d(omega=3.0, n=30)
    x = rng.standard_normal(p.grid.num_nodes)
    tg = WaveHoltzConfig.build(p, scheme="leapfrog").tg
    a = {"tg": tg, "spec": FilterSpec.standard(p.omega)}
    # the filter_omegas case: the filter gains the drive frequency 2 omega
    other = {"tg": {"tg": TimeGrid(p.omega, 1, tg.steps + 1)},
             "spec": {"spec": FilterSpec.tunable(p.omega, a0=-0.1)},
             "filter_omegas": {"spec": FilterSpec.standard(p.omega, 2.0 * p.omega)}}
    b = {**a, **other[change]}

    def run(problem, kw):
        return evolve_and_filter(x, None, problem, kw["tg"], kw["spec"], "leapfrog")[0]

    out_a, out_b = run(p, a), run(p, b)
    assert p.prepared[0] == (b["tg"], b["spec"], "leapfrog")
    assert np.array_equal(out_b, run(problem_1d(omega=3.0, n=30), b))
    assert np.array_equal(run(p, a), out_a)
    assert not np.array_equal(out_a, out_b)


def test_prepared_solves_shared_across_threads(rng):
    # threads solving on one problem over more systems than threads, each
    # replacing the problem's one slot, get the same averages as solves on
    # fresh problems, and the slot ends holding a system that ran, with that
    # system's parts
    import sys
    import threading

    p = problem_1d(omega=3.0, n=20)
    x = rng.standard_normal(p.grid.num_nodes)
    steps = WaveHoltzConfig.build(p, scheme="leapfrog").tg.steps
    grids = [TimeGrid(p.omega, 1, steps + k) for k in range(7)]
    spec = FilterSpec.standard(p.omega)

    def run(problem, tg):
        return evolve_and_filter(x, None, problem, tg, spec, "leapfrog")[0]

    refs = [run(problem_1d(omega=3.0, n=20), tg) for tg in grids]
    bad = []

    def work(shift):
        try:
            for k in range(40):
                i = (k + shift) % len(grids)
                if not np.array_equal(run(p, grids[i]), refs[i]):
                    bad.append(i)
        except Exception as exc:  # a thread's exception would not fail the test
            bad.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    (tg, *rest), (_, weights, _) = p.prepared
    assert tg in grids and rest == [spec, "leapfrog"]
    assert len(weights) == tg.steps + 1


def test_prepared_slot_is_read_once(rng):
    # a solve that finds its system in the slot solves with the parts it
    # found, even when another thread replaces the slot just after the key
    # matched; here the stored key itself does the replacing while compared
    p, other = problem_1d(omega=3.0, n=30), problem_1d(omega=3.0, n=30)
    x = rng.standard_normal(p.grid.num_nodes)
    tg_a = WaveHoltzConfig.build(p, scheme="leapfrog").tg
    spec, tg_b = FilterSpec.standard(p.omega), TimeGrid(p.omega, 1, tg_a.steps + 1)

    def run(problem, tg):
        return evolve_and_filter(x, None, problem, tg, spec, "leapfrog")[0]

    ref = run(other, tg_a)
    run(other, tg_b)  # other's slot now holds system b
    run(p, tg_a)
    key, parts = p.prepared

    class RacingKey(tuple):
        __hash__ = tuple.__hash__

        def __eq__(self, k):
            p.prepared = other.prepared
            return tuple.__eq__(self, k)

    p.prepared = (RacingKey(key), parts)
    assert np.array_equal(run(p, tg_a), ref)
