"""Property tests of the flat filtered-wave operator on small random problems.

Examples are derandomized so every run checks the same cases; grids stay
small so the module adds only seconds to the suite.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from waveholtz import (
    BoundarySpec,
    FilterSpec,
    ForcingSchedule,
    HelmholtzProblem,
    KrylovConfig,
    ScalarField,
    UniformGrid,
    WaveHoltzConfig,
    as_affine_system,
    evolve_and_filter,
    fixed_point_solve,
    helmholtz_residual,
    shifted_eigenvalue,
    solve,
)

from conftest import problem_1d, reference_evolve, reference_stencil

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)
SIDES = st.sampled_from(["dirichlet", "neumann"])
ALL_SIDES = st.sampled_from(["dirichlet", "neumann", "impedance"])


def _random_problem(seed, n, omega, sides):
    """1D problem on [0, 1] with random c^2 in [0.5, 1.5] and random forcing."""
    rng = np.random.default_rng(seed)
    grid = UniformGrid.line(0.0, 1.0, n)
    p = HelmholtzProblem(grid, ScalarField(grid, rng.uniform(0.5, 1.5, n + 1)),
                         ScalarField(grid, rng.standard_normal(n + 1)), omega,
                         BoundarySpec(sides))
    return p, rng


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 24),
       omega=st.floats(0.5, 4.0), scheme=st.sampled_from(["leapfrog", "rk4"]),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_evolve_and_filter_is_affine(seed, n, omega, scheme, a, b):
    bc = ("dirichlet", "neumann") if scheme == "leapfrog" else ("impedance", "neumann")
    p, rng = _random_problem(seed, n, omega, bc)
    size = n + 1 if scheme == "leapfrog" else 2 * (n + 1)
    tg = WaveHoltzConfig.build(p, scheme=scheme).tg
    sched = ForcingSchedule.single(p)
    spec = FilterSpec.standard(omega)
    pi = lambda x: evolve_and_filter(x, sched, p, tg, spec, scheme)[0]
    x, y = rng.standard_normal((2, size))
    lhs = pi(a * x + b * y)
    rhs = a * pi(x) + b * pi(y) + (1.0 - a - b) * pi(np.zeros(size))
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(1.0, np.max(np.abs(rhs)))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 200),
       omega=st.floats(0.5, 100.0), periods=st.integers(1, 4), count=st.integers(1, 3))
def test_leapfrog_steps_keep_the_top_mode_below_nyquist(seed, n, omega, periods, count):
    # build's limit dt < 2 / (lambda + 2 omega / pi) is (pi lambda / 2 + omega)
    # dt < pi, and asin x <= pi x / 2 turns it into (lambda~ + omega) dt < pi:
    # the highest shifted mode plus the top drive frequency stay below the
    # Nyquist frequency pi / dt of the filter's trapezoid sum.  Checked at the
    # default step and at the fewest steps the limit allows.
    p, _ = _random_problem(seed, n, omega, ("dirichlet", "neumann"))
    omegas = [omega * k for k in range(1, count + 1)]
    sched = ForcingSchedule([p.forcing] * count, omegas)
    lam, T = p.lambda_max_estimate(), periods * 2.0 * math.pi / omega
    fewest = math.floor(T * (lam + 2.0 * omegas[-1] / math.pi) / 2.0) + 1
    for steps in (None, max(2, fewest)):
        cfg = WaveHoltzConfig.build(p, periods=periods, steps=steps, schedule=sched)
        assert (shifted_eigenvalue(lam, cfg.tg.dt) + omegas[-1]) * cfg.tg.dt < math.pi


def _assert_symmetric(p, rng):
    A, _ = as_affine_system(p, WaveHoltzConfig.build(p))
    x, y = rng.standard_normal((2, A.dimension))
    Ax, Ay = A.apply(x), A.apply(y)
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(x @ Ay - y @ Ax) <= 1e-13 * scale


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 24),
       omega=st.floats(0.5, 4.0), lo=SIDES, hi=SIDES)
def test_leapfrog_operator_is_self_adjoint(seed, n, omega, lo, hi):
    # the system runs in y = sqrt(W) v, W the trapezoid weight (1/2 on a
    # Neumann end node, which makes the mirrored-ghost stencil self-adjoint
    # in x . (W y)), so A is plainly symmetric on every pair of sides
    p, rng = _random_problem(seed, n, omega, (lo, hi))
    weight = np.ones(n + 1)
    weight[[0, -1]] = [0.5 if lo == "neumann" else 1.0, 0.5 if hi == "neumann" else 1.0]
    assert np.array_equal(p.trapezoid_weight, weight)
    _assert_symmetric(p, rng)


def test_leapfrog_operator_is_symmetric_on_a_mixed_box():
    # three Neumann sides, so corners carry W = 1/4 and 1/2, and variable c^2
    rng = np.random.default_rng(7)
    grid = UniformGrid.box(0.0, 1.0, 10)
    p = HelmholtzProblem(grid, ScalarField(grid, rng.uniform(0.5, 1.5, grid.shape)),
                         ScalarField(grid, rng.standard_normal(grid.shape)), 2.5,
                         BoundarySpec(("neumann", "neumann", "dirichlet", "neumann")))
    assert set(p.trapezoid_weight) == {0.25, 0.5, 1.0}
    _assert_symmetric(p, rng)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 30),
       omega=st.floats(1.0, 2.5))
def test_outer_methods_agree(seed, n, omega):
    # on [0, 1] the lowest Dirichlet mode is pi, so omega <= 2.5 keeps the
    # fixed-point contraction factor near 0.6 or below
    p, _ = _random_problem(seed, n, omega, ("dirichlet", "dirichlet"))
    cfg = WaveHoltzConfig.build(p, tol=1e-12, max_iters=400)
    vf, rf = fixed_point_solve(p, cfg)
    vg, rg = solve(p, cfg, method="gmres")
    vc, rc = solve(p, cfg, method="cg")
    assert rf.converged and rg.converged and rc.converged
    scale = np.linalg.norm(vf.values)
    assert np.linalg.norm(vg.values - vf.values) <= 1e-9 * scale
    assert np.linalg.norm(vc.values - vf.values) <= 1e-9 * scale


@SETTINGS
@given(omega=st.floats(4.0, 12.0), extra=st.floats(0.0, 1.0))
def test_corrected_solve_meets_residual_at_omega(omega, extra):
    # the C08 family: gaussian forcing on [-6, 6] with 10 nodes per unit omega
    p = problem_1d(omega=omega, n=10 * int(np.ceil(omega)), lo=-6.0, hi=6.0)
    base = WaveHoltzConfig.build(p, scheme="leapfrog").tg.steps
    steps = base + int(extra * base)
    cfg = WaveHoltzConfig.build(p, steps=steps, tol=1e-11, correction=True)
    assert cfg.tg.steps == steps
    v, rep = solve(p, cfg, method="gmres",
                   krylov=KrylovConfig(restart=1000, tol=1e-11, max_iters=1000))
    assert rep.converged
    assert helmholtz_residual(p, v, omega) <= 1e-9


def _random_box(seed, dim, n, sides, alpha=0.6):
    """1D or 2D problem on [0, 1]^dim with random c^2 in [0.5, 1.5] and forcing."""
    rng = np.random.default_rng(seed)
    grid = UniformGrid((0.0,) * dim, (1.0,) * dim, n[:dim])
    p = HelmholtzProblem(grid, ScalarField(grid, rng.uniform(0.5, 1.5, grid.shape)),
                         ScalarField(grid, rng.standard_normal(grid.shape)), 2.0,
                         BoundarySpec(sides[:2 * dim], impedance_alpha=alpha))
    return p, rng


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       n=st.tuples(st.integers(2, 12), st.integers(2, 12)),
       sides=st.tuples(ALL_SIDES, ALL_SIDES, ALL_SIDES, ALL_SIDES),
       alpha=st.floats(0.1, 0.9))
def test_assembled_operator_matches_stencil(seed, dim, n, sides, alpha):
    p, rng = _random_box(seed, dim, n, sides, alpha)
    L, B = p.operator
    w, v = rng.standard_normal((2, *p.grid.shape))
    ref = reference_stencil(p, w, v).ravel()
    got = L @ w.ravel() + B * v.ravel()
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    # an omitted v is zero velocity, impedance rows included
    ref = reference_stencil(p, w).ravel()
    assert np.linalg.norm(L @ w.ravel() - ref) <= 1e-13 * np.linalg.norm(ref)
    # column by column, L and B are the reference exactly
    zero = np.zeros(p.grid.shape)
    for e in np.eye(p.grid.num_nodes):
        assert np.array_equal(L @ e, reference_stencil(p, e.reshape(zero.shape)).ravel())
        assert np.array_equal(B * e, reference_stencil(p, zero, e.reshape(zero.shape)).ravel())
    # the stored diagonals are the stencil's 2 dim + 1, each zero on Dirichlet rows
    stencil = [-1, 0, 1] if dim == 1 else [-p.grid.shape[1], -1, 0, 1, p.grid.shape[1]]
    assert L.offsets.tolist() == stencil
    rows = np.flatnonzero(p.dirichlet_mask)
    for diagonal, offset in zip(L.data, L.offsets):
        cols = rows + offset
        assert not np.any(diagonal[cols[(cols >= 0) & (cols < p.grid.num_nodes)]])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       n=st.tuples(st.integers(3, 10), st.integers(3, 10)),
       sides=st.tuples(ALL_SIDES, ALL_SIDES, ALL_SIDES, ALL_SIDES),
       scheme=st.sampled_from(["leapfrog", "rk4"]), two=st.booleans())
def test_evolve_and_filter_matches_reference_loop(seed, dim, n, sides, scheme, two):
    if scheme == "leapfrog":
        sides = tuple("neumann" if s == "impedance" else s for s in sides)
    p, rng = _random_box(seed, dim, n, sides)
    omegas = [p.omega, 2.0 * p.omega] if two else [p.omega]
    sched = ForcingSchedule([p.forcing] * len(omegas), omegas)
    cfg = WaveHoltzConfig.build(p, scheme=scheme, schedule=sched)
    tg, spec = cfg.tg, cfg.spec
    x = rng.standard_normal(p.grid.num_nodes * (1 if scheme == "leapfrog" else 2))
    got = evolve_and_filter(x, sched, p, tg, spec, scheme)[0]
    ref = reference_evolve(p, x, sched, tg, spec, scheme)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
