import math

import numpy as np
import pytest

from waveholtz import (
    FilterSpec,
    TimeGrid,
    beta_by_quadrature,
    beta_continuous,
    fixed_point_rate_bound,
    modified_frequency,
    optimize_tunable_filter,
    shifted_eigenvalue,
)
from waveholtz.filters import _design_maps, filter_weights
from waveholtz.iteration import WaveHoltzConfig
from waveholtz.oracle import dirichlet_box_spectrum, g_factor

from conftest import problem_1d

TWO_PI = 2.0 * math.pi


def test_beta_continuous_pinned_values():
    assert beta_continuous(1.0) == pytest.approx(1.0, abs=1e-14)
    assert beta_continuous(0.0) == pytest.approx(-0.5, abs=1e-14)
    b13 = beta_continuous(1.3)
    assert 0.0 < b13 <= 1.0 - 0.3**2 / 2.0


def test_beta_continuous_matches_fine_quadrature():
    # independent check of the sinc closed form against a fine trapezoid sum
    spec = FilterSpec.standard(1.0)
    tg = TimeGrid(1.0, 1, 40000)
    for r in (0.0, 0.37, 1.0, 1.3, 2.6, 7.1):
        quad = beta_by_quadrature(r, spec, tg)
        assert beta_continuous(r) == pytest.approx(quad, abs=5e-9)


def test_beta_continuous_bound_small_r():
    r = np.linspace(0.0, 0.5, 400)
    assert np.all(np.abs(beta_continuous(r)) <= 0.5 + 1e-14)


def test_beta_continuous_bound_large_r():
    r = np.linspace(1.5, 50.0, 2000)
    b = np.abs(beta_continuous(r))
    assert np.all(b <= 3.0 / (4.0 * math.pi * (r - 1.0)) + 1e-14)
    assert np.all(b <= 0.5 + 1e-14)


def test_beta_continuous_peak_bracket():
    delta = np.linspace(-0.5, 0.5, 401)
    b = beta_continuous(1.0 + delta)
    assert np.all(b >= -1e-14)
    assert np.all(b <= 1.0 - delta**2 / 2.0 + 1e-14)


def test_beta_continuous_rejects_negative():
    with pytest.raises(ValueError):
        beta_continuous(-0.1)


def test_beta_continuous_is_continuous_at_removable_points():
    # a sinc term meets its removable singularity at r = 0 (approached from
    # r >= 0 only) and at r = 1; beta is flat at both, so nearby values differ
    # from the limit quadratically, with |beta''| / 2 = 1.29 and 6.33 there
    eps = np.array([1e-12, 1e-9, 1e-6, 1e-4])
    for r0, limit in ((0.0, -0.5), (1.0, 1.0)):
        assert beta_continuous(r0) == pytest.approx(limit, abs=1e-15)
        r = r0 + (np.concatenate([eps, -eps]) if r0 > 0 else eps)
        assert np.all(np.abs(beta_continuous(r) - limit) <= 8.0 * (r - r0) ** 2 + 1e-15)


def test_quadrature_exact_at_omega():
    for omega in (1.22, 4.0, 19.7):
        for M in (37, 100, 731):
            spec = FilterSpec.standard(omega)
            tg = TimeGrid(omega, 1, M)
            assert beta_by_quadrature(omega, spec, tg) == pytest.approx(1.0, abs=1e-14)
    # a filter built for another omega has no weights on this grid
    with pytest.raises(ValueError, match="different omega"):
        filter_weights(FilterSpec.standard(2.0), TimeGrid(2.0 + 1e-9, 1, 100))


def test_quadrature_approaches_continuous_at_zero():
    spec = FilterSpec.standard(2.0)
    tg = TimeGrid(2.0, 1, 1000)
    assert beta_by_quadrature(0.0, spec, tg) == pytest.approx(-0.5, abs=1e-4)


def test_quadrature_matches_trapezoid_identity():
    # beta_h(lambda) = T_h(T(w+l)) + T_h(T(w-l)) - T_h(T l)/2 with
    # T_h(a) = g(h a) sin(a)/a evaluated independently.
    omega = 3.3
    spec = FilterSpec.standard(omega)
    M = 400
    tg = TimeGrid(omega, 1, M)
    T = tg.T
    h = 1.0 / M

    def t_h(alpha):
        if alpha == 0.0:
            return 1.0
        return g_factor(h * alpha) * math.sin(alpha) / alpha

    for lam in (0.0, 0.4, 1.7, 3.3, 4.8, 11.2):
        expect = t_h(T * (omega + lam)) + t_h(T * (omega - lam)) \
            - 0.5 * t_h(T * lam)
        assert beta_by_quadrature(lam, spec, tg) == pytest.approx(expect, abs=1e-12)


def test_quadrature_second_order_in_dt():
    omega = 2.0
    lam = 4.74
    spec = FilterSpec.standard(omega)
    exact = beta_continuous(lam / omega)
    errs = []
    for M in (64, 128, 256):
        tg = TimeGrid(omega, 1, M)
        errs.append(abs(beta_by_quadrature(lam, spec, tg) - exact))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_shifted_eigenvalue_and_mode_beta():
    omega = 2.0
    tg = TimeGrid(omega, 1, 200)
    # the mode whose shift lands exactly on omega has beta 1
    lam = 2.0 * math.sin(0.5 * tg.dt * omega) / tg.dt
    assert shifted_eigenvalue(lam, tg.dt) == pytest.approx(omega, rel=1e-14)
    beta = beta_by_quadrature(shifted_eigenvalue(lam, tg.dt), FilterSpec.standard(omega),
                              tg)
    assert beta == pytest.approx(1.0, abs=1e-13)


def test_shifted_eigenvalue_cfl_error_names_value():
    with pytest.raises(ValueError, match="lambda"):
        shifted_eigenvalue(300.0, 0.01)


def test_mode_beta_richardson_to_continuous():
    omega = 2.0
    lam = 3.1
    errs = []
    for M in (200, 400, 800):
        tg = TimeGrid(omega, 1, M)
        beta = beta_by_quadrature(shifted_eigenvalue(lam, tg.dt),
                                  FilterSpec.standard(omega), tg)
        errs.append(abs(beta - beta_continuous(lam / omega)))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_mode_beta_bounded_by_rate_bound():
    # every shifted mode of a theorem-compliant problem sits under rho_h
    p = problem_1d(omega=2.3, n=60)
    sd = dirichlet_box_spectrum(p)
    rho = fixed_point_rate_bound(sd.delta_h)
    lam_max = sd.lambdas[-1]
    dt = min(0.9 * 2.0 / (lam_max + 2.0 * p.omega / math.pi),
             min(sd.delta_h, 1.0) / p.omega)
    T = TWO_PI / p.omega
    M = int(math.ceil(T / dt))
    tg = TimeGrid(p.omega, 1, M)
    betas = beta_by_quadrature(shifted_eigenvalue(sd.lambdas, tg.dt),
                               FilterSpec.standard(p.omega), tg)
    assert np.max(np.abs(betas)) <= rho + 1e-12


def test_modified_frequency():
    assert modified_frequency(2.0, 1e-6) == pytest.approx(2.0, rel=1e-9)
    dt = 0.3
    omega = math.pi / 2.0 / dt
    assert modified_frequency(omega, dt) == pytest.approx(math.sqrt(2.0) / dt)
    omega, dt = 1.22, 0.01
    wt = modified_frequency(omega, dt)
    assert wt == pytest.approx(200.0 * math.sin(0.0061))
    assert 0 <= omega - wt <= dt**2 * omega**3 / 24.0
    with pytest.raises(ValueError):
        modified_frequency(10.0, 1.0)


def test_rate_bound_values():
    assert fixed_point_rate_bound(1.0) == pytest.approx(0.7)
    assert fixed_point_rate_bound(2.0) == pytest.approx(0.6)
    assert fixed_point_rate_bound(0.1) == pytest.approx(0.997)
    with pytest.raises(ValueError):
        fixed_point_rate_bound(0.0)


def test_tunable_standard_equivalence():
    omega = 2.0
    tg = TimeGrid(omega, 1, 300)
    std = FilterSpec.standard(omega)
    tun = FilterSpec.tunable(omega, a0=-0.25)
    assert tun.a[0] == 0.0
    lam = np.linspace(0.0, 4 * omega, 101)
    b1 = beta_by_quadrature(lam, std, tg)
    b2 = beta_by_quadrature(lam, tun, tg)
    assert np.max(np.abs(b1 - b2)) < 1e-12


def test_tunable_pinned_values():
    omega = 3.0
    tg = TimeGrid(omega, 1, 800)
    tun = FilterSpec.tunable(omega, a0=0.1, a_rest=(0.02, -0.03))
    assert beta_by_quadrature(0.0, tun, tg) == pytest.approx(2 * 0.1, abs=1e-4)
    assert beta_by_quadrature(omega, tun, tg) == pytest.approx(1.0, abs=1e-12)


def test_tunable_invariants():
    with pytest.raises(ValueError):
        FilterSpec.tunable(1.0, a0=0.5)
    with pytest.raises(ValueError):
        FilterSpec((1.0,), a0=-0.25, a=(0.1,))
    spec = FilterSpec.tunable(1.0, a0=0.0)
    assert spec.a[0] == pytest.approx(1.0 / TWO_PI)


def test_filter_spec_frequencies():
    # positive, strictly increasing frequencies; several of them make the
    # standard weight sum_i cos(omega_i t) - 1/4, with no tunable terms
    for omegas in [(), (0.0,), (2.0, 1.0), (1.0, 1.0), (1.0, 3.0, 2.0), (math.inf,),
                   (5.0, math.nan)]:
        with pytest.raises(ValueError, match="increasing"):
            FilterSpec(omegas)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        FilterSpec.tunable(5.0, -0.25, (math.nan,))
    tunable = FilterSpec.tunable(1.0, a0=-0.1)
    for a0, a in [(-0.25, (0.0,)), (-0.1, ()), (tunable.a0, tunable.a)]:
        with pytest.raises(ValueError, match="multi-frequency"):
            FilterSpec((1.0, 2.0), a0=a0, a=a)
    spec = FilterSpec(np.array([1.0, 2.0]))
    assert spec == FilterSpec.standard(1.0, 2.0) and spec.omegas == (1.0, 2.0)
    t = np.linspace(0.0, TWO_PI, 9)
    assert np.allclose(spec.weight(t), np.cos(t) + np.cos(2.0 * t) - 0.25, rtol=0, atol=1e-15)


def _beta2(spec, lam, tg):
    """beta''(lam) of a tunable spec from the filter design's affine map."""
    x = np.array([spec.a0, *spec.a[1:]])
    _, _, g2_base, g2 = _design_maps(spec.omegas[0], tg, len(spec.a) + 1, lam, [])
    return g2_base + g2 @ x


def test_beta_second_derivative_standard_peak():
    omega = 2.0
    tg = TimeGrid(omega, 1, 4000)
    spec = FilterSpec.tunable(omega, a0=-0.25)  # the standard filter
    d2 = _beta2(spec, omega, tg)
    assert d2 < 0.0
    b1 = 0.5 * (0.5 + TWO_PI**2 / 3.0 - 1.0)
    assert d2 == pytest.approx(-2.0 * b1 / omega**2, rel=1e-5)


def test_beta_second_derivative_fd_oracle():
    omega = 2.0
    tg = TimeGrid(omega, 1, 1500)
    spec = FilterSpec.tunable(omega, a0=-0.1, a_rest=(0.05,))
    for lam in (1.1, 2.0, 3.7):
        eps = 1e-4
        fd = (beta_by_quadrature(lam + eps, spec, tg)
              - 2.0 * beta_by_quadrature(lam, spec, tg)
              + beta_by_quadrature(lam - eps, spec, tg)) / eps**2
        assert _beta2(spec, lam, tg) == pytest.approx(fd, abs=1e-5)


def test_optimizer_linear_maps_match_public_evaluators():
    # the design cost uses precomputed maps from the free coefficients
    # x = (a0, a_2, ...) to beta and beta''; they must agree with
    # beta_by_quadrature and the quadrature sum of beta'' for any tunable
    # spec: d^2/dlam^2 of cos(lam t) is -t^2 cos(lam t)
    omega = 4.1 * math.pi
    tg = TimeGrid(omega, 1, 91)
    lam = np.array([2.0, 4 * math.pi, 20.0, 45.0])
    spec = FilterSpec.tunable(omega, a0=-0.13, a_rest=(0.04, -0.02, 0.01))
    x = np.array([spec.a0, *spec.a[1:]])
    t, scale = tg.times(), 2.0 * tg.dt / tg.T
    for lam_res in lam:
        pb, P, g2_base, g2 = _design_maps(omega, tg, 5, lam_res, lam)
        assert np.max(np.abs(pb + P @ x - beta_by_quadrature(lam, spec, tg))) < 1e-14
        beta2 = -scale * (np.cos(lam_res * t) @ (filter_weights(spec, tg) * t * t))
        assert abs(g2_base + g2 @ x - beta2) < 1e-14


def test_optimize_tunable_filter_improves_cost():
    omega = 4.1 * math.pi
    tg = TimeGrid(omega, 1, 91)
    res = optimize_tunable_filter(omega, 4 * math.pi, 6, tg, n_samples=200,
                                  seed=3)
    assert res.cost < res.standard_cost
    assert res.improved and res.warning is None
    r = np.linspace(0.0, 4 * omega, 2000)
    assert np.max(np.abs(beta_by_quadrature(r, res.spec, tg))) <= 1.0 + 1e-6
    assert abs(res.spec.a0) < 0.5
    assert res.spec.a[0] == pytest.approx((1 + 4 * res.spec.a0) / TWO_PI)


def test_optimize_tunable_filter_degenerate_line_search():
    omega = 4.1 * math.pi
    tg = TimeGrid(omega, 1, 91)
    res = optimize_tunable_filter(omega, 4 * math.pi, 2, tg, n_samples=150,
                                  seed=1)
    assert len(res.spec.a) == 1  # only the pinned a_1 remains
    with pytest.raises(ValueError, match="n_coeffs >= 2"):
        optimize_tunable_filter(omega, 4 * math.pi, 1, tg)
    assert res.cost <= res.standard_cost
    # the other inputs follow core's rules for counts and frequencies too
    with pytest.raises(ValueError, match="n_samples >= 1"):
        optimize_tunable_filter(omega, 4 * math.pi, 2, tg, n_samples=2.5)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="sample_hi must be positive and finite"):
            optimize_tunable_filter(omega, 4 * math.pi, 2, tg, sample_hi=bad)
    for bad in (math.nan, math.inf, -3.0):
        with pytest.raises(ValueError, match="resonant_lambda must be positive and finite"):
            optimize_tunable_filter(omega, bad, 2, tg)


def _design_inputs(case):
    """A 6-coefficient design, or the C11 one: omega = 4.1 pi, n = 129, 12 terms."""
    omega = 4.1 * math.pi
    if case == "n6":
        return (omega, 4 * math.pi, 6, TimeGrid(omega, 1, 91)), {"n_samples": 200}
    p = problem_1d(omega=omega, n=129, forcing="delta")
    tg = WaveHoltzConfig.build(p, tol=1e-8, max_iters=20000).tg
    lam_t = shifted_eigenvalue(dirichlet_box_spectrum(p).lambdas, tg.dt)
    kwargs = dict(sample_hi=float(lam_t.max()) * 1.02, n_samples=800,
                  extra_penalty_points=lam_t)
    return (omega, 4.0 * math.pi, 12, tg), kwargs


@pytest.mark.parametrize("case", ["n6", "c11"])
def test_optimize_tunable_filter_reaches_stationary_point(case):
    # the cost w_d beta''(lam_res) + w_p sum |beta(r_j)|^20 is convex in the
    # free coefficients x = (a0, a_2, ...), so a zero gradient is the global
    # minimum
    args, kwargs = _design_inputs(case)
    omega, lam_res, n_coeffs, tg = args
    res = optimize_tunable_filter(*args, **kwargs)
    assert res.improved
    spec = res.spec
    assert abs(spec.a0) < 0.5

    r = np.linspace(0.0, kwargs.get("sample_hi", math.pi / tg.dt), kwargs["n_samples"])
    r = np.concatenate([r, kwargs.get("extra_penalty_points", [])])
    pb, P, g2_base, g2 = _design_maps(omega, tg, n_coeffs, lam_res,
                                      r[np.abs(r - lam_res) > 0.1])
    x = np.array([spec.a0, *spec.a[1:]])
    z = pb + P @ x
    cost = 10.6 * (g2_base + g2 @ x) + 0.1 * np.sum(np.abs(z) ** 20)
    assert cost == pytest.approx(res.cost, rel=1e-12)
    grad = 10.6 * g2 + 0.1 * 20 * P.T @ (np.abs(z) ** 19 * np.sign(z))
    assert np.max(np.abs(grad)) <= 1e-6 * max(1.0, abs(res.cost))


def test_optimize_tunable_filter_is_deterministic():
    omega = 4.1 * math.pi
    tg = TimeGrid(omega, 1, 91)
    specs = [optimize_tunable_filter(omega, 4 * math.pi, 6, tg, n_samples=200,
                                     seed=s).spec for s in (0, 0, 5, 123)]
    assert all(s == specs[0] for s in specs)


def test_optimize_tunable_filter_c11_beats_simplex_cost():
    # the capped five-restart Nelder-Mead design reached -1.099 on these inputs
    args, kwargs = _design_inputs("c11")
    res = optimize_tunable_filter(*args, **kwargs, seed=7)
    assert res.improved and res.warning is None
    assert res.cost <= -1.19


@pytest.mark.parametrize("n_samples", [200, 400, 800])
@pytest.mark.parametrize("n_coeffs", [12, 20])
def test_optimize_tunable_filter_default_fence_is_whole_band(n_coeffs, n_samples):
    # on t_n = n dt, beta_h is even and 2 pi/dt-periodic in lambda, so the
    # default fence [0, pi/dt] bounds it on the whole real line; a fence at
    # 4 omega let 12-term designs reach |beta_h| ~ 1.6e4 beyond it.  On the
    # 90-step grid, 20 coefficients and 800 samples catch a solve that stops
    # short of the minimum, whose design falls back to the standard filter
    omega = 4.1 * math.pi
    for tg in (TimeGrid(omega, 1, 91), TimeGrid(omega, 1, 90)):
        res = optimize_tunable_filter(omega, 4 * math.pi, n_coeffs, tg, n_samples=n_samples)
        assert res.improved and res.warning is None, tg
        assert np.max(np.abs(res.spec.a)) < 1.5
        period = np.linspace(0.0, TWO_PI / tg.dt, 8001)
        beta = beta_by_quadrature(period, res.spec, tg)
        assert np.max(np.abs(beta - beta[::-1])) < 1e-10
        assert np.max(np.abs(beta)) <= 1.0 + 1e-6


def test_optimize_tunable_filter_unbounded_design_falls_back(recwarn):
    # three penalty samples cannot bound 11 free coefficients: the cost is
    # unbounded below, so the standard filter comes back, not improved
    omega = 4.1 * math.pi
    tg = TimeGrid(omega, 1, 91)
    res = optimize_tunable_filter(omega, 4 * math.pi, 12, tg, n_samples=3)
    assert not res.improved and res.warning
    assert res.spec == FilterSpec.tunable(omega, a0=-0.25, a_rest=(0.0,) * 10)
    assert res.cost == res.standard_cost
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_optimize_tunable_filter_accepts_on_the_whole_band():
    # a fence that stops at sample_hi, far below pi/dt = 893.6, restrains
    # nothing beyond it: this design reaches |beta| = 1.67e5 there, so it is
    # refused; the default fence over [0, pi/dt] designs a filter that passes
    omega, lam = 13.9625, 8.8931
    tg = TimeGrid(omega, 1, 128)
    res = optimize_tunable_filter(omega, lam, 12, tg, n_samples=420, sample_hi=73.75)
    assert not res.improved
    assert res.warning == "designed filter has |beta| > 1: too few penalty samples"
    assert res.spec == FilterSpec.tunable(omega, a0=-0.25, a_rest=(0.0,) * 10)
    assert optimize_tunable_filter(omega, lam, 12, tg, n_samples=420).improved


def test_optimize_tunable_filter_default_fence_grows_with_the_steps():
    # 400 samples over [0, pi/dt] let |beta| pass 1 between them from 150
    # steps on, so the design fell back to the standard filter; the default
    # max(400, 4 M) designs at 200 steps
    omega = 4.1 * math.pi
    res = optimize_tunable_filter(omega, 4 * math.pi, 12, TimeGrid(omega, 1, 200))
    assert res.improved and res.warning is None
    assert res.cost < -1.5


def test_optimize_tunable_filter_memory_is_linear_in_the_fence():
    # the whole-band check is one real FFT, not a (8 M + 2) x (M + 1) cosine
    # matrix, and the fence's cosines are taken in place: a default design at
    # 1000 steps peaked at 128 MB traced before, and holds one 4 M x (M + 1)
    # array now
    import tracemalloc

    omega = 4.1 * math.pi
    tracemalloc.start()
    try:
        res = optimize_tunable_filter(omega, 4 * math.pi, 12, TimeGrid(omega, 1, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.improved and res.warning is None
    assert peak < 40e6


def test_filter_spec_coefficients_are_a_tuple_of_floats():
    # an array or a list of coefficients gives the spec of the same tuple:
    # equal, hashable, and no ambiguous truth value of an array
    ref = FilterSpec((2.0,), -0.25, (0.0, 0.1))
    for a in (np.array([0.0, 0.1]), [0.0, 0.1], (np.float64(0.0), np.float64(0.1))):
        spec = FilterSpec((2.0,), -0.25, a)
        assert spec == ref and hash(spec) == hash(ref)
        assert type(spec.a) is tuple and all(type(c) is float for c in spec.a)
    with pytest.raises(ValueError, match="multi-frequency"):
        FilterSpec((1.0, 2.0), -0.25, np.array([0.0]))


def test_time_grid_invariants():
    tg = TimeGrid(2.0, 3, 700)
    assert tg.steps * tg.dt == pytest.approx(tg.T, rel=1e-15)
    assert tg.eta().sum() == pytest.approx(tg.steps)
    with pytest.raises(ValueError):
        TimeGrid(2.0, 0, 10)
    for omega in (0.0, math.nan, math.inf):  # inf would give dt = 0
        with pytest.raises(ValueError, match="omega must be positive"):
            TimeGrid(omega, 1, 10)
    for periods, steps in [(1.5, 10), (1, 10.5), (1, math.inf)]:
        with pytest.raises(ValueError, match="integers"):
            TimeGrid(2.0, periods, steps)
