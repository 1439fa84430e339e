"""Filter transfer functions: closed forms, trapezoid quadrature, tunable design.

The time average applied to a wave trajectory acts on the eigencomponent of
(sqrt-)eigenvalue ``lambda`` as multiplication by a transfer function beta.
For the standard weight ``cos(omega t) - 1/4`` over one period the continuous
transfer function has the closed form

    beta(r) = sinc(r + 1) + sinc(r - 1) - sinc(r)/2,   r = lambda/omega,

with ``sinc(r) = sin(2 pi r)/(2 pi r)``.  Discretely the weight is summed by
the trapezoidal rule, which leaves beta(omega) = 1 exact whenever the window
spans whole periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of M steps over K periods of the base frequency.

    dt is always derived as T/M (never accumulated) so that M*dt == T to
    machine precision.  Trapezoid weights are 1/2 at the two endpoints.
    """

    omega: float
    periods: int
    steps: int

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.periods < 1 or self.steps < 2:
            raise ValueError("need at least 1 period and 2 steps")

    @property
    def T(self) -> float:
        return self.periods * TWO_PI / self.omega

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def eta(self) -> np.ndarray:
        w = np.ones(self.steps + 1)
        w[0] = w[-1] = 0.5
        return w


@dataclass(frozen=True)
class FilterSpec:
    """Weight function multiplying the trajectory inside the time average.

    standard:  weight(t) = cos(omega t) - 1/4
    tunable:   weight(t) = cos(omega t) + a0 + sum_n a_n sin(n omega t)

    Tunable filters require |a0| < 1/2 and fix a_1 = (1 + 4 a0)/(2 pi), the
    two conditions that pin the transfer function to beta(omega) = 1 with a
    critical point there.  The standard filter is the tunable one with
    a0 = -1/4 (hence a_1 = 0).
    """

    omega: float
    kind: str = "standard"
    periods: int = 1
    a0: float = -0.25
    a: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("standard", "tunable"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.kind == "tunable":
            if not abs(self.a0) < 0.5:
                raise ValueError("tunable filter requires |a0| < 1/2")
            a1 = (1.0 + 4.0 * self.a0) / TWO_PI
            if not self.a or abs(self.a[0] - a1) > 1e-14 * max(1.0, abs(a1)):
                raise ValueError("tunable filter requires a_1 = (1 + 4 a0)/(2 pi)")

    @classmethod
    def standard(cls, omega, periods=1):
        return cls(omega=omega, kind="standard", periods=periods)

    @classmethod
    def tunable(cls, omega, a0, a_rest=(), periods=1):
        """Build a tunable spec from a0 and the free coefficients a_2, a_3, ..."""
        a1 = (1.0 + 4.0 * a0) / TWO_PI
        return cls(
            omega=omega,
            kind="tunable",
            periods=periods,
            a0=a0,
            a=(a1, *tuple(float(c) for c in a_rest)),
        )

    def weight(self, t):
        """Evaluate the filter weight at time(s) t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "standard":
            return np.cos(self.omega * t) - 0.25
        n_omega = self.omega * np.arange(1, len(self.a) + 1)
        sines = np.sin(np.multiply.outer(t, n_omega))  # one column per term
        return np.cos(self.omega * t) + self.a0 + sines @ self.a


def filter_weights(spec: FilterSpec, tg: TimeGrid, omegas=None) -> np.ndarray:
    """Weight samples over the time grid, including the multi-frequency form.

    With several drive frequencies the standard weight generalises to
    ``sum_i cos(omega_i t) - 1/4`` (a single constant, not one per
    frequency).  Tunable filters are single-frequency only.
    """
    t = tg.times()
    if omegas is None or len(omegas) == 1:
        if abs(spec.omega - tg.omega) > 1e-12 * tg.omega:
            raise ValueError("filter and time grid are built for different omega")
        return spec.weight(t)
    if spec.kind != "standard":
        raise ValueError("multi-frequency filtering supports the standard kind only")
    acc = -0.25 * np.ones_like(t)
    for w in omegas:
        acc += np.cos(w * t)
    return acc


def _sinc2pi(x):
    """sin(2 pi x) / (2 pi x), series-evaluated near the removable singularity."""
    x = np.asarray(x, dtype=float)
    u = TWO_PI * x
    small = np.abs(x) < 1e-4
    u_safe = np.where(small, 1.0, u)
    out = np.sin(u_safe) / u_safe
    u2 = u * u
    series = 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return np.where(small, series, out)


def beta_continuous(r, spec: FilterSpec | None = None):
    """Closed-form transfer function of the standard one-period filter.

    Argument is the normalised frequency r = lambda/omega >= 0.  Multi-period
    filters have no closed form here; evaluate those with
    :func:`beta_by_quadrature`.
    """
    if spec is not None and (spec.kind != "standard" or spec.periods != 1):
        raise ValueError("closed form only covers the standard one-period filter")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("normalised frequency r must be nonnegative")
    out = _sinc2pi(r_arr + 1.0) + _sinc2pi(r_arr - 1.0) - 0.5 * _sinc2pi(r_arr)
    return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out


def beta_by_quadrature(lam, spec: FilterSpec, tg: TimeGrid):
    """Trapezoid-rule transfer function beta_h(lambda).

    beta_h(lambda) = (2 dt / T) sum_n eta_n weight(t_n) cos(lambda t_n).
    Exactly 1 at lambda = omega for the standard filter over whole periods
    (the trapezoidal rule integrates low-order trigonometric products
    exactly).  Accepts scalar or array ``lam``.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    t = tg.times()
    wq = tg.eta() * filter_weights(spec, tg)
    vals = (2.0 * tg.dt / tg.T) * (np.cos(np.outer(lam_arr, t)) @ wq)
    return float(vals[0]) if np.isscalar(lam) or np.ndim(lam) == 0 else vals


def shifted_eigenvalue(lambda_j, dt: float):
    """Shift lambda_tilde = (2/dt) asin(dt lambda / 2) induced by leapfrog.

    The leapfrog trajectory of an eigenmode oscillates at lambda_tilde, the
    frequency whose discrete dispersion image is lambda.
    """
    lam = np.asarray(lambda_j, dtype=float)
    x = 0.5 * dt * lam
    if np.any(x > 1.0):
        bad = np.atleast_1d(lam)[np.atleast_1d(x) > 1.0][0]
        raise ValueError(
            f"dt*lambda/2 = {0.5 * dt * bad:.6g} > 1 for lambda = {bad:.6g}; "
            "the leapfrog shift is undefined (CFL violated)"
        )
    out = (2.0 / dt) * np.arcsin(x)
    return float(out) if np.ndim(lambda_j) == 0 else out


def modified_frequency(omega: float, dt: float) -> float:
    """omega_tilde = 2 sin(dt omega / 2)/dt, the frequency the leapfrog
    iteration actually solves for; omega - omega_tilde <= dt^2 omega^3 / 24."""
    if not dt * omega < math.pi:
        raise ValueError(f"dt*omega = {dt * omega:.6g} must be < pi")
    return 2.0 * math.sin(0.5 * dt * omega) / dt


def fixed_point_rate_bound(delta_h: float) -> float:
    """Guaranteed contraction factor max(1 - 0.3 delta_h^2, 0.6)."""
    if not delta_h > 0:
        raise ValueError("relative spectral gap must be positive (resonant problem)")
    return max(1.0 - 0.3 * delta_h**2, 0.6)


@dataclass(frozen=True)
class CflReport:
    """Outcome of the two time step requirements.

    ``stable`` is the hard stability bound dt < 2/(lambda_max + 2 omega/pi).
    ``rate_guaranteed`` is the soft accuracy condition dt*omega <= min(delta_h, 1)
    backing the contraction bound; it is None when delta_h is unknown and the
    dt*omega <= 1 part holds.  Near resonance it may be deliberately violated.
    """

    dt: float
    stable: bool
    stability_limit: float
    rate_guaranteed: bool | None
    accuracy_limit: float | None
    violations: tuple[str, ...] = ()


def cfl_check(omega: float, dt: float, lambda_max: float,
              delta_h: float | None = None) -> CflReport:
    if lambda_max < 0:
        raise ValueError("lambda_max must be nonnegative")
    stab_limit = 2.0 / (lambda_max + 2.0 * omega / math.pi)
    stable = dt < stab_limit
    violations = []
    if not stable:
        violations.append(
            f"dt = {dt:.6g} >= stability limit {stab_limit:.6g}"
        )
    if delta_h is None:
        acc_limit = 1.0 / omega
        guaranteed = None if dt * omega <= 1.0 else False
    else:
        acc_limit = min(delta_h, 1.0) / omega
        guaranteed = dt * omega <= min(delta_h, 1.0)
    if guaranteed is False:
        violations.append(
            f"dt*omega = {dt * omega:.6g} exceeds min(delta_h, 1); "
            "contraction-rate guarantee void"
        )
    return CflReport(dt, stable, stab_limit, guaranteed, acc_limit,
                     tuple(violations))


@dataclass
class TunableFilterResult:
    spec: FilterSpec
    cost: float
    standard_cost: float
    improved: bool
    warning: str | None = None


def _tunable_cost_matrices(omega, tg, n_coeffs, lam_samples):
    """Linear maps coefficient-vector -> (beta at samples, beta'' at target).

    beta is linear in (a0, a_1, ..., a_{n_coeffs-1}) plus the fixed cos(omega t)
    part, so each evaluation point contributes one precomputed row.
    """
    t = tg.times()
    eta = tg.eta()
    scale = 2.0 * tg.dt / tg.T
    basis = [np.ones_like(t)]
    for n in range(1, n_coeffs):
        basis.append(np.sin(n * omega * t))
    basis = np.array(basis)  # (n_coeffs, M+1)
    cos_part = np.cos(omega * t)

    C = np.cos(np.outer(lam_samples, t))  # (S, M+1)
    beta_base = scale * (C @ (eta * cos_part))
    beta_mat = scale * (C * eta) @ basis.T  # (S, n_coeffs)
    Cdd = -C * t * t
    beta2_base = scale * (Cdd @ (eta * cos_part))
    beta2_mat = scale * (Cdd * eta) @ basis.T
    return beta_base, beta_mat, beta2_base, beta2_mat


def optimize_tunable_filter(
    omega: float,
    resonant_lambda: float,
    n_coeffs: int,
    tg: TimeGrid,
    *,
    n_samples: int = 400,
    sample_hi: float | None = None,
    extra_penalty_points=None,
    seed: int = 0,
) -> TunableFilterResult:
    """Design a tunable filter sharpening the transfer function at a resonance.

    Minimises  J = 10.6 beta''(lambda_res) + 0.1 sum_j |beta(r_j)|^20  over
    the free coefficients x = (a0, a_2, ..., a_{n_coeffs-1}); a_1 follows from
    a0.  The r_j are equispaced over [0, sample_hi] (default 4*omega)
    excluding those within 0.1 of the resonant value;
    ``extra_penalty_points`` appends specific frequencies (e.g. a problem's
    shifted eigenvalues) to the fence.  The penalty only restrains where it
    samples, so sample_hi should cover the spectrum the iteration will see.

    beta and beta'' are affine in x, so J is convex and |a0| < 1/2 is a box:
    one L-BFGS-B solve with the analytic gradient, started from the standard
    filter, reaches the global minimum.  It is deterministic; ``seed`` is
    ignored.  Too few samples leave J unbounded below: a solve that does not
    converge, or whose |beta| exceeds 1 on a dense grid over [0, sample_hi],
    returns the standard filter with ``improved=False`` and a warning.
    """
    from scipy.optimize import minimize

    if n_coeffs < 2:
        raise ValueError("need n_coeffs >= 2 (a0 plus at least the pinned a_1)")
    if abs(resonant_lambda - omega) < 1e-12 * omega:
        raise ValueError("resonant_lambda must differ from omega")

    hi = 4.0 * omega if sample_hi is None else sample_hi
    r = np.linspace(0.0, hi, n_samples)
    if extra_penalty_points is not None:
        r = np.concatenate([r, np.asarray(extra_penalty_points, dtype=float)])
    keep = np.abs(r - resonant_lambda) > 0.1
    lam_samples = np.concatenate([[resonant_lambda], r[keep]])
    b_base, b_mat, b2_base, b2_mat = _tunable_cost_matrices(
        omega, tg, n_coeffs, lam_samples
    )
    # coefficients c = T x + e, with a_1 = (1 + 4 a0)/(2 pi) pinned to a0
    ndim = n_coeffs - 1
    T = np.eye(n_coeffs, ndim, k=-1)
    T[0, 0], T[1, 0] = 1.0, 4.0 / TWO_PI
    e = np.eye(n_coeffs)[1] / TWO_PI
    g2_base, g2 = b2_base[0] + b2_mat[0] @ e, b2_mat[0] @ T
    pb, P = b_base[1:] + b_mat[1:] @ e, b_mat[1:] @ T

    def cost_and_grad(x):
        with np.errstate(over="ignore", invalid="ignore"):
            z = pb + P @ x
            az = np.abs(z)
            zp1 = az ** 19
            cost = 10.6 * (g2_base + g2 @ x) + 0.1 * (zp1 @ az)
            grad = 10.6 * g2 + 0.1 * 20 * (P.T @ (zp1 * np.sign(z)))
        return float(cost), grad

    x_standard = np.r_[-0.25, np.zeros(ndim - 1)]
    standard_cost = cost_and_grad(x_standard)[0]
    a0_max = 0.5 - 1e-9
    res = minimize(cost_and_grad, x_standard, jac=True, method="L-BFGS-B",
                   bounds=[(-a0_max, a0_max)] + [(None, None)] * (ndim - 1),
                   options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-10})
    x, cost, pg = res.x, float(res.fun), res.jac.copy()
    converged = bool(np.all(np.isfinite(x)) and np.isfinite(cost))
    if converged:
        # judged on the projected gradient: at roundoff the line search can
        # stop "abnormally" at a point that is already converged
        pg[0] = x[0] - np.clip(x[0] - pg[0], -a0_max, a0_max)
        converged = np.max(np.abs(pg)) <= 1e-6 * max(1.0, abs(cost))
    warning = None if converged else f"filter design did not converge ({res.message})"
    if converged:
        spec = FilterSpec.tunable(omega, a0=float(x[0]), a_rest=tuple(x[1:]),
                                  periods=tg.periods)
        # 16 points per period 2 pi/T of beta's fastest oscillation
        grid = np.linspace(0.0, hi, int(math.ceil(8.0 * hi * tg.T / math.pi)) + 2)
        if np.max(np.abs(beta_by_quadrature(grid, spec, tg))) > 1.0 + 1e-6:
            warning = "designed filter has |beta| > 1: too few penalty samples"
        elif not cost < standard_cost:
            warning = "optimizer did not improve on the standard filter"
    if warning is not None:
        spec = FilterSpec.tunable(omega, a0=-0.25, a_rest=(0.0,) * (ndim - 1),
                                  periods=tg.periods)
        return TunableFilterResult(spec, standard_cost, standard_cost, False, warning)
    return TunableFilterResult(spec, cost, standard_cost, True)
