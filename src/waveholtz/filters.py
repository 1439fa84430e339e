"""Filter transfer functions: closed forms, trapezoid quadrature, tunable design.

The time average applied to a wave trajectory acts on the eigencomponent of
(sqrt-)eigenvalue ``lambda`` as multiplication by a transfer function beta.
For the standard weight ``cos(omega t) - 1/4`` over one period the continuous
transfer function has the closed form

    beta(r) = sinc(r + 1) + sinc(r - 1) - sinc(r)/2,   r = lambda/omega,

with ``sinc(r) = sin(2 pi r)/(2 pi r)``, NumPy's ``np.sinc(2 r)``.  Discretely
the weight is summed by the trapezoidal rule, which leaves beta(omega) = 1
exact whenever the window spans whole periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_count, check_frequencies

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
        object.__setattr__(self, "omega", check_frequencies((self.omega,), "omega")[0])
        object.__setattr__(self, "periods", check_count(self.periods, "periods"))
        object.__setattr__(self, "steps", check_count(self.steps, "steps", 2))

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
    """The weight multiplying the trajectory inside the time average,

        weight(t) = sum_i cos(omega_i t) + a0 + sum_n a_n sin(n omega_0 t),

    over the drive's strictly increasing frequencies ``omegas``, where
    ``omegas[0]`` is the time grid's omega.  The standard filter is a0 = -1/4
    with no sine terms, the only one allowed with several frequencies.  A
    tunable filter requires |a0| < 1/2 and fixes a_1 = (1 + 4 a0)/(2 pi), the
    two conditions that pin the transfer function to beta(omega) = 1 with a
    critical point there; the standard filter meets them with a_1 = 0.
    """

    omegas: tuple[float, ...]
    a0: float = -0.25
    a: tuple[float, ...] = ()

    def __post_init__(self):
        omegas = check_frequencies(self.omegas, "filter frequencies")
        object.__setattr__(self, "omegas", omegas)  # hashable, whatever was passed
        object.__setattr__(self, "a", tuple(float(c) for c in self.a))
        if not np.all(np.isfinite((self.a0, *self.a))):
            raise ValueError("filter coefficients must be finite")
        if len(omegas) > 1 and (self.a or self.a0 != -0.25):
            raise ValueError("a multi-frequency filter is the standard one: "
                             "a0 = -1/4 and no sine terms")
        if not abs(self.a0) < 0.5:
            raise ValueError("tunable filter requires |a0| < 1/2")
        a1 = (1.0 + 4.0 * self.a0) / TWO_PI
        if abs((self.a[0] if self.a else 0.0) - a1) > 1e-14 * max(1.0, abs(a1)):
            raise ValueError("tunable filter requires a_1 = (1 + 4 a0)/(2 pi)")

    @classmethod
    def standard(cls, *omegas):
        return cls(omegas)

    @classmethod
    def tunable(cls, omega, a0, a_rest=()):
        """Build a tunable spec from a0 and the free coefficients a_2, a_3, ..."""
        return cls((omega,), a0, ((1.0 + 4.0 * a0) / TWO_PI, *a_rest))

    def weight(self, t):
        """Evaluate the filter weight at time(s) t."""
        t = np.asarray(t, dtype=float)
        acc = self.a0 + np.cos(self.omegas[0] * t)
        for w in self.omegas[1:]:
            acc += np.cos(w * t)
        n_omega = self.omegas[0] * np.arange(1, len(self.a) + 1)
        return acc + np.sin(np.multiply.outer(t, n_omega)) @ self.a  # a column per term


def check_filter_grid(spec: FilterSpec, tg: TimeGrid):
    """The filter's first frequency must be the time grid's (relative 1e-12)."""
    if abs(spec.omegas[0] - tg.omega) > 1e-12 * tg.omega:
        raise ValueError("filter and time grid are built for different omega")


def filter_weights(spec: FilterSpec, tg: TimeGrid) -> np.ndarray:
    """Trapezoid weights eta_n weight(t_n) over the time grid; the average is
    (2 dt / T) times their sum against the trajectory."""
    check_filter_grid(spec, tg)
    return tg.eta() * spec.weight(tg.times())


def beta_continuous(r):
    """Closed-form transfer function of the standard one-frequency filter over
    one period.

    Argument is the normalised frequency r = lambda/omega >= 0.  Other
    filters and windows have no closed form here; evaluate those with
    :func:`beta_by_quadrature`.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("normalised frequency r must be nonnegative")
    u = 2.0 * r_arr
    out = np.sinc(u + 2.0) + np.sinc(u - 2.0) - 0.5 * np.sinc(u)
    return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out


def beta_by_quadrature(lam, spec: FilterSpec, tg: TimeGrid):
    """Trapezoid-rule transfer function beta_h(lambda).

    beta_h(lambda) = (2 dt / T) sum_n eta_n weight(t_n) cos(lambda t_n).
    Exactly 1 at lambda = omega for the standard filter over whole periods
    (the trapezoidal rule integrates low-order trigonometric products
    exactly).  Accepts scalar or array ``lam``.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    wq = filter_weights(spec, tg)
    vals = (2.0 * tg.dt / tg.T) * (np.cos(np.outer(lam_arr, tg.times())) @ wq)
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


@dataclass
class TunableFilterResult:
    spec: FilterSpec
    cost: float
    standard_cost: float
    improved: bool
    warning: str | None = None


def _design_maps(omega, tg, n_coeffs, resonant_lambda, fence):
    """beta at the fence and beta'' at the resonance as affine maps of the free
    coefficients x = (a0, a_2, ..., a_{n_coeffs-1}): (beta base, beta matrix,
    beta'' base, beta'' row).

    With a_1 = (1 + 4 a0)/(2 pi) the weight is w0 + sum_k x_k b_k, where
    w0 = cos(omega t) + sin(omega t)/(2 pi), b_0 = 1 + (2/pi) sin(omega t) and
    b_k = sin((k+1) omega t); beta is linear in the weight, and d^2/dlam^2 of
    cos(lam t) is -t^2 cos(lam t).
    """
    t = tg.times()
    wt = omega * t
    rows = tg.eta() * np.array([np.cos(wt) + np.sin(wt) / TWO_PI,
                                1.0 + (2.0 / math.pi) * np.sin(wt),
                                *(np.sin(n * wt) for n in range(2, n_coeffs))])
    scale = 2.0 * tg.dt / tg.T
    c = np.outer(fence, t)
    beta = scale * (np.cos(c, out=c) @ rows.T)
    beta2 = -scale * ((np.cos(resonant_lambda * t) * t * t) @ rows.T)
    return beta[:, 0], beta[:, 1:], beta2[0], beta2[1:]


def optimize_tunable_filter(
    omega: float,
    resonant_lambda: float,
    n_coeffs: int,
    tg: TimeGrid,
    *,
    n_samples: int | None = None,
    sample_hi: float | None = None,
    extra_penalty_points=None,
    seed: int = 0,
) -> TunableFilterResult:
    """Design a tunable filter sharpening the transfer function at a resonance.

    Minimises  J = 10.6 beta''(lambda_res) + 0.1 sum_j |beta(r_j)|^20  over
    the free coefficients x = (a0, a_2, ..., a_{n_coeffs-1}); a_1 follows from
    a0.  The r_j are equispaced over [0, sample_hi], excluding those within
    0.1 of the resonant value; ``extra_penalty_points`` appends specific
    frequencies (e.g. a problem's shifted eigenvalues) to the fence.  The
    penalty only restrains where it samples, so n_samples defaults to
    max(400, 4 M) for M steps.  The default sample_hi = pi/dt fences the
    whole band: on t_n = n dt, beta_h is even and 2 pi/dt-periodic in
    lambda, so its largest value over the real line is its largest on
    [0, pi/dt], where every leapfrog mode's shifted frequency lies as well.

    beta and beta'' are affine in x, so J is convex and |a0| < 1/2 is a box:
    damped Newton on the exact Hessian, started from the standard filter,
    reaches the global minimum.  Each step backtracks on J from a step that
    moves no |beta(r_j)| by more than 1 and keeps a0 in its box.  It is
    deterministic; ``seed`` is ignored.  Too few samples leave J unbounded
    below: a solve that does not converge, or whose |beta| exceeds 1 at
    lambda_k = k pi / ((8 M + 1) dt), k <= 8 M + 1 (the whole band, 16 points
    per period 2 pi/T of beta_h, from one real FFT), whatever sample_hi is,
    returns the standard filter with ``improved=False`` and a warning.
    """
    n_coeffs = check_count(n_coeffs, "n_coeffs", 2)  # a0 and the pinned a_1
    n_samples = (max(400, 4 * tg.steps) if n_samples is None
                 else check_count(n_samples, "n_samples"))
    (resonant_lambda,) = check_frequencies((resonant_lambda,), "resonant_lambda")
    if abs(resonant_lambda - omega) < 1e-12 * omega:
        raise ValueError("resonant_lambda must differ from omega")

    hi = (math.pi / tg.dt if sample_hi is None
          else check_frequencies((sample_hi,), "sample_hi")[0])
    r = np.linspace(0.0, hi, n_samples)
    if extra_penalty_points is not None:
        r = np.concatenate([r, np.asarray(extra_penalty_points, dtype=float)])
    pb, P, g2_base, g2 = _design_maps(omega, tg, n_coeffs, resonant_lambda,
                                      r[np.abs(r - resonant_lambda) > 0.1])
    ndim = n_coeffs - 1

    def cost_at(x):
        az = np.abs(pb + P @ x)
        return float(10.6 * (g2_base + g2 @ x) + 0.1 * (az ** 19 @ az))

    box = np.r_[0.5 - 1e-9, np.full(ndim - 1, np.inf)]  # |a0| < 1/2, the rest free
    x, reduction = np.r_[-0.25, np.zeros(ndim - 1)], math.inf
    with np.errstate(all="ignore"):  # overflow of |z|^20 is a rejected trial
        cost = standard_cost = cost_at(x)
        for steps in range(201):
            z = pb + P @ x
            w = np.abs(z) ** 18  # the Hessian is 0.1 * 380 P^T diag(|z|^18) P
            grad = 10.6 * g2 + 2.0 * (P.T @ (w * z))
            pg = x - np.clip(x - grad, -box, box)  # the projected gradient
            if steps == 200 or reduction <= 1e-15 * max(1.0, abs(cost)):
                break
            # Newton on the free coefficients: a0 stays at a bound the gradient
            # pushes it out of.  |z|^18 is tiny wherever |beta| < 1, so H can be
            # singular to working precision; the shift keeps the solve accurate
            free = pg != 0
            H = 38.0 * (P.T * w)[free] @ P[:, free]
            H += 1e-12 * np.trace(H) * np.eye(len(H))
            dx = np.zeros(ndim)
            try:
                dx[free] = np.linalg.solve(H, -grad[free])
            except np.linalg.LinAlgError:  # H = 0: no sample sees the step
                break
            slope = grad @ dx  # minus the squared Newton decrement
            if not slope < -1e-20 * max(1.0, abs(cost)):  # converged, or NaN
                break
            s = min(1.0, 1.0 / np.max(np.abs(P @ dx)))  # no |beta(r_j)| moves by > 1
            for _ in range(50):  # Armijo backtracking on J alone, clipped to the box
                trial = np.clip(x + s * dx, -box, box)
                trial_cost = cost_at(trial)
                if trial_cost <= cost + 1e-4 * (grad @ (trial - x)):
                    break
                s *= 0.5
            else:  # no step lowers J
                break
            x, cost, reduction = trial, trial_cost, cost - trial_cost
    converged = bool(np.all(np.isfinite(x)) and np.isfinite(cost)
                     and np.max(np.abs(pg)) <= 1e-6 * max(1.0, abs(cost)))
    warning = None if converged else "filter design did not converge"
    if converged:
        spec = FilterSpec.tunable(omega, a0=float(x[0]), a_rest=tuple(x[1:]))
        band = (2.0 * tg.dt / tg.T) * np.fft.rfft(filter_weights(spec, tg),
                                                  16 * tg.steps + 2).real
        if np.max(np.abs(band)) > 1.0 + 1e-6:
            warning = "designed filter has |beta| > 1: too few penalty samples"
        elif not cost < standard_cost:
            warning = "optimizer did not improve on the standard filter"
    if warning is not None:
        spec = FilterSpec.tunable(omega, a0=-0.25, a_rest=(0.0,) * (ndim - 1))
        return TunableFilterResult(spec, standard_cost, standard_cost, False, warning)
    return TunableFilterResult(spec, cost, standard_cost, True)
