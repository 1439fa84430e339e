"""Time-domain integrators for the forced wave equation plus the online filter.

Two schemes:

* leapfrog on the second-order form, for energy-conserving (Dirichlet/Neumann)
  boundaries; the iterate is the flat array of N displacement values, started
  with zero velocity,
* classic RK4 on the first-order system (w, v), required when impedance sides
  are present; the iterate is the stacked pair, one flat array of 2N values,
  and the ghost closure ties the boundary velocity to the outward normal
  derivative so outflow dissipates.

The filtered time average is accumulated online (running weighted sum), so a
solve never stores the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GridMismatchError,
    HelmholtzProblem,
    ScalarField,
    WaveState,
    _lap_values,
)
from .filters import FilterSpec, TimeGrid, filter_weights


class InstabilityError(RuntimeError):
    """A time integration produced non-finite values."""


@dataclass
class ForcingSchedule:
    """Spatial forcings f_i driven at cos(omega_i t), summed."""

    forcings: list[ScalarField]
    omegas: np.ndarray

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        if len(self.forcings) != len(self.omegas):
            raise ValueError("need one forcing field per frequency")
        if len(self.forcings) == 0:
            raise ValueError("empty forcing schedule")
        grid = self.forcings[0].grid
        for f in self.forcings:
            if f.grid != grid:
                raise GridMismatchError("all forcings must share one grid")
        if np.any(np.diff(self.omegas) <= 0):
            raise ValueError("frequencies must be strictly increasing")

    @classmethod
    def single(cls, problem: HelmholtzProblem):
        return cls([problem.forcing], np.array([problem.omega]))

    @property
    def stacked(self) -> np.ndarray:
        return np.stack([f.values for f in self.forcings])


class _Drive:
    """Precomputed drive evaluator: t -> sum_i f_i cos(omega_i t)."""

    def __init__(self, schedule: ForcingSchedule | None):
        fstack = None if schedule is None else schedule.stacked
        self.fstack = fstack if fstack is not None and np.any(fstack) else None
        self.freqs = None if schedule is None else schedule.omegas

    def __call__(self, t: float):
        if self.fstack is None:
            return None
        return np.tensordot(np.cos(self.freqs * t), self.fstack, axes=(0, 0))


def _second_order_rhs(w, t, drive, problem):
    """L w + f(t), with the Dirichlet rows kept at zero."""
    rhs = _lap_values(problem, w)
    d = drive(t)
    if d is not None:
        rhs = rhs + d
        rhs[problem.dirichlet_mask] = 0.0
    return rhs


def leapfrog_initialize(v: ScalarField, schedule: ForcingSchedule | None,
                        problem: HelmholtzProblem, dt: float):
    """Start-up pair (w^0, w^-1) = (v, v - dt^2/2 (L v + f(0))).

    Encodes zero initial discrete velocity.  Only valid for energy-conserving
    boundaries (the second-order form has no impedance closure).
    """
    if v.grid != problem.grid:
        raise GridMismatchError("initial field grid does not match problem")
    w0, wm1 = _leapfrog_initialize_values(v.values, _Drive(schedule), problem, dt)
    return ScalarField(problem.grid, w0), ScalarField(problem.grid, wm1)


def _leapfrog_initialize_values(v, drive, problem, dt):
    if not problem.bcs.energy_conserving:
        raise ValueError("leapfrog requires energy-conserving boundary conditions")
    w0 = v.copy()
    w0[problem.dirichlet_mask] = 0.0
    return w0, w0 - 0.5 * dt * dt * _second_order_rhs(w0, 0.0, drive, problem)


def leapfrog_step(w_n: ScalarField, w_nm1: ScalarField, t_n: float,
                  schedule: ForcingSchedule | None, problem: HelmholtzProblem,
                  dt: float) -> ScalarField:
    """One update w^{n+1} = 2 w^n - w^{n-1} - dt^2 (L w^n + f cos(omega t_n))."""
    out = _leapfrog_step_values(w_n.values, w_nm1.values, t_n, _Drive(schedule),
                                problem, dt, 0)
    return ScalarField(problem.grid, out)


def _leapfrog_step_values(wn, wnm1, t_n, drive, problem, dt, step_index):
    out = 2.0 * wn - wnm1 - dt * dt * _second_order_rhs(wn, t_n, drive, problem)
    if not np.isfinite(out).all():
        raise InstabilityError(f"leapfrog produced non-finite values at step {step_index}")
    return out


def first_order_rhs(state: WaveState, t: float, schedule: ForcingSchedule | None,
                    problem: HelmholtzProblem):
    """(dw/dt, dv/dt) = (v, -L w - f(t)) with impedance ghosts closed from v.

    On impedance sides the ghost value enforces alpha*v + beta*(n . D0 w) = 0
    at the boundary node before the stencil is applied; Dirichlet rows stay
    zero.
    """
    dw, dv = _first_order_rhs_values(state.w.values, state.v.values, t,
                                     _Drive(schedule), problem)
    return ScalarField(problem.grid, dw), ScalarField(problem.grid, dv)


def _first_order_rhs_values(w, v, t, drive, problem):
    dv = -_lap_values(problem, w, v)
    d = drive(t)
    if d is not None:
        dv -= d
    dw = v.copy()
    mask = problem.dirichlet_mask
    dw[mask] = 0.0
    dv[mask] = 0.0
    return dw, dv


def rk4_step(state: WaveState, t: float, dt: float,
             schedule: ForcingSchedule | None, problem: HelmholtzProblem) -> WaveState:
    """Classic four-stage Runge-Kutta update of (w, v)."""
    w, v = _rk4_step_values(state.w.values, state.v.values, t, dt,
                            _Drive(schedule), problem, 0)
    return WaveState(ScalarField(problem.grid, w), ScalarField(problem.grid, v),
                     state.t + dt)


def _rk4_step_values(w, v, t, dt, drive, problem, step_index):
    # The stages keep w and v apart: on the stacked (2, *grid) state, whose
    # temporaries are twice as large, a C10-sized step measured 1.6x slower.
    f = lambda wv, vv, tt: _first_order_rhs_values(wv, vv, tt, drive, problem)
    k1w, k1v = f(w, v, t)
    k2w, k2v = f(w + 0.5 * dt * k1w, v + 0.5 * dt * k1v, t + 0.5 * dt)
    k3w, k3v = f(w + 0.5 * dt * k2w, v + 0.5 * dt * k2v, t + 0.5 * dt)
    k4w, k4v = f(w + dt * k3w, v + dt * k3v, t + dt)
    wn = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    vn = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if not (np.isfinite(wn).all() and np.isfinite(vn).all()):
        raise InstabilityError(f"rk4 produced non-finite values at step {step_index}")
    return wn, vn


def evolve_and_filter(x: np.ndarray, schedule: ForcingSchedule | None,
                      problem: HelmholtzProblem, tg: TimeGrid, spec: FilterSpec,
                      scheme: str, sample_steps=None, filter_omegas=None):
    """Integrate 0 -> T from the flat iterate x; return its filtered time average.

    The iterate is one flat float64 array: the N displacement values for
    leapfrog (started with zero velocity), or the stacked (w, v) pair of 2N
    values, w first, for rk4.  The average (2 dt / T) sum_n eta_n weight(t_n)
    y^n is accumulated online in the same layout and returned flat; under
    rk4 the one scalar weight multiplies both components.  ``sample_steps``
    requests copies of the displacement, in grid shape, at those step
    indices (for multi-frequency extraction).

    ``filter_omegas`` pins the multi-frequency filter weight independently of
    the drive, so the homogeneous (zero-forcing) runs behind the affine
    reformulation average with the same weight as the forced ones.

    Returns (filtered, samples) where samples maps step index -> ndarray.
    """
    if scheme == "leapfrog":
        evolve, shape = _evolve_leapfrog, problem.grid.shape
    elif scheme == "rk4":
        evolve, shape = _evolve_rk4, (2, *problem.grid.shape)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    x = np.asarray(x, dtype=float)
    if x.size != math.prod(shape):
        raise GridMismatchError(f"a {scheme} iterate has {math.prod(shape)} values, "
                                f"got {x.size}")
    if filter_omegas is None:
        filter_omegas = schedule.omegas if schedule is not None else None
    weights = tg.eta() * filter_weights(spec, tg, filter_omegas)
    wanted = {int(s) for s in sample_steps} if sample_steps else set()
    if wanted and (min(wanted) < 0 or max(wanted) > tg.steps):
        raise ValueError("sample steps outside the time grid")
    acc, samples = evolve(x.reshape(shape), _Drive(schedule), problem, tg,
                          weights, wanted)
    return (2.0 * tg.dt / tg.T * acc).ravel(), samples


def _evolve_leapfrog(w, drive, problem, tg, weights, wanted):
    dt = tg.dt
    wn, wnm1 = _leapfrog_initialize_values(w, drive, problem, dt)
    acc = weights[0] * wn
    samples = {0: wn.copy()} if 0 in wanted else {}
    for n in range(tg.steps):
        wnm1, wn = wn, _leapfrog_step_values(wn, wnm1, n * dt, drive, problem, dt, n)
        acc += weights[n + 1] * wn
        if n + 1 in wanted:
            samples[n + 1] = wn.copy()
    return acc, samples


def _evolve_rk4(y, drive, problem, tg, weights, wanted):
    dt = tg.dt
    y = y.copy()
    y[:, problem.dirichlet_mask] = 0.0
    acc = weights[0] * y
    w, v = y
    samples = {0: w.copy()} if 0 in wanted else {}
    for n in range(tg.steps):
        w, v = _rk4_step_values(w, v, n * dt, dt, drive, problem, n)
        acc[0] += weights[n + 1] * w
        acc[1] += weights[n + 1] * v
        if n + 1 in wanted:
            samples[n + 1] = w.copy()
    return acc, samples


def default_leapfrog_steps(problem: HelmholtzProblem, tg_omega: float,
                           periods: int, omega_max: float | None = None,
                           safety: float = 0.7) -> int:
    """Step count M so that dt = T/M meets the leapfrog stability bounds.

    Targets dt = safety * 2 / lambda_max_estimate, tightened by the hard
    stability bound dt < 2/(lambda_max + 2 omega/pi) and the time-resolution
    cap dt*omega <= 1, then rounds M up so M*dt = T exactly.
    """
    lam = problem.lambda_max_estimate()
    w = problem.omega if omega_max is None else omega_max
    dt_target = min(
        safety * 2.0 / lam,
        0.95 * 2.0 / (lam + 2.0 * w / math.pi),
        1.0 / w,
    )
    T = periods * 2.0 * math.pi / tg_omega
    return max(2, math.ceil(T / dt_target))


def default_rk4_steps(problem: HelmholtzProblem, tg_omega: float, periods: int,
                      safety: float = 1.0) -> int:
    """Step count for RK4 from dt = safety * h_min / c_max, rounded up."""
    dt_target = safety * min(problem.grid.h) / problem.max_wave_speed
    T = periods * 2.0 * math.pi / tg_omega
    return max(2, math.ceil(T / dt_target))
