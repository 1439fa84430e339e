"""The filtered-wave fixed-point iteration and its Krylov-ready reformulation.

One application of the iteration operator Pi evolves the wave equation with
harmonic forcing over the filter window and takes the weighted time average.
Pi is affine, Pi(v) = S v + b, and the fixed point solves the discrete
Helmholtz equation at the modified frequency (or the true one under the
corrected drive).  ``as_affine_system`` exposes A = I - S and b in y = s v,
s = sqrt(W) for the trapezoid weight W, and every outer method (plain
iteration, GMRES, CG) solves A y = b.  Under energy-conserving leapfrog A is
symmetric, and positive definite while the discrete filter transfer
function stays below 1.  On a coarse time grid it can exceed 1 next to omega
(1.00026 on the 8-steps-per-period C08 line), and CG then raises
``IndefiniteOperatorError``; GMRES does not need definiteness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import HelmholtzProblem, ScalarField, WaveState, check_count, check_tolerance
from .filters import FilterSpec, TimeGrid
from .krylov import (
    IterationReport,
    KrylovConfig,
    LinearOperator,
    cg_solve,
    gmres_solve,
)
from .wavesolver import ForcingSchedule, evolve_and_filter


@dataclass
class WaveHoltzConfig:
    """Time grid, filter, scheme, stopping parameters and drive of one solve.

    ``schedule`` is the drive; None drives ``problem.forcing`` at ``tg.omega``.
    Every construction checks that each filter frequency makes whole half
    cycles k_i = omega_i T / pi < M over the window, so beta_h(omega_i) = 1.
    """

    tg: TimeGrid
    spec: FilterSpec
    scheme: str = "leapfrog"
    max_iters: int = 500
    tol: float = 1e-10
    schedule: ForcingSchedule | None = None

    def __post_init__(self):
        check_tolerance(self.tol)
        self.max_iters = check_count(self.max_iters, "max_iters")
        if self.scheme not in ("leapfrog", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        k, M = [w * self.tg.T / math.pi for w in self.spec.omegas], self.tg.steps
        if not (all(abs(x - round(x)) <= 1e-9 for x in k) and round(k[-1]) < M):
            raise ValueError(f"each filter frequency must make whole half cycles over the "
                             f"window, fewer than its {M} steps: omega T / pi = {k}")

    @classmethod
    def build(cls, problem: HelmholtzProblem, *, periods: int = 1,
              steps: int | None = None, scheme: str | None = None,
              spec: FilterSpec | None = None,
              schedule: ForcingSchedule | None = None,
              max_iters: int = 500, tol: float = 1e-10,
              correction: bool = False) -> "WaveHoltzConfig":
        """The one home of a solve's time step.  Defaults: leapfrog when energy
        conserving (else rk4), and the step count M rounded up from a target
        dt so that M*dt = T exactly.  RK4 targets dt = h_min / c_max.
        Leapfrog targets min(0.7 * 2 / lambda_max, 0.95 * limit, 1 / omega)
        at the highest drive frequency omega, with lambda_max from
        ``problem.lambda_max_estimate`` and limit = 2 / (lambda_max + 2 omega
        / pi) its stability bound.

        Leapfrog needs energy-conserving sides, and its ``dt``, given
        ``steps`` or not, must be below that limit, or this raises ValueError
        before any wave solve.  The bound is conservative: it rejects some
        step counts that would still solve.

        ``schedule`` (the drive, kept on the config; by default
        ``problem.forcing`` at ``problem.omega``) sets the frequencies: the
        window spans ``periods`` of the lowest, dt is sized against the
        highest and the default filter is the standard one over all of them.

        ``correction`` keeps the M steps over ``periods`` periods but takes
        dt = 2 sin(pi periods / M) / omega and builds the time grid (and the
        default filter) at omega_bar = 2 pi periods / (M dt), whose leapfrog
        image 2 sin(omega_bar dt / 2) / dt is omega.  Driving, windowing and
        filtering at omega_bar then makes the limit solve the unmodified
        discrete equation at omega.  Leapfrog and the default drive only.
        """
        periods = check_count(periods, "periods")
        steps = None if steps is None else check_count(steps, "steps", 2)
        if scheme is None:
            scheme = "leapfrog" if problem.bcs.energy_conserving else "rk4"
        if scheme == "leapfrog" and not problem.bcs.energy_conserving:
            raise ValueError("leapfrog requires energy-conserving boundary conditions")
        if correction and scheme != "leapfrog":
            raise ValueError("correction=True is exact for leapfrog only")
        if correction and schedule is not None:
            raise ValueError("correction=True drives problem.forcing at the corrected "
                             "frequency: it takes no schedule")
        omegas = [problem.omega] if schedule is None else schedule.omegas.tolist()
        base, top, lam = omegas[0], omegas[-1], problem.lambda_max_estimate()
        limit = 2.0 / (lam + 2.0 * top / math.pi)
        if steps is None:
            dt = (min(0.7 * 2.0 / lam, 0.95 * limit, 1.0 / top) if scheme == "leapfrog"
                  else min(problem.grid.h) / math.sqrt(problem.csq.values.max()))
            steps = max(2, math.ceil(periods * 2.0 * math.pi / base / dt))
        steps = int(math.ceil(steps / periods)) * periods  # whole steps per period
        if correction:
            dt = 2.0 * math.sin(math.pi * periods / steps) / base
            omegas = [2.0 * math.pi * periods / (steps * dt)]
        tg = TimeGrid(omegas[0], periods, steps)
        if scheme == "leapfrog" and not tg.dt < limit:
            raise ValueError(f"leapfrog is unstable at {steps} steps: dt = {tg.dt:.6g} "
                             f">= stability limit {limit:.6g}")
        if spec is None:
            spec = FilterSpec(omegas)
        return cls(tg=tg, spec=spec, scheme=scheme, max_iters=max_iters, tol=tol,
                   schedule=schedule)


def _schedule_for(problem, config):
    """The config's drive: by default problem.forcing at the grid's omega."""
    if config.schedule is None:
        return ForcingSchedule([problem.forcing], [config.tg.omega])
    return config.schedule


def _scale(problem, config) -> np.ndarray:
    """s = sqrt(W) on the flat iterate, tiled over (w, v) for rk4.  All ones,
    so that scaling by it is exact, without Neumann sides."""
    return np.tile(np.sqrt(problem.trapezoid_weight), 2 if config.scheme == "rk4" else 1)


def _from_iterate(y: np.ndarray, problem, config):
    """Scaled iterate y = s v -> ScalarField (leapfrog) or WaveState (rk4) of v."""
    grid, x = problem.grid, y / _scale(problem, config)
    if config.scheme == "rk4":
        w, v = x.reshape((2, *grid.shape))
        return WaveState(ScalarField(grid, w), ScalarField(grid, v))
    return ScalarField(grid, x.reshape(grid.shape))


def as_affine_system(problem: HelmholtzProblem, config: WaveHoltzConfig):
    """(A, b) in y = s v, s = sqrt(W): A y = y - s S(y / s) with S(v) = Pi(v) -
    Pi(0), b = s Pi(0), so s Pi(y / s) = b + y - A y; the package has no other
    route to Pi.  Under leapfrog W makes A plainly symmetric.  Each application
    of A costs one homogeneous wave solve, filtered with the same weight; b
    costs one forced solve from zero data, made now.  A is a matrix-free
    LinearOperator on the flat iterate of ``evolve_and_filter`` (displacement,
    or the stacked pair for rk4).
    """
    s = _scale(problem, config)
    b, _ = evolve_and_filter(np.zeros_like(s), _schedule_for(problem, config),
                             problem, config.tg, config.spec, config.scheme)

    def apply(y: np.ndarray) -> np.ndarray:
        sx, _ = evolve_and_filter(y / s, None, problem, config.tg, config.spec, config.scheme)
        return y - s * sx

    return LinearOperator(dimension=b.size, apply=apply), s * b


def solve(problem: HelmholtzProblem, config: WaveHoltzConfig,
          method: str = "fixed_point", krylov: KrylovConfig | None = None):
    """Solve A y = b of ``as_affine_system`` with the chosen outer method.

    method: "fixed_point", "gmres" or "cg", each reporting ||b - A y|| / ||b||
    and returning v = y / s.  Fixed point is y <- y + (b - A y) = s Pi(y / s)
    from y = b, stopped at ``config.tol`` or ``config.max_iters``; its
    residual is the increment that makes y_{k+1}.  Stagnation (e.g. near
    resonance) shows up as converged=False, never as an exception.  GMRES and
    CG take ``krylov``, which must name the same method (by default one built
    from the config's tol and max_iters).  CG needs leapfrog: the rk4 A acts
    on the (w, v) pair and is not self-adjoint, so CG there diverges without
    an error.

    The report counts operator applications, i.e. wave solves, and its wall
    time covers the whole solve; both include the forced solve that builds b.
    Returns (iterate, report); for rk4 the iterate is a WaveState whose
    displacement is the Helmholtz solution.
    """
    if krylov is not None and krylov.method != method:
        raise ValueError(f"a KrylovConfig for {krylov.method!r} cannot drive {method!r}")
    if method == "cg" and config.scheme == "rk4":
        raise ValueError("cg needs leapfrog: the rk4 operator is not self-adjoint")
    if krylov is None and method != "fixed_point":
        krylov = KrylovConfig(method=method, tol=config.tol,
                              max_iters=config.max_iters)
    t0 = time.perf_counter()
    A, b = as_affine_system(problem, config)
    if method == "fixed_point":
        bnorm = float(np.linalg.norm(b))
        denom = bnorm or 1.0
        x, history = b, [bnorm / denom]
        while history[-1] > config.tol and len(history) < config.max_iters:
            r = b - A.apply(x)
            history.append(float(np.linalg.norm(r)) / denom)
            x = x + r
        report = IterationReport(history, len(history), history[-1] <= config.tol,
                                 operator_applications=len(history) - 1)
    elif method == "gmres":
        x, report = gmres_solve(A, b, krylov)
    else:
        x, report = cg_solve(A, b, krylov)
    report.wall_time = time.perf_counter() - t0
    report.operator_applications += 1  # the forced solve that built b
    return _from_iterate(x, problem, config), report


def fixed_point_solve(problem: HelmholtzProblem, config: WaveHoltzConfig):
    """Plain iteration v <- Pi(v) from v = 0: ``solve(problem, config,
    "fixed_point")``."""
    return solve(problem, config, "fixed_point")


@dataclass
class MultiFrequencyResult:
    solutions: list[ScalarField]
    report: IterationReport
    combined: ScalarField


def multifreq_solve(problem: HelmholtzProblem, config: WaveHoltzConfig,
                    method: str = "gmres",
                    krylov: KrylovConfig | None = None) -> MultiFrequencyResult:
    """Solve for the several frequencies of the config's drive
    (``build(problem, schedule=...)``) in one iteration.

    The combined field is converged with the summed drive and ``config.spec``,
    which must carry the drive's frequencies.  From it the leapfrog trajectory
    over the solve's own window of M steps is sum_j u_j cos(omega_j t_n),
    with no sine part as the scheme is symmetric in time.  For whole cycles
    0 < k, l < M/2 (the config bounds them), sum_{n<M} cos(k theta_n)
    cos(l theta_n) = (M/2) delta_kl, so u_j = (2/M) sum_n cos(omega_j t_n)
    w^n separates the solutions exactly, from M N doubles of samples and one
    more wave solve in the report's count.  One frequency needs no extra
    window: its solution is the combined field.

    The default method is GMRES: the multi-frequency transfer function can
    exceed 1 (1.094 on a 1D Dirichlet box, n = 100, at omega = 4, 8, 12), so
    A can be indefinite, and CG then raises ``IndefiniteOperatorError``.
    Leapfrog and whole cycles are checked before any wave solve.  The wall
    time runs from entry to the end of the projection.
    """
    t0 = time.perf_counter()
    schedule, tg = _schedule_for(problem, config), config.tg
    omegas, m = schedule.omegas, tg.steps
    if config.scheme != "leapfrog":
        raise ValueError("multi-frequency extraction is implemented for leapfrog")
    if np.any(np.round(np.array(config.spec.omegas) * (tg.T / math.pi)) % 2):
        raise ValueError("extraction needs whole cycles of every frequency over the window")

    v, report = solve(problem, config, method=method, krylov=krylov)
    if len(omegas) == 1:
        return MultiFrequencyResult([ScalarField(problem.grid, v.values.copy())], report, v)
    report.operator_applications += 1  # the extraction window
    _, samples = evolve_and_filter(v.values.ravel(), schedule, problem, tg, config.spec,
                                   config.scheme, sample_steps=range(m))
    C = (2.0 / m) * np.cos(np.outer(omegas, tg.dt * np.arange(m)))
    U = sum(np.outer(C[:, n], samples.pop(n)) for n in range(m))  # frees each sample
    sols = [ScalarField(problem.grid, u.reshape(problem.grid.shape)) for u in U]
    report.wall_time = time.perf_counter() - t0
    return MultiFrequencyResult(sols, report, v)
