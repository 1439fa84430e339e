"""Matrix-free Krylov solvers: restarted GMRES and conjugate gradients.

Operators are abstract callables; cost is tracked as the number of operator
applications, which for the filtered-wave system is the number of wave solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import check_count, check_tolerance


class IndefiniteOperatorError(RuntimeError):
    """CG met a search direction with nonpositive curvature."""


@dataclass
class LinearOperator:
    """Deterministic linear map on R^dimension, given as a callable."""

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class KrylovConfig:
    method: str = "gmres"
    restart: int = 100
    tol: float = 1e-7
    max_iters: int = 1000

    def __post_init__(self):
        if self.method not in ("gmres", "cg"):
            raise ValueError(f"unknown method {self.method!r}: the methods are fixed_point, "
                             "gmres and cg, and a KrylovConfig drives gmres or cg")
        object.__setattr__(self, "restart", check_count(self.restart, "restart"))
        object.__setattr__(self, "max_iters", check_count(self.max_iters, "max_iters"))
        check_tolerance(self.tol)


@dataclass
class IterationReport:
    """Convergence record shared by the fixed-point and Krylov drivers."""

    residual_history: list[float]
    iters: int
    converged: bool
    wall_time: float = 0.0  # set by iteration.solve, which times the whole solve
    operator_applications: int = 0

    def __post_init__(self):
        if not self.residual_history:
            raise ValueError("residual history must be non-empty")

    @property
    def measured_rate(self) -> float:
        """Geometric mean of the residual ratios over the last quartile."""
        h = np.asarray(self.residual_history, dtype=float)
        if h.size < 2:
            return 1.0
        ratios = h[1:] / np.maximum(h[:-1], 1e-300)
        tail = ratios[-max(1, ratios.size // 4):]
        tail = np.maximum(tail, 1e-300)
        return float(np.exp(np.mean(np.log(tail))))


def gmres_solve(A: LinearOperator, b: np.ndarray, config: KrylovConfig):
    """Restarted GMRES with classical Gram-Schmidt and selective reorthogonalisation.

    Stops on relative residual ||b - Ax||/||b|| <= tol, on max_iters, or when
    a full restart cycle makes no progress (reported as converged=False).
    Happy breakdown of the Arnoldi recurrence counts as convergence.
    """
    n = A.dimension
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), IterationReport([0.0], 0, True)
    x = np.zeros(n)
    r = b.copy()  # b - A 0, which takes no application: A is linear
    history: list[float] = []
    apps = 0
    iters = 0
    converged = False
    m = config.restart

    # Each later pass recomputes a true residual (one operator application),
    # so a convergence claim is always certified outside the Givens estimates;
    # an estimate that meets tol is certified even at the iteration cap.
    while iters < config.max_iters or history[-1] <= config.tol:
        if history:
            r = b - A.apply(x)
            apps += 1
        beta = float(np.linalg.norm(r))
        cycle_start = beta / bnorm
        history.append(cycle_start)
        if cycle_start <= config.tol:
            converged = True
            break

        # rows for the iterations this cycle can still run, not the full restart
        V = np.empty((min(m, config.max_iters - iters) + 1, n))
        V[0] = r / beta
        # R[k] is column k of the rotated Hessenberg matrix, rows 0..k.
        R: list[np.ndarray] = []
        cs: list[float] = []
        sn: list[float] = []
        g = [beta]

        for j in range(m):
            if iters >= config.max_iters:
                break
            w = A.apply(V[j])
            apps += 1
            iters += 1
            basis = V[: j + 1]
            h = basis @ w
            w -= h @ basis
            wnorm = float(np.linalg.norm(w))
            # One extra pass if orthogonality against the basis decayed.
            s = basis @ w
            if float(np.linalg.norm(s)) > 1e-8 * max(wnorm, 1e-300):
                w -= s @ basis
                h += s
                wnorm = float(np.linalg.norm(w))

            col = h.tolist()
            for i in range(j):
                a, c = col[i], col[i + 1]
                col[i] = cs[i] * a + sn[i] * c
                col[i + 1] = -sn[i] * a + cs[i] * c
            denom = math.hypot(col[j], wnorm)
            if denom == 0.0:
                break  # rotated column vanished; this direction adds nothing
            cs.append(col[j] / denom)
            sn.append(wnorm / denom)
            col[j] = denom
            R.append(np.array(col))
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]
            history.append(abs(g[j + 1]) / bnorm)

            if wnorm <= 1e-14 * denom:
                break  # happy breakdown; solution lies in the current space
            V[j + 1] = w / wnorm
            if history[-1] <= config.tol:
                break

        width = len(R)
        if width == 0:
            break
        y = np.array(g[:width])
        for k in range(width - 1, -1, -1):
            y[k] /= R[k][k]
            y[:k] -= y[k] * R[k][:k]
        x += y @ V[:width]

        if history[-1] >= cycle_start * (1.0 - 1e-12):
            break  # stagnated across a full restart cycle

    return x, IterationReport(history, iters, converged, operator_applications=apps)


def cg_solve(A: LinearOperator, b: np.ndarray, config: KrylovConfig):
    """Conjugate gradients; expects A (numerically) symmetric positive
    definite.  The history and stop test use the relative residual
    ||b - Ax||/||b||, as in GMRES.

    Raises IndefiniteOperatorError when a search direction shows nonpositive
    curvature, which signals misuse on a non-SPD operator.
    """
    n = A.dimension
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), IterationReport([0.0], 0, True)
    x = np.zeros(n)
    r = b.copy()  # b - A 0, which takes no application: A is linear
    apps = 0
    rs = float(r @ r)
    history = [math.sqrt(rs) / bnorm]
    p = r.copy()
    iters = 0
    converged = history[-1] <= config.tol
    while not converged and iters < config.max_iters:
        Ap = A.apply(p)
        apps += 1
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise IndefiniteOperatorError(
                f"<Ap, p> = {pAp:.3e} <= 0 at iteration {iters}; operator is not SPD"
            )
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        iters += 1
        history.append(math.sqrt(rs_new) / bnorm)
        if history[-1] <= config.tol:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, IterationReport(history, iters, converged, operator_applications=apps)
