"""Independent reference machinery used to verify the iterative solvers.

Everything here takes the transparent route: closed-form sine
spectra for constant-coefficient Dirichlet boxes, sparse factorised
Helmholtz solves, an eigenspace implementation of the filtered-wave operator,
and the trapezoid-rule reference with its exact closed form

    T_h(alpha) = g(h alpha) * sin(alpha)/alpha,   g(x) = x / (2 tan(x/2)).

Sine transforms are SciPy's DST-I (``scipy.fft.dstn(type=1)``), scaled so
that the forward transform gives the interior sine coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DIRICHLET,
    HelmholtzProblem,
    ScalarField,
    WaveState,
    apply_discrete_laplacian,
    check_count,
    norm2,
)
from .filters import beta_by_quadrature, modified_frequency, shifted_eigenvalue

class ResonanceError(RuntimeError):
    """The shifted frequency coincides with an operator eigenvalue."""


class UnsupportedProblemError(ValueError):
    """The oracle has no closed form for this configuration."""


def _require_constant_dirichlet(problem: HelmholtzProblem):
    if any(s != DIRICHLET for s in problem.bcs.sides):
        raise UnsupportedProblemError("closed-form spectrum needs all-Dirichlet sides")
    c = problem.csq.values
    if float(np.ptp(c)) > 1e-13 * float(np.max(c)):
        raise UnsupportedProblemError("closed-form spectrum needs constant c^2")
    return math.sqrt(float(c.flat[0]))


@dataclass
class SpectralDecomposition:
    """Eigenpairs of the Dirichlet box stencil, sorted by eigenvalue.

    lambdas[k] is the square root of the k-th eigenvalue; mode(k) is the
    matching sine (product) eigenvector on the grid, the inverse sine
    transform of a unit coefficient at order[k].  order[k] is the
    flat interior index of that mode's wave numbers before sorting.  delta_h
    is the relative spectral gap min_j |lambda_j - omega| / omega.
    """

    problem: HelmholtzProblem
    lambdas: np.ndarray
    order: np.ndarray
    delta_h: float

    def mode(self, k: int) -> ScalarField:
        grid = self.problem.grid
        coeffs = np.zeros([m - 1 for m in grid.n])
        coeffs.flat[self.order[k]] = 1.0
        return inverse_sine_transform(coeffs, grid)


def _mode_lambda_grid(problem: HelmholtzProblem, c: float):
    lam = [c * (2.0 / h) * np.sin(np.arange(1, n) * math.pi / (2.0 * n))
           for n, h in zip(problem.grid.n, problem.grid.h)]
    return lam[0] if len(lam) == 1 else np.sqrt(lam[0][:, None] ** 2 + lam[1] ** 2)


def dirichlet_box_spectrum(problem: HelmholtzProblem) -> SpectralDecomposition:
    """Closed-form spectrum of the constant-coefficient all-Dirichlet stencil.

    1D: lambda_j^2 = c^2 (4/h^2) sin^2(j pi / (2 n)) with sine modes;
    2D: tensor sums over both axes.
    """
    lam = _mode_lambda_grid(problem, _require_constant_dirichlet(problem)).ravel()
    order = np.argsort(lam)
    delta_h = float(np.min(np.abs(lam - problem.omega)) / problem.omega)
    return SpectralDecomposition(problem, lam[order], order, delta_h)


def sine_transform(field: ScalarField) -> np.ndarray:
    """Interior sine coefficients; exact inverse of inverse_sine_transform."""
    from scipy.fft import dstn

    grid = field.grid
    return dstn(field.values[(slice(1, -1),) * grid.dim], type=1) / math.prod(grid.n)


def inverse_sine_transform(coeffs: np.ndarray, grid) -> ScalarField:
    from scipy.fft import dstn

    vals = np.zeros(grid.shape)
    vals[(slice(1, -1),) * grid.dim] = dstn(coeffs, type=1) / 2**grid.dim
    return ScalarField(grid, vals)


def assemble_operator(problem: HelmholtzProblem):
    """L restricted to the non-Dirichlet nodes, as CSR: (matrix, free_flat_indices).

    This is the problem's assembled operator, so it checks nothing by itself;
    the closed-form sine spectrum above is the independent check of L.
    """
    if not problem.bcs.energy_conserving:
        raise UnsupportedProblemError("assembly covers energy-conserving problems")
    free = np.flatnonzero(~problem.dirichlet_mask.ravel())
    return problem.operator[0].tocsr()[free][:, free], free


def direct_helmholtz_solve(problem: HelmholtzProblem, sigma: float) -> ScalarField:
    """Sparse LU solve of -L v + sigma^2 v = f on the free nodes.

    ``sigma`` is the frequency whose square shifts the operator: pass
    problem.omega for the true discrete equation or the modified frequency to
    reproduce an uncorrected iteration limit.  Exact resonance (sigma^2 equal
    to an eigenvalue to 1e-12 relative, checkable on constant-c Dirichlet
    boxes) raises ResonanceError.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    try:
        spec = dirichlet_box_spectrum(problem)
    except UnsupportedProblemError:
        spec = None
    if spec is not None:
        gap = np.min(np.abs(sigma**2 - spec.lambdas**2))
        if gap <= 1e-12 * sigma**2:
            raise ResonanceError(
                f"sigma^2 = {sigma**2:.12g} coincides with an eigenvalue"
            )
    L, free = assemble_operator(problem)
    A = (sigma**2) * identity(free.size, format="csc") - L
    sol = splu(A.tocsc()).solve(problem.forcing.values.ravel()[free])
    out = np.zeros(problem.grid.num_nodes)
    out[free] = sol
    return ScalarField(problem.grid, out.reshape(problem.grid.shape))


def direct_rk4_solve(problem: HelmholtzProblem, dt: float) -> WaveState:
    """Sparse complex LU solve for the periodic RK4 response to f cos(omega t),
    the limit of the rk4 iteration, as the (w, v) pair at t = 0.

    RK4 on y' = M y + g, M = [[0, I], [-L, -diag(B)]] from problem.operator,
    is y <- P(A) y + D_n with A = dt M and P(A) = sum_{k<=4} A^k / k!.  For
    g = Re(e exp(i omega t)), e = (0, -f), D_n = exp(i omega t_n) D with
    D = c4 e + A c3 e + A^2 c2 e / 2 + A^3 c1 e / 6, z = exp(i omega dt/2),
    c1 = dt/4, c2 = dt/6 (1 + z), c3 = dt/6 (1 + 2z), c4 = dt/6 (1 + 4z + z^2).
    Re(Y exp(i omega t_n)) with (z^2 I - P(A)) Y = D is that response, and
    its filtered average over whole periods is Re Y.  Dirichlet rows and
    columns, whose w and v stay zero, are dropped.
    """
    from scipy.sparse import bmat, diags, identity
    from scipy.sparse.linalg import splu

    (L, B), n = problem.operator, problem.grid.num_nodes
    free = np.flatnonzero(~np.tile(problem.dirichlet_mask.ravel(), 2))
    M = bmat([[None, identity(n)], [-L.tocsr(), -diags(B)]], format="csr")
    A = (dt * M)[free][:, free]
    e = np.concatenate([np.zeros(n), -problem.forcing.values.ravel()])[free]
    z = np.exp(0.5j * problem.omega * dt)
    D = dt / 6.0 * ((1 + 4 * z + z * z) * e
                    + A @ ((1 + 2 * z) * e + A @ ((1 + z) / 2 * e + A @ e / 4)))
    I = identity(free.size, format="csr")
    P = I + A @ (I + A @ (I / 2 + A @ (I / 6 + A / 24)))
    y = np.zeros(2 * n)
    y[free] = splu((z * z * I - P).tocsc()).solve(D).real
    w, v = y.reshape(2, *problem.grid.shape)
    return WaveState(ScalarField(problem.grid, w), ScalarField(problem.grid, v))


def helmholtz_residual(problem: HelmholtzProblem, v: ScalarField,
                       sigma: float) -> float:
    """Relative residual ||-L v + sigma^2 v - f|| / ||f||."""
    Lv = apply_discrete_laplacian(problem, v)
    r = ScalarField(problem.grid,
                    -Lv.values + sigma**2 * v.values - problem.forcing.values)
    return norm2(r) / norm2(problem.forcing)


def pi_apply_spectral(v: ScalarField, problem: HelmholtzProblem, config) -> ScalarField:
    """Eigenspace implementation of the filtered-wave operator (leapfrog).

    ``config`` is a ``WaveHoltzConfig``, of which it reads ``scheme``,
    ``schedule``, ``tg`` and ``spec``.  Expands v and f in sine modes and
    applies the exact per-mode affine map

        out_j = (v_j - vinf_j) beta_h(lambda_tilde_j) + vinf_j beta_h(omega_d)

    where vinf_j = f_j / (sigma^2 - lambda_j^2), omega_d = config.tg.omega is
    the drive frequency (omega, or omega_bar for a corrected config) and
    sigma is its leapfrog image.  Must agree to roundoff with the operator
    every solver runs, Pi(v) = b + v - A v of ``as_affine_system``.  It
    models the default drive only, not a config's schedule.
    """
    if config.scheme != "leapfrog":
        raise UnsupportedProblemError("spectral reference covers leapfrog only")
    if config.schedule is not None:
        raise UnsupportedProblemError("spectral reference drives problem.forcing only")
    c = _require_constant_dirichlet(problem)
    tg = config.tg
    lam = _mode_lambda_grid(problem, c)
    lam_t = shifted_eigenvalue(lam, tg.dt)

    omega_d = tg.omega
    sigma = modified_frequency(omega_d, tg.dt)

    vhat = sine_transform(v)
    fhat = sine_transform(problem.forcing)
    vinf = fhat / (sigma**2 - lam**2)

    beta_modes = beta_by_quadrature(lam_t.ravel(), config.spec, tg).reshape(lam.shape)
    beta_drive = beta_by_quadrature(omega_d, config.spec, tg)
    out_hat = (vhat - vinf) * beta_modes + vinf * beta_drive
    return inverse_sine_transform(out_hat, problem.grid)


def g_factor(x):
    """g(x) = x / (2 tan(x/2)) with g(0) = 1.

    On |x| <= pi: 0 <= 1 - x^2/pi^2 <= g(x) <= 1 - x^2/12.  The upper bound is
    the series 1 - g = x^2/12 + x^4/720 + ...; the lower one holds because
    (1 - g(x))/x^2 increases with |x| to its value 1/pi^2 at x = pi.
    """
    x_arr = np.asarray(x, dtype=float)
    out = np.ones_like(x_arr)
    nz = x_arr != 0.0
    out[nz] = x_arr[nz] / (2.0 * np.tan(0.5 * x_arr[nz]))
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class TrapezoidReference:
    """Direct trapezoid sum of cos(alpha t) on [0, 1] against its closed form."""

    alpha: float
    steps: int
    direct: float
    closed: float
    exact: float  # sin(alpha)/alpha, the integral being approximated
    # h^2 |alpha| / pi^2: the error is |sin alpha| (1 - g(h alpha)) / |alpha|
    # and 1 - g(x) <= x^2/pi^2 on |x| <= pi, with equality at x = pi
    error_bound: float


def trapezoid_reference(alpha: float, M: int) -> TrapezoidReference:
    M = check_count(M, "M")
    h = 1.0 / M
    if abs(h * alpha) > math.pi:
        raise ValueError(f"|alpha/M| = {abs(h * alpha):.6g} must be <= pi")
    t = np.arange(M + 1) * h
    eta = np.ones(M + 1)
    eta[0] = eta[-1] = 0.5
    direct = float(h * (eta @ np.cos(alpha * t)))
    exact = math.sin(alpha) / alpha if alpha != 0.0 else 1.0
    closed = g_factor(h * alpha) * exact
    bound = h * h * abs(alpha) / math.pi**2
    return TrapezoidReference(alpha, M, direct, closed, exact, bound)
