"""Independent reference answers for the benchmark's correctness checks.

Nothing here calls into ``waveholtz``: the discrete operators are rebuilt
from the documented stencil formula

    (L w)_i = -sum_d D+_d( c^2 D-_d w )    with c = 1 (every workload's medium),

and solved directly (a sine transform, a banded solve or a sparse LU), so a
change to the package's operator cannot become its own reference.  The
filter transfer function is summed here too, to turn a solver tolerance into
an error bound.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg


def shifted_frequency(omega: float, dt: float) -> float:
    """Frequency 2 sin(dt omega / 2)/dt at which uncorrected leapfrog solves."""
    return 2.0 * math.sin(0.5 * dt * omega) / dt


def gaussian2d_forcing(x: np.ndarray, y: np.ndarray, omega: float) -> np.ndarray:
    """-omega^2 exp(-sigma ((x-0.01)^2 + (y-0.015)^2)), sigma = max(36, omega^2)."""
    sigma = max(36.0, omega * omega)
    return -(omega * omega) * np.exp(-sigma * ((x - 0.01) ** 2 + (y - 0.015) ** 2))


def gaussian1d_forcing(x: np.ndarray, omega: float) -> np.ndarray:
    """omega^2 exp(-(omega x)^2), the CLI's ``gaussian1d`` preset."""
    return omega * omega * np.exp(-((omega * x) ** 2))


def dirichlet_sqrt_eigs_1d(n: int, h: float) -> np.ndarray:
    """sqrt-eigenvalues of L on the n-1 interior nodes of a Dirichlet line."""
    j = np.arange(1, n)
    return 2.0 / h * np.sin(0.5 * math.pi * j / n)


def dirichlet_solve_2d(f: np.ndarray, h: tuple, sigma: float) -> np.ndarray:
    """(sigma^2 - L) u = f on a Dirichlet box by a DST-I of the interior.

    ``f`` holds every node (boundary rows included, ignored); the result is
    zero on the boundary.
    """
    nx, ny = f.shape[0] - 1, f.shape[1] - 1
    mx = dirichlet_sqrt_eigs_1d(nx, h[0]) ** 2
    my = dirichlet_sqrt_eigs_1d(ny, h[1]) ** 2
    fhat = scipy.fft.dstn(f[1:-1, 1:-1], type=1, norm="ortho")
    uhat = fhat / (sigma * sigma - (mx[:, None] + my[None, :]))
    u = np.zeros_like(f)
    u[1:-1, 1:-1] = scipy.fft.idstn(uhat, type=1, norm="ortho")
    return u


def dirichlet_solve_1d(f: np.ndarray, h: float, sigma: float) -> np.ndarray:
    """(sigma^2 - L) u = f on a Dirichlet line by a tridiagonal banded solve."""
    m = f.size - 2
    ab = np.empty((3, m))
    ab[0, :] = 1.0 / (h * h)
    ab[1, :] = sigma * sigma - 2.0 / (h * h)
    ab[2, :] = 1.0 / (h * h)
    u = np.zeros_like(f)
    u[1:-1] = scipy.linalg.solve_banded((1, 1), ab, f[1:-1])
    return u


def _impedance_axis(n: int, h: float, ratio: float):
    """1D stencil along one axis with impedance ghosts on both ends.

    Returns (T, B): T is L with the ghost replaced by the inner neighbour,
    B the diagonal velocity coupling the ghost w_{-1} = w_1 - 2 h ratio v_0
    adds to the boundary rows (2 ratio / h).
    """
    main = np.full(n + 1, 2.0 / (h * h))
    off = np.full(n, -1.0 / (h * h))
    upper, lower = off.copy(), off.copy()
    upper[0] = -2.0 / (h * h)
    lower[-1] = -2.0 / (h * h)
    T = scipy.sparse.diags([lower, main, upper], [-1, 0, 1], format="csr")
    b = np.zeros(n + 1)
    b[0] = b[-1] = 2.0 * ratio / h
    return T, scipy.sparse.diags(b, format="csr")


def impedance_solve_2d(f: np.ndarray, h: tuple, omega: float, alpha: float) -> np.ndarray:
    """Time-harmonic field of the semi-discrete all-impedance box.

    With w(t) = Re(u e^{i omega t}) the system w_tt = -(L_N w + B w_t) - f
    cos(omega t) becomes (omega^2 - L_N - i omega B) u = f; the filtered-wave
    fixed point is the displacement at t = 0, Re(u).
    """
    nx, ny = f.shape[0] - 1, f.shape[1] - 1
    ratio = alpha / math.sqrt(1.0 - alpha * alpha)
    Tx, Bx = _impedance_axis(nx, h[0], ratio)
    Ty, By = _impedance_axis(ny, h[1], ratio)
    Ix = scipy.sparse.identity(nx + 1, format="csr")
    Iy = scipy.sparse.identity(ny + 1, format="csr")
    LN = scipy.sparse.kron(Tx, Iy) + scipy.sparse.kron(Ix, Ty)
    B = scipy.sparse.kron(Bx, Iy) + scipy.sparse.kron(Ix, By)
    I = scipy.sparse.identity(LN.shape[0])
    M = (omega * omega * I - LN - 1j * omega * B).tocsc()
    u = scipy.sparse.linalg.spsolve(M, f.ravel().astype(complex))
    return u.real.reshape(f.shape)


def filter_transfer(lam: np.ndarray, omega: float, periods: int, steps: int,
                    a0: float = -0.25, a=()) -> np.ndarray:
    """Trapezoid transfer function of the weight cos(wt) + a0 + sum a_n sin(n w t).

    beta(lam) = (2 dt / T) sum_n eta_n weight(t_n) cos(lam t_n), summed in
    chunks of 2048 values so large spectra stay small in memory.
    """
    T = periods * 2.0 * math.pi / omega
    dt = T / steps
    t = np.arange(steps + 1) * dt
    weight = np.cos(omega * t) + a0
    for k, ak in enumerate(a, start=1):
        weight = weight + ak * np.sin(k * omega * t)
    weight[0] *= 0.5
    weight[-1] *= 0.5
    lam = np.asarray(lam, dtype=float).ravel()
    out = np.empty(lam.size)
    for s in range(0, lam.size, 2048):
        out[s:s + 2048] = np.cos(np.outer(lam[s:s + 2048], t)) @ weight
    return (2.0 * dt / T) * out


def leapfrog_shift(lam: np.ndarray, dt: float) -> np.ndarray:
    """Frequency (2/dt) asin(dt lam / 2) at which leapfrog carries mode lam."""
    return (2.0 / dt) * np.arcsin(0.5 * dt * np.asarray(lam))


def spectrum_of_A(lam: np.ndarray, omega: float, periods: int, steps: int,
                  a0: float = -0.25, a=()) -> np.ndarray:
    """Eigenvalues 1 - beta(lam~) of A = I - S for leapfrog on a Dirichlet box."""
    dt = periods * 2.0 * math.pi / omega / steps
    beta = filter_transfer(leapfrog_shift(lam, dt), omega, periods, steps, a0, a)
    return 1.0 - beta


def relative_error(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def perturbed(x: np.ndarray, size: float, rng: np.random.Generator) -> np.ndarray:
    """x plus a seeded random direction of relative norm ``size``."""
    d = rng.standard_normal(x.shape)
    return x + size * np.linalg.norm(x) / np.linalg.norm(d) * d


def reference_stencil_ns_per_node(reps: int = 200) -> float:
    """Median time of a plain numpy 5-point stencil on a fixed 129 x 129 array.

    It uses no package code, so its drift over a run is the host's drift.
    """
    u = np.linspace(0.0, 1.0, 129 * 129).reshape(129, 129)
    out = np.empty_like(u)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out[1:-1, 1:-1] = (4.0 * u[1:-1, 1:-1] - u[:-2, 1:-1] - u[2:, 1:-1]
                           - u[1:-1, :-2] - u[1:-1, 2:])
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / u.size * 1e9
