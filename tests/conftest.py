import numpy as np
import pytest

from waveholtz import (
    BoundarySpec,
    HelmholtzProblem,
    ScalarField,
    UniformGrid,
    as_affine_system,
)
from waveholtz.cli import forcing_presets
from waveholtz.core import IMPEDANCE, NEUMANN
from waveholtz.filters import filter_weights


def reference_stencil(p, w, v=None):
    """The test-side reference for L w + B v on raw node values, built
    independently of ``p.operator``: per axis, one ghost node per end closes
    the conservative stencil -D+(c2_mid D- w) with midpoints c2_mid computed
    here.  Neumann mirrors the first interior neighbour.  Impedance
    substitutes the ghost from ``alpha*v + beta*(n . D0 w) = 0``, i.e.
    ghost = inner_neighbour - 2h*(alpha/beta)*v at either end; an omitted
    ``v`` is zero velocity.  Dirichlet ghosts are 0 and Dirichlet rows are
    zeroed."""
    grid, bcs = p.grid, p.bcs
    out = np.zeros_like(w)
    for axis in range(grid.dim):
        wa, c = np.moveaxis(w, axis, 0), np.moveaxis(p.csq.values, axis, 0)
        mid = 0.5 * (c[:-1] + c[1:])
        ghosts = []
        for end, inner_idx, bdry_idx in ((0, 1, 0), (1, -2, -1)):
            tag = bcs.side(axis, end)
            ghost = wa[inner_idx] if tag in (NEUMANN, IMPEDANCE) else np.zeros_like(wa[0])
            if tag == IMPEDANCE and v is not None:
                ratio = bcs.impedance_alpha / bcs.impedance_beta
                ghost = ghost - 2.0 * grid.h[axis] * ratio * np.moveaxis(v, axis, 0)[bdry_idx]
            ghosts.append(ghost[None])
        wext = np.concatenate([ghosts[0], wa, ghosts[1]])
        flux = np.concatenate([mid[:1], mid, mid[-1:]]) * np.diff(wext, axis=0)
        out -= np.moveaxis(np.diff(flux, axis=0), 0, axis) / grid.h[axis] ** 2
    out[p.dirichlet_mask] = 0.0
    return out


def gaussian_forcing_1d(grid, omega):
    return forcing_presets("gaussian1d", grid, omega)


def delta_forcing(grid):
    return forcing_presets("delta", grid, omega=None)  # the delta has no omega


def problem_1d(omega=1.22, n=100, lo=0.0, hi=1.0, bc="dirichlet",
               forcing="gaussian", csq=1.0):
    grid = UniformGrid.line(lo, hi, n)
    if bc == "dirichlet":
        bcs = BoundarySpec.all_dirichlet(1)
    elif bc == "neumann":
        bcs = BoundarySpec.all_neumann(1)
    elif bc == "impedance":
        bcs = BoundarySpec.all_impedance(1)
    else:
        bcs = BoundarySpec(bc)
    if forcing == "gaussian":
        f = gaussian_forcing_1d(grid, omega)
    elif forcing == "delta":
        f = delta_forcing(grid)
    else:
        f = ScalarField.zeros(grid)
    if np.isscalar(csq):
        c = ScalarField.constant(grid, csq)
    else:
        c = ScalarField(grid, csq)
    return HelmholtzProblem(grid, c, f, omega, bcs)


def gaussian_forcing_2d(grid, omega):
    return forcing_presets("gaussian2d", grid, omega)


def problem_2d(omega=8.5, n=None, bc="dirichlet", lo=-1.0, hi=1.0):
    if n is None:
        n = 8 * int(np.ceil(omega))
    grid = UniformGrid.box(lo, hi, n)
    if bc == "dirichlet":
        bcs = BoundarySpec.all_dirichlet(2)
    elif bc == "impedance":
        bcs = BoundarySpec.all_impedance(2)
    else:
        bcs = BoundarySpec(bc)
    f = gaussian_forcing_2d(grid, omega)
    c = ScalarField.constant(grid, 1.0)
    return HelmholtzProblem(grid, c, f, omega, bcs)


def affine_pi(p, cfg):
    """Pi of the system every solver runs, Pi(v) = (b + y - A y) / s at y = s v,
    s = sqrt(W), from one ``as_affine_system`` call, on the ScalarFields of a
    leapfrog config."""
    A, b = as_affine_system(p, cfg)
    s = np.sqrt(p.trapezoid_weight)

    def pi(v):
        y = s * v.values.ravel()
        return ScalarField(p.grid, ((b + y - A.apply(y)) / s).reshape(p.grid.shape))

    return pi


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_interior_field(grid, rng):
    vals = rng.standard_normal(grid.shape)
    for axis in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[axis] = 0
        vals[tuple(sl)] = 0.0
        sl[axis] = -1
        vals[tuple(sl)] = 0.0
    return ScalarField(grid, vals)


def reference_states(p, x, sched, tg, scheme):
    """The states y^0 .. y^steps of a plain loop over ``reference_stencil``:
    the displacement for leapfrog (started with zero velocity), the stacked
    (w, v) for rk4; ``sched`` None is unforced."""
    dt, shape, mask = tg.dt, p.grid.shape, p.dirichlet_mask

    def drive(t):
        if sched is None:
            return 0.0
        d = sum(np.cos(om * t) * f.values for om, f in zip(sched.omegas, sched.forcings))
        return np.where(mask, 0.0, d)

    if scheme == "leapfrog":
        w = np.where(mask, 0.0, x.reshape(shape))
        prev = w - 0.5 * dt * dt * (reference_stencil(p, w) + drive(0.0))
        yield w
        for n in range(tg.steps):
            w, prev = 2.0 * w - prev - dt * dt * (reference_stencil(p, w) + drive(n * dt)), w
            yield w
    else:
        def f(w, v, t):
            return (np.where(mask, 0.0, v),
                    np.where(mask, 0.0, -reference_stencil(p, w, v) - drive(t)))

        w, v = np.where(mask, 0.0, x.reshape(2, *shape))
        yield np.stack([w, v])
        for n in range(tg.steps):
            t = n * dt
            k1 = f(w, v, t)
            k2 = f(w + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], t + 0.5 * dt)
            k3 = f(w + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], t + 0.5 * dt)
            k4 = f(w + dt * k3[0], v + dt * k3[1], t + dt)
            w = w + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            v = v + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            yield np.stack([w, v])


def reference_evolve(p, x, sched, tg, spec, scheme):
    """The filtered average of ``reference_states``, accumulated step by step."""
    acc = 0.0
    states = reference_states(p, x, sched, tg, scheme)
    for weight, y in zip(filter_weights(spec, tg), states):
        acc = acc + weight * y
    return (2.0 * tg.dt / tg.T * acc).ravel()
