"""Order-of-accuracy checks against exact solutions of the continuous problem
(the method of manufactured solutions, Roache 2002, J. Fluids Eng. 124(1)).

The references come from formulas, never from the package, so these check
the Neumann mirror and the impedance ghost of ``HelmholtzProblem.operator``
without reading it or the test-side ``reference_stencil``.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc

from waveholtz import (
    BoundarySpec,
    HelmholtzProblem,
    KrylovConfig,
    ScalarField,
    UniformGrid,
    WaveHoltzConfig,
    solve,
)
from waveholtz.oracle import direct_helmholtz_solve

from conftest import gaussian_forcing_1d


def _orders(errors):
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("variable,finest", [(False, 4.5e-4), (True, 5.5e-4)])
def test_neumann_box_manufactured_solution(variable, finest):
    # u = cos(pi x) cos(pi y) has d_n u = 0 on every side of [0, 1]^2, and
    # f = div(c^2 grad u) + omega^2 u makes it the exact solution
    omega, pi = 3.0, math.pi
    errors = []
    for n in (16, 32, 64):
        grid = UniformGrid.box(0.0, 1.0, n)
        X, Y = grid.meshgrid()
        u = np.cos(pi * X) * np.cos(pi * Y)
        ux, uy = -pi * np.sin(pi * X) * np.cos(pi * Y), -pi * np.cos(pi * X) * np.sin(pi * Y)
        if variable:
            csq, div = 1.0 + 0.3 * X + 0.2 * Y**2, 0.3 * ux + 0.4 * Y * uy
        else:
            csq, div = np.ones(grid.shape), 0.0
        f = csq * (-2.0 * pi**2 * u) + div + omega**2 * u
        p = HelmholtzProblem(grid, ScalarField(grid, csq), ScalarField(grid, f), omega,
                             BoundarySpec.all_neumann(2))
        errors.append(np.max(np.abs(direct_helmholtz_solve(p, omega).values - u)))
    assert min(_orders(errors)) > 1.9, errors
    assert errors[-1] < finest, errors


def _outgoing_gaussian_response(x, omega):
    """Re of u(x) = int exp(-i omega |x - s|) f(s) ds / (-2 i omega) for the
    gaussian1d forcing f(s) = omega^2 exp(-(omega s)^2): the outgoing solution
    of u'' + omega^2 u = f on the whole line, in closed form through erfc
    (it matches dense trapezoid quadrature of the integral to 1e-9)."""
    return (math.exp(-0.25) * math.sqrt(math.pi) / 4.0 * 1j
            * (np.exp(-1j * omega * x) * erfc(0.5j - omega * x)
               + np.exp(1j * omega * x) * erfc(0.5j + omega * x))).real


def test_impedance_line_manufactured_solution():
    # with alpha = sqrt(1/2) and c = 1 the closure w_t + d_n w = 0 is exactly
    # outgoing in 1D, so the RK4 WaveHoltz limit approximates the whole-line
    # response on [-2, 2], where the forcing has decayed to exp(-100)
    omega, errors = 5.0, []
    for n in (50, 100, 200):
        grid = UniformGrid.line(-2.0, 2.0, n)
        p = HelmholtzProblem(grid, ScalarField.constant(grid, 1.0),
                             gaussian_forcing_1d(grid, omega), omega,
                             BoundarySpec.all_impedance(1))
        cfg = WaveHoltzConfig.build(p, scheme="rk4", tol=1e-12)
        state, rep = solve(p, cfg, method="gmres",
                           krylov=KrylovConfig(tol=1e-12, restart=100, max_iters=100))
        assert rep.converged and rep.iters <= 25
        exact = _outgoing_gaussian_response(grid.axis_coords(0), omega)
        errors.append(np.max(np.abs(state.w.values - exact)))
    assert min(_orders(errors)) > 1.9, errors
    assert errors[-1] < 2.5e-3, errors
