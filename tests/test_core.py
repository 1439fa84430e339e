import math

import numpy as np
import pytest

from waveholtz import (
    BoundarySpec,
    GridMismatchError,
    HelmholtzProblem,
    ScalarField,
    UniformGrid,
    WaveState,
    apply_discrete_laplacian,
    inner_product,
    norm2,
)
from waveholtz.oracle import assemble_operator

from conftest import problem_1d, random_interior_field, reference_stencil


def test_grid_basics():
    g = UniformGrid.line(0.0, 1.0, 4)
    assert g.dim == 1
    assert g.h == (0.25,)
    assert g.shape == (5,)
    x = g.axis_coords(0)
    assert np.array_equal(x, 0.0 + np.arange(5) * 0.25)

    g2 = UniformGrid.box(-1.0, 1.0, 8)
    assert g2.dim == 2
    assert g2.num_nodes == 81
    assert g2.cell_volume == pytest.approx(0.0625)


def test_grid_validation():
    with pytest.raises(ValueError):
        UniformGrid.line(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        UniformGrid.line(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        UniformGrid((0.0,) * 3, (1.0,) * 3, (4,) * 3)
    with pytest.raises(ValueError, match="same length"):
        UniformGrid((0.0, 0.0), (1.0,), (4, 4))
    # a fractional cell count is not truncated
    with pytest.raises(ValueError, match="integers"):
        UniformGrid.line(0.0, 1.0, 2.7)
    with pytest.raises(ValueError, match="integers"):
        UniformGrid.box(0.0, 1.0, (4, 5.5))
    with pytest.raises(ValueError, match="integers"):  # not an OverflowError
        UniformGrid.line(0.0, 1.0, math.inf)
    assert UniformGrid.line(0.0, 1.0, 4.0).n == (4,)


def test_laplacian_single_interior_node():
    # c^2 = 1, h = 0.5, w = [0, 1, 0]: interior row is 2/h^2 = 8
    g = UniformGrid.line(0.0, 1.0, 2)
    p = HelmholtzProblem(g, ScalarField.constant(g, 1.0), ScalarField.zeros(g),
                         1.0, BoundarySpec.all_dirichlet(1))
    w = ScalarField(g, np.array([0.0, 1.0, 0.0]))
    lw = apply_discrete_laplacian(p, w)
    assert lw.values[1] == pytest.approx(8.0)
    assert lw.values[0] == 0.0 and lw.values[2] == 0.0


def test_laplacian_zero_is_zero():
    p = problem_1d(n=16)
    lw = apply_discrete_laplacian(p, ScalarField.zeros(p.grid))
    assert not np.any(lw.values)


def test_laplacian_sine_eigenvectors():
    # L sin(j pi x) = (4/h^2) sin^2(j pi h / 2) sin(j pi x) on the Dirichlet box
    n = 16
    p = problem_1d(n=n)
    x = p.grid.axis_coords(0)
    h = p.grid.h[0]
    M, free = assemble_operator(p)
    for j in (1, 2, 3):
        phi = np.sin(j * np.pi * x)
        phi[0] = phi[-1] = 0.0
        lam2 = (4.0 / h**2) * np.sin(j * np.pi * h / 2.0) ** 2
        lw = apply_discrete_laplacian(p, ScalarField(p.grid, phi))
        assert np.max(np.abs(lw.values - lam2 * phi)) < 1e-12 * lam2
        # the assembled operator agrees with the stencil itself
        assert np.max(np.abs(M @ phi[free] - reference_stencil(p, phi)[free])) < 1e-11


def test_laplacian_linearity(rng):
    p = problem_1d(n=40)
    a = random_interior_field(p.grid, rng)
    b = random_interior_field(p.grid, rng)
    al, be = 0.7315, -2.25
    lhs = apply_discrete_laplacian(
        p, ScalarField(p.grid, al * a.values + be * b.values)
    )
    rhs = al * apply_discrete_laplacian(p, a).values \
        + be * apply_discrete_laplacian(p, b).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-11 * max(1.0, np.max(np.abs(rhs)))


def test_laplacian_symmetry_constant_dirichlet(rng):
    p = problem_1d(n=33)
    for _ in range(5):
        a = random_interior_field(p.grid, rng)
        b = random_interior_field(p.grid, rng)
        la = apply_discrete_laplacian(p, a)
        lb = apply_discrete_laplacian(p, b)
        gap = abs(inner_product(la, b) - inner_product(a, lb))
        assert gap <= 1e-12 * norm2(a) * norm2(b) * p.lambda_max_estimate() ** 2


def test_laplacian_spd_dirichlet():
    p = problem_1d(n=20)
    M = assemble_operator(p)[0].toarray()
    ev = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert ev.min() > 0.0


def test_neumann_constant_null_vector():
    p = problem_1d(n=24, bc="neumann")
    lw = apply_discrete_laplacian(p, ScalarField.constant(p.grid, 3.7))
    assert np.max(np.abs(lw.values)) < 1e-12


def test_impedance_rows_left_to_first_order_solver(rng):
    # without velocity data the standalone operator zeroes impedance rows
    p = problem_1d(n=24, bc="impedance")
    vals = rng.standard_normal(p.grid.shape)
    lw = apply_discrete_laplacian(p, ScalarField(p.grid, vals))
    assert lw.values[0] == 0.0 and lw.values[-1] == 0.0
    assert np.any(lw.values[1:-1])
    # 2D, impedance sides meeting Dirichlet and Neumann ones: exactly the
    # non-Dirichlet nodes on impedance sides (corners too) are zeroed, and every
    # other row is L w
    g = UniformGrid.box(0.0, 1.0, (7, 9))
    c2 = ScalarField(g, 1.0 + rng.random(g.shape))
    p = HelmholtzProblem(g, c2, ScalarField.zeros(g), 2.0,
                         BoundarySpec(("impedance", "dirichlet", "neumann", "impedance")))
    vals = rng.standard_normal(g.shape)
    lw = apply_discrete_laplacian(p, ScalarField(g, vals)).values
    zeroed = np.zeros(g.shape, dtype=bool)
    zeroed[0, :] = zeroed[:-1, -1] = True  # x_lo and y_hi, less the x_hi Dirichlet node
    assert np.all(lw[zeroed] == 0.0)
    Lw = (p.operator[0] @ vals.ravel()).reshape(g.shape)
    assert np.array_equal(lw[~zeroed], Lw[~zeroed])
    assert np.all(lw[1:-1, :-1] != 0.0)  # rows that are neither impedance nor Dirichlet


def test_variable_coefficient_stencil_matches_direct_sum(rng):
    # conservative form -D+(c2_mid D- w) against an index-by-index evaluation
    n = 17
    g = UniformGrid.line(0.2, 1.7, n)
    c2 = 1.0 + rng.random(g.shape)
    w = rng.standard_normal(g.shape)
    w[0] = w[-1] = 0.0
    p = HelmholtzProblem(g, ScalarField(g, c2), ScalarField.zeros(g), 1.0,
                         BoundarySpec.all_dirichlet(1))
    lw = apply_discrete_laplacian(p, ScalarField(g, w)).values
    h = g.h[0]
    for i in range(1, n):
        mr = 0.5 * (c2[i] + c2[i + 1])
        ml = 0.5 * (c2[i - 1] + c2[i])
        expect = -(mr * (w[i + 1] - w[i]) - ml * (w[i] - w[i - 1])) / h**2
        assert lw[i] == pytest.approx(expect, rel=1e-13, abs=1e-13)


def test_laplacian_2d_cross_stencil():
    g = UniformGrid.box(0.0, 1.0, 4)
    p = HelmholtzProblem(g, ScalarField.constant(g, 1.0), ScalarField.zeros(g),
                         1.0, BoundarySpec.all_dirichlet(2))
    w = np.zeros(g.shape)
    w[2, 2] = 1.0
    lw = apply_discrete_laplacian(p, ScalarField(g, w)).values
    h2 = g.h[0] ** 2
    assert lw[2, 2] == pytest.approx(4.0 / h2)
    assert lw[1, 2] == pytest.approx(-1.0 / h2)
    assert lw[2, 1] == pytest.approx(-1.0 / h2)
    assert lw[2, 3] == pytest.approx(-1.0 / h2)
    assert lw[3, 2] == pytest.approx(-1.0 / h2)


def test_inner_product_and_norm():
    n = 10
    g = UniformGrid.line(0.0, 1.0, n)
    ones = ScalarField.constant(g, 1.0)
    assert inner_product(ones, ones) == pytest.approx((n + 1) * g.h[0])
    assert norm2(ScalarField.zeros(g)) == 0.0

    g2 = UniformGrid.line(0.0, 1.0, 200)
    s = ScalarField(g2, np.sin(np.pi * g2.axis_coords(0)))
    assert inner_product(s, s) == pytest.approx(0.5, abs=1e-3)


def test_grid_mismatch_errors():
    a = ScalarField.zeros(UniformGrid.line(0.0, 1.0, 10))
    b = ScalarField.zeros(UniformGrid.line(0.0, 1.0, 11))
    with pytest.raises(GridMismatchError):
        inner_product(a, b)
    p = problem_1d(n=10)
    with pytest.raises(GridMismatchError):
        apply_discrete_laplacian(p, b)
    with pytest.raises(GridMismatchError, match="csq/forcing"):
        HelmholtzProblem(p.grid, p.csq, b, 1.0, p.bcs)
    with pytest.raises(ValueError, match="dimension"):
        HelmholtzProblem(p.grid, p.csq, p.forcing, 1.0, BoundarySpec.all_dirichlet(2))
    with pytest.raises(GridMismatchError, match="same grid"):
        WaveState(a, b)


def test_field_takes_only_the_grid_shape_or_flat_values():
    g = UniformGrid.box((0.0, 0.0), (1.0, 1.0), (4, 7))  # shape (5, 8)
    vals = np.arange(40.0)
    assert np.array_equal(ScalarField(g, vals).values[1], vals[8:16])
    assert np.array_equal(ScalarField(g, vals.reshape(5, 8)).values, vals.reshape(5, 8))
    # the transposed layout has the right size but would be read scrambled
    with pytest.raises(GridMismatchError, match=r"\(8, 5\).*\(5, 8\)"):
        ScalarField(g, vals.reshape(8, 5))
    with pytest.raises(GridMismatchError):
        ScalarField(g, vals.reshape(1, 40))


def test_forcing_zeroed_on_dirichlet_nodes():
    g = UniformGrid.line(0.0, 1.0, 8)
    f = ScalarField.constant(g, 2.0)
    p = HelmholtzProblem(g, ScalarField.constant(g, 1.0), f, 1.0,
                         BoundarySpec.all_dirichlet(1))
    assert p.forcing.values[0] == 0.0 and p.forcing.values[-1] == 0.0
    assert p.forcing.values[3] == 2.0


def test_boundary_spec_validation():
    with pytest.raises(ValueError):
        BoundarySpec(("dirichlet",))
    with pytest.raises(ValueError):
        BoundarySpec(("dirichlet", "sommerfeld"))
    with pytest.raises(ValueError):
        BoundarySpec.all_impedance(1, alpha=1.0)
    spec = BoundarySpec(("dirichlet", "impedance"))
    assert not spec.energy_conserving
    assert math.isclose(spec.impedance_alpha**2 + spec.impedance_beta**2, 1.0)


def test_csq_must_be_positive():
    g = UniformGrid.line(0.0, 1.0, 8)
    c = ScalarField.constant(g, 1.0)
    c.values[3] = 0.0
    with pytest.raises(ValueError):
        HelmholtzProblem(g, c, ScalarField.zeros(g), 1.0,
                         BoundarySpec.all_dirichlet(1))
