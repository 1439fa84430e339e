"""Grids, fields, boundary specs, the wave operator, and one rule per kind of input.

Fields live on uniform Cartesian node grids (boundary nodes included) and the
spatial operator is the conservative second-order stencil

    (L w)_i = -sum_d D+_d( c2_{mid} D-_d w ) ,

so ``L`` approximates ``-div(c^2 grad)`` and is positive semidefinite.
Dirichlet boundary values are stored as hard zeros, never eliminated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
IMPEDANCE = "impedance"

_TAGS = (DIRICHLET, NEUMANN, IMPEDANCE)


def check_count(value, name: str, minimum: int = 1) -> int:
    """An integer (an integral float too) of at least ``minimum``, as an int."""
    if not (math.isfinite(value) and value == int(value) and value >= minimum):
        raise ValueError(f"counts are integers: need {name} >= {minimum}, got {value!r}")
    return int(value)


def check_frequencies(omegas, name: str) -> tuple[float, ...]:
    """A non-empty list with 0 < w_0 < w_1 < ... < inf, as floats."""
    w = tuple(float(x) for x in omegas)
    if not (w and all(a < b for a, b in zip((0.0, *w), (*w, math.inf)))):
        raise ValueError(f"{name} must be positive and finite, and strictly increasing "
                         f"if several, got {w or 'an empty list'}")
    return w


def check_tolerance(tol: float):
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


class GridMismatchError(ValueError):
    """Raised when fields defined on different grids are combined."""


@dataclass(frozen=True)
class UniformGrid:
    """Uniform node grid on a box, ``dim`` in {1, 2}.

    Node coordinates along axis d are ``lo[d] + i * h[d]`` (a single
    multiply-add, never a running sum), with ``i = 0 .. n[d]``.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(a) for a in self.lo))
        object.__setattr__(self, "hi", tuple(float(b) for b in self.hi))
        object.__setattr__(self, "n", tuple(check_count(m, "n", 2) for m in self.n))
        if not (len(self.lo) == len(self.hi) == len(self.n)):
            raise ValueError("lo, hi and n must have the same length")
        if self.dim not in (1, 2):
            raise ValueError(f"only 1D and 2D grids are supported, got dim={self.dim}")
        if not all(-math.inf < a < b < math.inf for a, b in zip(self.lo, self.hi)):
            raise ValueError("grid extents must be finite with hi > lo")

    @classmethod
    def line(cls, lo, hi, n):
        return cls((lo,), (hi,), (n,))

    @classmethod
    def box(cls, lo, hi, n):
        lo = tuple(lo) if np.iterable(lo) else (lo, lo)
        hi = tuple(hi) if np.iterable(hi) else (hi, hi)
        n = tuple(n) if np.iterable(n) else (n, n)
        return cls(lo, hi, n)

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / m for a, b, m in zip(self.lo, self.hi, self.n))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(m + 1 for m in self.n)

    @property
    def num_nodes(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_coords(self, d: int) -> np.ndarray:
        return self.lo[d] + np.arange(self.n[d] + 1) * self.h[d]

    def meshgrid(self):
        return np.meshgrid(*(self.axis_coords(d) for d in range(self.dim)), indexing="ij")


@dataclass
class ScalarField:
    """Nodal scalar data over every node of a grid: an array of the grid's
    shape, or a flat one of ``num_nodes`` values in row-major order."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape == (self.grid.num_nodes,):
            self.values = self.values.reshape(self.grid.shape)
        elif self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"field of shape {self.values.shape} does not fit grid of shape "
                f"{self.grid.shape} (or flat ({self.grid.num_nodes},))"
            )

    @classmethod
    def zeros(cls, grid: UniformGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: UniformGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


# Side ordering: (x_lo, x_hi) in 1D, (x_lo, x_hi, y_lo, y_hi) in 2D.
@dataclass(frozen=True)
class BoundarySpec:
    """One condition tag per side of the box.

    Impedance sides impose ``alpha * w_t + beta * (n . grad w) = 0`` with
    ``alpha^2 + beta^2 = 1``; the degenerate pairs (1, 0) and (0, 1) are the
    Dirichlet and Neumann tags and must be requested as such.
    """

    sides: tuple[str, ...]
    impedance_alpha: float = math.sqrt(0.5)

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(s.lower() for s in self.sides))
        if len(self.sides) not in (2, 4):
            raise ValueError("expected 2 (1D) or 4 (2D) side tags")
        for s in self.sides:
            if s not in _TAGS:
                raise ValueError(f"unknown boundary tag {s!r}")
        a = self.impedance_alpha
        if any(s == IMPEDANCE for s in self.sides) and not 0.0 < a < 1.0:
            raise ValueError("impedance_alpha must lie strictly inside (0, 1)")

    @classmethod
    def all_dirichlet(cls, dim: int) -> "BoundarySpec":
        return cls((DIRICHLET,) * (2 * dim))

    @classmethod
    def all_neumann(cls, dim: int) -> "BoundarySpec":
        return cls((NEUMANN,) * (2 * dim))

    @classmethod
    def all_impedance(cls, dim: int, alpha: float = math.sqrt(0.5)) -> "BoundarySpec":
        return cls((IMPEDANCE,) * (2 * dim), impedance_alpha=alpha)

    @property
    def dim(self) -> int:
        return len(self.sides) // 2

    @property
    def energy_conserving(self) -> bool:
        return all(s != IMPEDANCE for s in self.sides)

    @property
    def impedance_beta(self) -> float:
        return math.sqrt(1.0 - self.impedance_alpha**2)

    def side(self, axis: int, end: int) -> str:
        """Tag of the side at the low (end=0) or high (end=1) face of an axis."""
        return self.sides[2 * axis + end]


@dataclass(frozen=True, eq=False)
class HelmholtzProblem:
    """Time-harmonic problem ``div(c^2 grad u) + omega^2 u = f`` on a box.

    ``csq`` holds c^2 per node (strictly positive), ``forcing`` holds f.
    Forcing values on Dirichlet boundary nodes are zeroed at construction.
    Frozen, as the cached ``operator`` is built from the fields: change one
    with ``dataclasses.replace``, which builds a new problem.
    """

    grid: UniformGrid
    csq: ScalarField
    forcing: ScalarField
    omega: float
    bcs: BoundarySpec
    # (key, parts) of the last system solved on this problem; see
    # ``wavesolver._prepared``
    prepared: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.csq.grid != self.grid or self.forcing.grid != self.grid:
            raise GridMismatchError("csq/forcing grids do not match the problem grid")
        if self.bcs.dim != self.grid.dim:
            raise ValueError("boundary spec dimension does not match grid")
        object.__setattr__(self, "omega", check_frequencies((self.omega,), "omega")[0])
        if not np.all((self.csq.values > 0) & np.isfinite(self.csq.values)):
            raise ValueError("c^2 must be finite and strictly positive everywhere")
        if not np.all(np.isfinite(self.forcing.values)):
            raise ValueError("forcing must be finite everywhere")
        f = self.forcing.values.copy()
        f[self.dirichlet_mask] = 0.0
        object.__setattr__(self, "forcing", ScalarField(self.grid, f))

    def _side_count(self, tag: str) -> np.ndarray:
        """How many sides tagged ``tag`` each node lies on (2 at their corners)."""
        count = np.zeros(self.grid.shape, dtype=int)
        for axis in range(self.grid.dim):
            for end in (0, 1):
                if self.bcs.side(axis, end) == tag:
                    np.moveaxis(count, axis, 0)[-end] += 1
        return count

    @cached_property
    def dirichlet_mask(self) -> np.ndarray:
        return self._side_count(DIRICHLET) > 0

    @property
    def trapezoid_weight(self) -> np.ndarray:
        """Flat W, a factor 1/2 per Neumann side a node lies on: the leapfrog
        A is self-adjoint in x . (W y), so it is symmetric in y = sqrt(W) v."""
        return 0.5 ** self._side_count(NEUMANN).ravel()

    @cached_property
    def operator(self):
        """(L, B): the stencil with its closures is ``L @ w + B * v`` on flat values.

        Along axis d, row i couples to node i -/+ 1 with ``-m/h_d^2``, m the
        midpoint c^2 between them, and its diagonal gains ``(m_lo + m_hi)/h_d^2``.
        A Neumann or impedance end mirrors the inner neighbour into its ghost,
        so the ghost's coupling folds into that neighbour's and its midpoint
        is that neighbour's.  An impedance ghost also carries
        ``-2h (alpha/beta) v`` from ``alpha*v + beta*(n . D0 w) = 0``, so the
        length-N array B holds ``2h (alpha/beta) m/h^2`` on impedance faces
        (summed at a corner).  Dirichlet rows are zero.  L is DIA over all N
        nodes, on the stencil's 3 (1D) or 5 (2D) diagonals in ascending
        offset order.  Built on first use; see notes/decisions.md, "L's
        diagonals in closed form".
        """
        from scipy.sparse import dia_matrix

        grid, bcs, shape, mask = self.grid, self.bcs, self.grid.shape, self.dirichlet_mask
        diag, B, lows, highs = np.zeros(shape), np.zeros(shape), [], []
        for axis in range(grid.dim):  # arrays below are axis-first
            c, h2 = np.moveaxis(self.csq.values, axis, 0), grid.h[axis] ** 2
            mid = 0.5 * (c[:-1] + c[1:])
            lo, hi = np.concatenate([mid[:1], mid]), np.concatenate([mid, mid[-1:]])
            low, high, b = -(lo / h2), -(hi / h2), np.zeros(c.shape)
            high[0] += low[0]  # each end's mirrored ghost folds into its inner
            low[-1] += high[-1]  # neighbour (a Dirichlet row is zeroed below)
            low[0] = high[-1] = 0.0  # no node lies beyond either end
            for end in (0, 1):
                if bcs.side(axis, end) == IMPEDANCE:
                    ratio = bcs.impedance_alpha / bcs.impedance_beta
                    b[-end] = lo[-end] * (2.0 * grid.h[axis] * ratio) / h2
            diag += np.moveaxis((lo + hi) / h2, 0, axis)
            B += np.moveaxis(b, 0, axis)
            lows.append(np.moveaxis(low, 0, axis))
            highs.insert(0, np.moveaxis(high, 0, axis))
        strides = [math.prod(shape[axis + 1:]) for axis in range(grid.dim)]
        offsets = np.array([-s for s in strides] + [0] + strides[::-1])
        # data[k, i + offsets[k]] is row i's entry there; np.roll wraps the
        # entries beyond an end, which are zero
        data = np.array([np.roll(np.where(mask, 0.0, r).ravel(), k)
                         for r, k in zip(lows + [diag] + highs, offsets)])
        L = dia_matrix((data, offsets), shape=(grid.num_nodes,) * 2)
        return L, np.where(mask, 0.0, B).ravel()

    def lambda_max_estimate(self) -> float:
        """Analytic bound 2*sqrt(sum_d c2_max/h_d^2) on the largest sqrt-eigenvalue."""
        c2max = float(self.csq.values.max())
        return 2.0 * math.sqrt(sum(c2max / hd**2 for hd in self.grid.h))


def apply_discrete_laplacian(problem: HelmholtzProblem, w: ScalarField) -> ScalarField:
    """L w for the conservative second-order stencil with boundary closure.

    Dirichlet rows of the result are identically zero, Neumann rows use a
    mirrored ghost value, and impedance rows, where B is nonzero, are zeroed
    as their closure needs velocity data (see ``wavesolver.first_order_rhs``).
    """
    if w.grid != problem.grid:
        raise GridMismatchError("field grid does not match problem grid")
    out = problem.operator[0] @ w.values.ravel()
    out[problem.operator[1] != 0.0] = 0.0
    return ScalarField(problem.grid, out)


def inner_product(a: ScalarField, b: ScalarField) -> float:
    """Discrete L2 product sum(a_i b_i) * prod_d h_d over all nodes."""
    if a.grid != b.grid:
        raise GridMismatchError("inner product of fields on different grids")
    return float(np.vdot(a.values, b.values)) * a.grid.cell_volume


def norm2(a: ScalarField) -> float:
    return math.sqrt(inner_product(a, a))


@dataclass
class WaveState:
    """Displacement/velocity pair evolved by the first-order integrators."""

    w: ScalarField
    v: ScalarField

    def __post_init__(self):
        if self.w.grid != self.v.grid:
            raise GridMismatchError("w and v must live on the same grid")

    @classmethod
    def zeros(cls, grid: UniformGrid) -> "WaveState":
        return cls(ScalarField.zeros(grid), ScalarField.zeros(grid))
