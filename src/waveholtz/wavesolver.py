"""Time-domain integrators for the forced wave equation plus the online filter.

Two schemes:

* leapfrog on the second-order form, for energy-conserving (Dirichlet/Neumann)
  boundaries, stepped as w^{n+1} = K w^n - w^{n-1} - dt^2 f(t_n) with
  K = 2I - dt^2 L; the iterate is the flat array of N displacement values,
  started with zero velocity,
* classic RK4 on the first-order system y' = M y + g, y = (w, v),
  M = [[0, I], [-L, -diag(B)]], required when impedance sides are present;
  a step is the nested (Horner) form of P(dt M) = sum_k (dt M)^k / k!,
  k <= 4, with the drive folded into one term per level.  The iterate is
  the stacked pair, one flat array of 2N values, and the ghost closure ties
  the boundary velocity to the outward normal derivative so outflow
  dissipates.

The filtered time average is accumulated online (running weighted sum), so a
solve never stores the trajectory.  The state is checked for non-finite values
every ``_CHECK_EVERY`` steps and at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .core import (GridMismatchError, HelmholtzProblem, ScalarField, WaveState,
                   check_count, check_frequencies)
from .filters import FilterSpec, TimeGrid, filter_weights, shifted_eigenvalue


class InstabilityError(RuntimeError):
    """A time integration produced non-finite values."""


@dataclass(frozen=True)
class ForcingSchedule:
    """Spatial forcings f_i driven at cos(omega_i t), summed; kept as a tuple
    and a read-only array."""

    forcings: tuple[ScalarField, ...]
    omegas: np.ndarray

    def __post_init__(self):
        omegas = np.array(check_frequencies(self.omegas, "forcing frequencies"))
        omegas.flags.writeable = False
        object.__setattr__(self, "forcings", tuple(self.forcings))
        object.__setattr__(self, "omegas", omegas)
        if len(self.forcings) != len(self.omegas):
            raise ValueError("need one forcing field per frequency")
        if any(f.grid != self.forcings[0].grid for f in self.forcings):
            raise GridMismatchError("all forcings must share one grid")

    @classmethod
    def single(cls, problem: HelmholtzProblem):
        return cls([problem.forcing], np.array([problem.omega]))


# Steps between finiteness checks of an integration, which also checks once at
# the end.  Neither scheme's linear update turns a non-finite value finite
# again, so checking the state at the end of each window misses nothing.
_CHECK_EVERY = 64


def _drive(schedule: ForcingSchedule | None, problem: HelmholtzProblem, times,
           scale: float = 1.0):
    """Per-solve drive: the k nonzero forcings f_i as flat rows with zero
    Dirichlet entries, and the table scale * cos(omega_i t) at ``times``,
    shape (len(times), k); k = 0 when unforced.  A schedule on another grid
    raises ``GridMismatchError``, before any step.
    """
    if schedule is None:
        return [], np.empty((len(times), 0))
    if schedule.forcings[0].grid != problem.grid:
        raise GridMismatchError("the schedule's forcings are not on the problem grid")
    pairs = [(np.where(problem.dirichlet_mask, 0.0, f.values).ravel(), w)
             for f, w in zip(schedule.forcings, schedule.omegas)]
    pairs = [(f, w) for f, w in pairs if f.any()]
    return [f for f, _ in pairs], scale * np.cos(np.outer(times, [w for _, w in pairs]))


@cache
def _compiled_matvec():
    """SciPy's compiled DIA kernel, which adds A @ x into a given buffer; None
    (the kernels then use ``A @ x``) if this SciPy lacks it or it fails a
    one-entry check, since it is private API."""
    try:
        from scipy.sparse._sparsetools import dia_matvec

        out = np.ones(1)
        dia_matvec(1, 1, 1, 1, np.zeros(1, np.int32), np.array([[2.0]]), np.array([3.0]), out)
        return dia_matvec if out[0] == 7.0 else None
    except (ImportError, TypeError, ValueError):  # moved, renamed or re-signed
        return None


@cache
def _blas():
    """(dscal, daxpy), imported on first use: scipy.linalg adds about 0.3 s
    to a cold import."""
    from scipy.linalg.blas import daxpy, dscal

    return dscal, daxpy


def _dia_adder(offsets, data, rows):
    """Kernel (x, out) adding into out the product with the ``rows`` x
    ``data.shape[1]`` DIA matrix that holds ``data`` on ``offsets``.

    The compiled kernel needs no temporary: at N = 130 it takes 1.0 us where
    adding ``A @ x`` takes 4.8 us.
    """
    matvec = _compiled_matvec()
    if matvec is not None:
        return partial(matvec, rows, data.shape[1], *data.shape, offsets, data)
    from scipy.sparse import dia_matrix

    A = dia_matrix((data, offsets), shape=(rows, data.shape[1]))
    return lambda x, out: np.add(out, A @ x, out=out)


# The four Horner levels of an RK4 step scale dt M by these factors.
_RK4_LEVELS = (0.25, 1.0 / 3.0, 0.5, 1.0)


def _products(problem: HelmholtzProblem, dt: float, scheme: str):
    """The compiled products a step of ``scheme`` makes.

    Leapfrog: the kernel adding K x, K = 2I - dt^2 L on L's diagonals (2 is
    added to the offset-0 diagonal off the Dirichlet rows, which stay zero, so
    Dirichlet nodes stay at zero).  RK4: per level, at s = dt/4, dt/3, dt/2
    and dt, the pair (s, kernel adding s [-L | -diag(B)] x into out), the
    N x 2N block held on L's offsets and offset N: L's diagonals fill columns
    0..N-1 and B columns N..2N-1 of the extra row, the rest zero.  Each row
    gains its L entries in offset order and then its B entry, in column order.
    """
    (L, B), n = problem.operator, problem.grid.num_nodes
    if scheme == "rk4":
        offsets = np.append(L.offsets, n)
        data = np.zeros((offsets.size, 2 * n))
        data[:-1, :n], data[-1, n:] = L.data, B
        return tuple((s * dt, _dia_adder(offsets, data * (-s * dt), n)) for s in _RK4_LEVELS)
    data = L.data * (-dt * dt)
    data[L.offsets == 0, ~problem.dirichlet_mask.ravel()] += 2.0
    return _dia_adder(L.offsets, data, n)


def _check_leapfrog(problem: HelmholtzProblem, tg: TimeGrid, spec: FilterSpec):
    """Leapfrog's preconditions, the one rule every route checks before its
    first step: energy-conserving sides, dt lambda_max < 2 (stability, with
    ``problem.lambda_max_estimate``), and (lambda~_max + omega) dt < pi,
    lambda~ the ``shifted_eigenvalue`` and omega the filter's top frequency:
    the top mode plus the drive stays below the step's Nyquist frequency, so
    the filter sees no alias of it.  In closed form, 2 asin(dt lambda_max / 2)
    + omega dt < pi."""
    if not problem.bcs.energy_conserving:
        raise ValueError("leapfrog requires energy-conserving boundary conditions")
    lam, dt, top = problem.lambda_max_estimate(), tg.dt, spec.omegas[-1]
    phase = (shifted_eigenvalue(lam, dt) + top) * dt if dt * lam < 2.0 else math.inf
    if not phase < math.pi:
        raise ValueError(f"leapfrog at {tg.steps} steps is past its stability limit: dt "
                         f"lambda_max = {dt * lam:.6g} must be below 2 and (lambda~_max + "
                         f"omega) dt = {phase:.6g} below pi")


def _prepared(problem: HelmholtzProblem, tg: TimeGrid, spec: FilterSpec, scheme: str):
    """What a wave solve needs that is fixed for its system: (the step products
    of ``_products``, the averaging weights eta_n weight(t_n), the scale 2 dt / T
    of the average).  Kept in the problem's one slot, ``problem.prepared``,
    under (tg, spec, scheme) and rebuilt, after ``_check_leapfrog`` for a
    leapfrog system, when another system runs.  The slot is read once and
    replaced by one write of an immutable pair, and it holds no work
    buffers, so solves that share a problem need no lock."""
    key, slot = (tg, spec, scheme), problem.prepared  # one read: see above
    if slot is not None and slot[0] == key:
        return slot[1]
    if scheme == "leapfrog":
        _check_leapfrog(problem, tg, spec)
    parts = (_products(problem, tg.dt, scheme), tuple(filter_weights(spec, tg).tolist()),
             2.0 * tg.dt / tg.T)
    object.__setattr__(problem, "prepared", (key, parts))  # the problem is frozen
    return parts


def _leapfrog_kernel(problem: HelmholtzProblem, Kx, schedule: ForcingSchedule | None,
                     tg: TimeGrid, y: np.ndarray):
    """The leapfrog step ``step(m) -> w^{m+1}``: prev <- K cur - prev - dt^2 f(t_m)
    in place, with ``Kx`` the product of ``_products``, then the two buffers
    swap.  It starts from cur = y and w^-1 = K y / 2 - (dt^2/2) f(0), which
    encodes zero initial velocity.

    The negation of prev and the drive are BLAS calls; the compiled product
    then adds K cur to each row.  Unforced, a step makes no drive call.
    """
    dt, (scal, axpy) = tg.dt, _blas()
    F, coeffs = _drive(schedule, problem, dt * np.arange(tg.steps), -dt * dt)
    coeffs, cur, prev = coeffs.tolist(), y, np.zeros_like(y)

    def step(m):
        nonlocal cur, prev
        scal(-1.0, prev)
        if F:
            for f, c in zip(F, coeffs[m]):
                axpy(f, prev, y.size, c)
        Kx(cur, prev)
        cur, prev = prev, cur
        return cur

    step(0)  # K y - dt^2 f(0), into the zero buffer
    cur, prev = prev, cur
    scal(0.5, prev)
    return step


def _rk4_kernel(problem: HelmholtzProblem, products, schedule: ForcingSchedule | None,
                tg: TimeGrid, y: np.ndarray):
    """The RK4 step ``step(m) -> y``: y, flat (w, v), advances in place from
    t_m over t_m + dt/2 to t_{m+1}.  With A = dt M, on two work buffers,

        t = y + A/4 y + c1,  u = y + A/3 t + c2,  t = y + A/2 u + c3,  y += A t + c4

    is the stage form with k1..k4 expanded: for the drive g = (0, -f) at those
    times, g0, gh and g1, c1 = dt/4 g0, c2 = dt/6 (g0 + gh), c3 = dt/6 (g0 + 2 gh)
    and c4 = dt/6 (g0 + 4 gh + g1).  ``products`` holds the four levels' scaled
    blocks, from ``_products``.  A level out += s M x + (0, sum_i c_i f_i) is
    an axpy of x's v half into out's w half, one product of the scaled block
    with all of x (its zero Dirichlet rows keep Dirichlet w and v at zero)
    into out's v half, and an axpy per drive row.
    """
    n, dt, axpy = problem.grid.num_nodes, tg.dt, _blas()[1]
    F, g = _drive(schedule, problem, 0.5 * dt * np.arange(2 * tg.steps + 1), -dt / 6.0)
    g0, gh, g1 = g[:-1:2], g[1::2], g[2::2]
    coeffs = np.stack([1.5 * g0, g0 + gh, g0 + 2.0 * gh, g0 + 4.0 * gh + g1],
                      axis=1).tolist()
    t, u = np.empty((2, y.size))
    levels = [(x, out, out[n:], s, Mx)
              for (x, out), (s, Mx) in zip(((y, t), (t, u), (u, t), (t, y)), products)]

    def step(m):
        for (x, out, v_out, s, Mx), c in zip(levels, coeffs[m]):
            if out is not y:
                np.copyto(out, y)
            axpy(x, out, n, s, n)
            Mx(x, v_out)
            for f, cf in zip(F, c):
                axpy(f, out, n, cf, 0, 1, n)
        return y

    return step


# Per scheme: the iterate's length in nodes, and the function that builds its step.
_SCHEMES = {"leapfrog": (1, _leapfrog_kernel), "rk4": (2, _rk4_kernel)}


def first_order_rhs(state: WaveState, t: float, schedule: ForcingSchedule | None,
                    problem: HelmholtzProblem):
    """(dw/dt, dv/dt) = (v, -L w - B v - f(t)) from ``problem.operator``.

    On impedance sides the ghost value enforces alpha*v + beta*(n . D0 w) = 0
    at the boundary node (the B v term of the operator); Dirichlet rows stay
    zero.
    """
    if state.w.grid != problem.grid:
        raise GridMismatchError("field grid does not match problem grid")
    (L, B), shape = problem.operator, problem.grid.shape
    v = np.where(problem.dirichlet_mask, 0.0, state.v.values).ravel()
    F, g = _drive(schedule, problem, [t], -1.0)
    dv = -(L @ state.w.values.ravel()) - B * v + sum(c * f for f, c in zip(F, g[0]))
    return tuple(ScalarField(problem.grid, c.reshape(shape)) for c in (v, dv))


def evolve_and_filter(x: np.ndarray, schedule: ForcingSchedule | None,
                      problem: HelmholtzProblem, tg: TimeGrid, spec: FilterSpec,
                      scheme: str, sample_steps=None):
    """Integrate 0 -> T from the flat iterate x; return its filtered time average.

    The iterate is one flat float64 array: the N displacement values for
    leapfrog (started with zero velocity), or the stacked (w, v) pair of 2N
    values, w first, for rk4.  The average (2 dt / T) sum_n eta_n weight(t_n)
    y^n is accumulated online in the same layout and returned flat; under
    rk4 the one scalar weight multiplies both components.  ``sample_steps``
    requests copies of the iterate at those step indices (for multi-frequency
    extraction): the displacement in grid shape for leapfrog, and the pair
    (w, v), shape (2, *grid.shape), for rk4.

    ``spec`` is the whole averaging weight, so the unforced runs behind the
    affine reformulation average with the weight of the forced ones.  A
    forced run must drive ``spec``'s frequencies, or it raises ValueError
    before any step.

    The step products and the weights are prepared once per system and kept
    on the problem (``_prepared``); a forced solve builds its drive table per
    call, and an unforced one builds none.  Both schemes run the one loop
    below: step, add the weighted state into the average, sample, and check
    for non-finite values every ``_CHECK_EVERY`` steps.

    Returns (filtered, samples) where samples maps step index -> ndarray.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    parts, kernel = _SCHEMES[scheme]
    x, size = np.asarray(x, dtype=float), parts * problem.grid.num_nodes
    if x.size != size:
        raise GridMismatchError(f"a {scheme} iterate has {size} values, got {x.size}")
    if schedule is not None and (len(schedule.omegas) != len(spec.omegas) or any(
            abs(d - f) > 1e-12 * f for d, f in zip(schedule.omegas, spec.omegas))):
        raise ValueError("the schedule drives other frequencies than the filter's")
    products, w, scale = _prepared(problem, tg, spec, scheme)
    wanted = (set() if sample_steps is None
              else {check_count(s, "sample step", 0) for s in sample_steps})
    if wanted and max(wanted) > tg.steps:
        raise ValueError("sample steps outside the time grid")
    y = np.where(problem.dirichlet_mask.ravel(), 0.0, x.reshape(parts, -1)).ravel()
    step = kernel(problem, products, schedule, tg, y)
    acc, axpy = w[0] * y, _blas()[1]
    samples = {0: y.copy()} if 0 in wanted else {}
    for lo in range(0, tg.steps, _CHECK_EVERY):
        hi = min(lo + _CHECK_EVERY, tg.steps)
        for m in range(lo, hi):
            y = step(m)
            axpy(y, acc, size, w[m + 1])
            if m + 1 in wanted:
                samples[m + 1] = y.copy()
        if not np.isfinite(y).all():
            raise InstabilityError(f"{scheme} produced non-finite values between steps "
                                   f"{lo} and {hi}")
    acc *= scale
    shape = (parts, *problem.grid.shape) if parts > 1 else problem.grid.shape
    return acc, {n: s.reshape(shape) for n, s in samples.items()}

