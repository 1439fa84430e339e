"""The benchmark's four workloads.

Each workload makes its inputs from the seed (``inputs``), builds the
program's problems and configs (``build``, timed as set-up), computes its
independent references (``prepare``, untimed), runs one round of operations
(``solve``, timed) and turns the round's outputs into counts and answers
(``inspect``, untimed).  ``check`` compares answers with the references and
``self_test`` shows that each check rejects a perturbed answer.

Seeds change the inputs without changing the work: the 2D and fixed-point
forcings are scaled by +-2^k, which scales every intermediate exactly, so
iteration counts and relative errors repeat bit for bit; the sweep's
frequency list is written in a seeded order, which the CLI sorts.
"""

from __future__ import annotations

import csv
import io
import math
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref


def amplitude(seed: int) -> float:
    """Seeded forcing scale +-2^k, k in [-6, 6]: exact in floating point."""
    rng = np.random.default_rng([seed, 1])
    return float(rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-6, 7)))


@dataclass
class Round:
    """Counts and answers of one round of operations."""

    attempted: int
    failed: int
    wave_solves: int
    node_steps: int
    rhs_evals: int
    krylov_iters: int = 0
    fp_iters: int = 0
    answers: list = field(default_factory=list)
    bytes_written: int = 0
    outputs: object = None


class Workload:
    name = ""
    ops = 1  # operations attempted per round
    expected_spans: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 2])

    def inputs(self):
        raise NotImplementedError

    def build(self, wh, parts: dict):
        raise NotImplementedError

    def prepare(self, wh, state):
        raise NotImplementedError

    def solve(self, wh, state, k: int):
        raise NotImplementedError

    def inspect(self, wh, state, raw, k: int) -> Round:
        raise NotImplementedError

    def check(self, state, rnd: Round):
        """[(label, error, threshold)] for every answer of the round."""
        return [(label, ref.relative_error(x, r), thr)
                for (label, x), (r, thr) in zip(rnd.answers, state["refs"])]

    def self_test(self, state, rnd: Round):
        """[(label, rejected)]: each check applied to a perturbed answer."""
        out = []
        for (label, x), (r, thr) in zip(rnd.answers, state["refs"]):
            bad = ref.perturbed(x, 10.0 * thr, self.rng)
            out.append((label, ref.relative_error(bad, r) > thr))
        return out


def _timed(parts, key, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    parts[key] = parts.get(key, 0.0) + time.perf_counter() - t0
    return out


def _dirichlet_kappa(sqrt_eigs, omega, periods, steps, a0=-0.25, a=()):
    """Condition number of the symmetric A = I - S, boundary identity rows included."""
    ev = np.abs(np.append(ref.spectrum_of_A(sqrt_eigs, omega, periods, steps, a0, a), 1.0))
    return float(ev.max() / ev.min())


ROUNDOFF = 1e-11  # allowance for rounding in the solve and in the reference


# ---------------------------------------------------------------------------


class Leapfrog2DCG(Workload):
    """C13: 2D Dirichlet box, c = 1, omega = 15.5, n = 128, 10 periods, CG."""

    name = "wave2d_leapfrog_cg"
    ops = 1
    omega, n, periods, tol = 15.5, 128, 10, 1e-7
    expected_spans = ("iteration.solve", "iteration.as_affine_system",
                      "iteration.apply_A", "krylov.cg_solve",
                      "wavesolver.evolve_and_filter")

    def inputs(self):
        h = 2.0 / self.n
        x = -1.0 + np.arange(self.n + 1) * h
        X, Y = np.meshgrid(x, x, indexing="ij")
        self.forcing = amplitude(self.seed) * ref.gaussian2d_forcing(X, Y, self.omega)

    def build(self, wh, parts):
        def problem():
            grid = wh.core.UniformGrid.box(-1.0, 1.0, self.n)
            return wh.core.HelmholtzProblem(
                grid, wh.core.ScalarField.constant(grid, 1.0),
                wh.core.ScalarField(grid, self.forcing), self.omega,
                wh.core.BoundarySpec.all_dirichlet(2))

        p = _timed(parts, "problem", problem)
        cfg = _timed(parts, "config", wh.iteration.WaveHoltzConfig.build, p,
                     periods=self.periods, scheme="leapfrog", tol=self.tol,
                     max_iters=600)
        kc = wh.krylov.KrylovConfig(method="cg", tol=self.tol, max_iters=600)
        return {"problems": [p], "configs": [cfg], "krylov": kc}

    def prepare(self, wh, state):
        p, cfg = state["problems"][0], state["configs"][0]
        h = p.grid.h
        sigma = ref.shifted_frequency(self.omega, cfg.tg.dt)
        u = ref.dirichlet_solve_2d(self.forcing, h, sigma)
        lx = ref.dirichlet_sqrt_eigs_1d(self.n, h[0])
        ly = ref.dirichlet_sqrt_eigs_1d(self.n, h[1])
        lam = np.sqrt(lx[:, None] ** 2 + ly[None, :] ** 2)
        kappa = _dirichlet_kappa(lam, self.omega, self.periods, cfg.tg.steps)
        # symmetric A: ||x - u|| / ||u|| <= kappa(A) ||b - A x|| / ||b||
        state["refs"] = [(u, kappa * self.tol + ROUNDOFF)]

    def solve(self, wh, state, k):
        p, cfg = state["problems"][0], state["configs"][0]
        return [wh.iteration.solve(p, cfg, method="cg", krylov=state["krylov"])]

    def inspect(self, wh, state, raw, k):
        (u, rep), = raw
        p, cfg = state["problems"][0], state["configs"][0]
        steps = cfg.tg.steps
        apps = rep.operator_applications
        return Round(attempted=1, failed=int(not rep.converged), wave_solves=apps,
                     node_steps=apps * steps * p.grid.num_nodes,
                     rhs_evals=apps * (steps + 1), krylov_iters=rep.iters,
                     answers=[(f"omega={self.omega}", u.values)])


class RK4ImpedanceGMRES(Workload):
    """C10 open box at omega = 12.5: 2D all-impedance, RK4, 10 periods, GMRES(100)."""

    name = "wave2d_rk4_impedance_gmres"
    ops = 1
    omega, n, periods, tol = 12.5, 104, 10, 1e-7
    expected_spans = ("iteration.solve", "iteration.as_affine_system",
                      "iteration.apply_A", "krylov.gmres_solve",
                      "wavesolver.evolve_and_filter")

    def inputs(self):
        x = -1.0 + np.arange(self.n + 1) * (2.0 / self.n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        self.forcing = amplitude(self.seed) * ref.gaussian2d_forcing(X, Y, self.omega)

    def build(self, wh, parts):
        def problem():
            grid = wh.core.UniformGrid.box(-1.0, 1.0, self.n)
            return wh.core.HelmholtzProblem(
                grid, wh.core.ScalarField.constant(grid, 1.0),
                wh.core.ScalarField(grid, self.forcing), self.omega,
                wh.core.BoundarySpec.all_impedance(2))

        p = _timed(parts, "problem", problem)
        cfg = _timed(parts, "config", wh.iteration.WaveHoltzConfig.build, p,
                     periods=self.periods, scheme="rk4", tol=self.tol, max_iters=1000)
        kc = wh.krylov.KrylovConfig(method="gmres", restart=100, tol=self.tol,
                                    max_iters=1000)
        return {"problems": [p], "configs": [cfg], "krylov": kc}

    def prepare(self, wh, state):
        p, cfg = state["problems"][0], state["configs"][0]
        u = ref.impedance_solve_2d(self.forcing, p.grid.h, self.omega,
                                   p.bcs.impedance_alpha)
        # RK4's error in the periodic response scales as (omega dt)^4 (2.9e-3);
        # 100 tol allows for GMRES's residual tolerance with ||A^-1|| up to 100.
        state["refs"] = [(u, (self.omega * cfg.tg.dt) ** 4 + 100.0 * self.tol)]

    def solve(self, wh, state, k):
        p, cfg = state["problems"][0], state["configs"][0]
        return [wh.iteration.solve(p, cfg, method="gmres", krylov=state["krylov"])]

    def inspect(self, wh, state, raw, k):
        (u, rep), = raw
        p, cfg = state["problems"][0], state["configs"][0]
        steps = cfg.tg.steps
        apps = rep.operator_applications
        return Round(attempted=1, failed=int(not rep.converged), wave_solves=apps,
                     node_steps=apps * steps * p.grid.num_nodes,
                     rhs_evals=apps * steps * 4, krylov_iters=rep.iters,
                     answers=[(f"omega={self.omega}", u.w.values)])


class Sweep1DCli(Workload):
    """C08 through ``waveholtz sweep``: 1D Dirichlet, GMRES(1000), tol 1e-10,
    omega = 20, 40, 60, 80."""

    name = "sweep1d_gmres_cli"
    ops = 4
    omegas = (20.0, 40.0, 60.0, 80.0)
    tol = 1e-10
    expected_spans = ("cli.run_sweep", "cli.run_single", "iteration.solve",
                      "iteration.as_affine_system", "iteration.apply_A",
                      "krylov.gmres_solve", "wavesolver.evolve_and_filter")

    def inputs(self):
        order = np.random.default_rng([self.seed, 3]).permutation(len(self.omegas))
        self.ini = self.workdir / "sweep.ini"
        self.ini.write_text(
            "[problem]\ndim = 1\nlo = -6\nhi = 6\nn = auto\nbc = dirichlet\n"
            "forcing = gaussian1d\n\n"
            "[solver]\nmethod = gmres\ntol = 1e-10\nmax_iters = 2000\n"
            "krylov_max_iters = 1000\nrestart = 1000\ncorrection = false\n\n"
            "[sweep]\nomegas = " + " ".join(repr(self.omegas[i]) for i in order)
            + "\n\n[output]\ndump_fields = true\n")

    def build(self, wh, parts):
        return {"cfg": _timed(parts, "parse", wh.cli.parse_config, str(self.ini))}

    def prepare(self, wh, state):
        cfg = state["cfg"]
        state["grids"], refs = {}, []
        for omega in self.omegas:
            # the time grid the CLI will use, from the package's public config
            p = wh.cli.build_problem(cfg, omega)
            wc = wh.iteration.WaveHoltzConfig.build(p, periods=cfg.periods,
                                                    steps=cfg.steps, tol=cfg.tol)
            n = p.grid.n[0]
            h = 12.0 / n
            x = -6.0 + np.arange(n + 1) * h
            u = ref.dirichlet_solve_1d(ref.gaussian1d_forcing(x, omega), h,
                                       ref.shifted_frequency(omega, wc.tg.dt))
            kappa = _dirichlet_kappa(ref.dirichlet_sqrt_eigs_1d(n, h), omega,
                                     cfg.periods, wc.tg.steps)
            state["grids"][omega] = (n + 1, wc.tg.steps)
            refs.append((u, kappa * self.tol + ROUNDOFF))
        state["refs"] = refs
        # the operator micro-timings run on the largest problem
        state["problems"] = [wh.cli.build_problem(cfg, self.omegas[-1])]
        state["first"] = None

    def solve(self, wh, state, k):
        out = self.workdir / f"round{k}"
        with redirect_stdout(io.StringIO()):
            code = wh.cli.main(["sweep", "--config", str(self.ini), "--out", str(out),
                                "--seed", str(self.seed)])
        return code, out

    def inspect(self, wh, state, raw, k):
        code, out = raw
        if code != 0:
            raise RuntimeError(f"waveholtz sweep exited with {code}")
        with (out / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        rnd = Round(attempted=len(self.omegas), failed=0, wave_solves=0,
                    node_steps=0, rhs_evals=0)
        rnd.failed = len(self.omegas) - len(rows)
        dumps = {}
        for row in rows:
            omega = float(row["omega"])
            nodes, steps = state["grids"][omega]
            apps = int(row["operator_applications"])
            rnd.failed += int(row["converged"] != "1")
            rnd.wave_solves += apps
            rnd.node_steps += apps * steps * nodes
            rnd.rhs_evals += apps * (steps + 1)
            rnd.krylov_iters += int(row["iters"])
            tag = f"{omega:.6g}".replace(".", "p").replace("-", "m")
            path = out / f"solution_gmres_omega{tag}.bin"
            dumps[omega] = path.read_bytes()
            rnd.answers.append((f"omega={omega:g}", read_dump(path)))
        rnd.bytes_written = sum(f.stat().st_size for f in out.iterdir())
        columns = [{key: v for key, v in row.items() if key != "wall_time"}
                   for row in rows]
        if state["first"] is None:
            state["first"] = (columns, dumps)
        rnd.outputs = (columns, dumps)
        shutil.rmtree(out)
        return rnd

    def check(self, state, rnd):
        results = super().check(state, rnd)
        columns, dumps = rnd.outputs
        results.append(("csv equals first sweep (wall_time excluded)",
                        float(columns != state["first"][0]), 0.0))
        results.append(("dumps equal first sweep",
                        float(dumps != state["first"][1]), 0.0))
        return results

    def self_test(self, state, rnd):
        out = super().self_test(state, rnd)
        columns, dumps = rnd.outputs
        bad_cols = [dict(r) for r in columns]
        res = float(bad_cols[len(bad_cols) // 2]["final_residual"])
        bad_cols[len(bad_cols) // 2]["final_residual"] = repr(float(np.nextafter(res, 1.0)))
        out.append(("csv comparison", bad_cols != state["first"][0]))
        omega = sorted(dumps)[len(dumps) // 2]
        vals = np.frombuffer(dumps[omega], dtype="<f8").copy()
        vals[len(vals) // 2] = np.nextafter(vals[len(vals) // 2], np.inf)
        bad_dumps = {**dumps, omega: vals.tobytes()}
        out.append(("dump comparison", bad_dumps != state["first"][1]))
        return out


def read_dump(path: Path) -> np.ndarray:
    """Read a field dump by its documented format: raw little-endian float64,
    row-major, with the grid in a ``<file>.hdr`` sidecar of ``key = value``
    lines (dim, lo, hi, n)."""
    meta = {}
    for line in Path(str(path) + ".hdr").read_text().splitlines():
        key, _, val = line.partition("=")
        meta[key.strip()] = val.strip()
    shape = tuple(int(t) + 1 for t in meta["n"].split())
    return np.fromfile(path, dtype="<f8").reshape(shape)


class FixedPointTunedFilter(Workload):
    """C11: 1D, omega = 4.1 pi, n = 129, delta forcing, designed 12-term filter."""

    name = "fixedpoint1d_tuned_filter"
    ops = 1
    omega, n, tol = 4.1 * math.pi, 129, 1e-5
    expected_spans = ("filters.optimize_tunable_filter",
                      "iteration.fixed_point_solve", "wavesolver.evolve_and_filter")

    def inputs(self):
        h = 1.0 / self.n
        self.forcing = np.zeros(self.n + 1)
        self.forcing[self.n // 2] = -amplitude(self.seed) / h
        self.lam = ref.dirichlet_sqrt_eigs_1d(self.n, h)

    def build(self, wh, parts):
        def problem():
            grid = wh.core.UniformGrid.line(0.0, 1.0, self.n)
            return wh.core.HelmholtzProblem(
                grid, wh.core.ScalarField.constant(grid, 1.0),
                wh.core.ScalarField(grid, self.forcing), self.omega,
                wh.core.BoundarySpec.all_dirichlet(1))

        p = _timed(parts, "problem", problem)
        cfg = _timed(parts, "config", wh.iteration.WaveHoltzConfig.build, p,
                     tol=self.tol, max_iters=20000)
        return {"problems": [p], "configs": [cfg]}

    def prepare(self, wh, state):
        cfg = state["configs"][0]
        self.lam_t = ref.leapfrog_shift(self.lam, cfg.tg.dt)
        u = ref.dirichlet_solve_1d(self.forcing, 1.0 / self.n,
                                   ref.shifted_frequency(self.omega, cfg.tg.dt))
        state["u"] = u
        state["refs"] = None  # the bound needs the designed filter: see inspect

    def solve(self, wh, state, k):
        p, cfg = state["problems"][0], state["configs"][0]
        design = wh.filters.optimize_tunable_filter(
            self.omega, 4.0 * math.pi, 12, cfg.tg,
            sample_hi=float(self.lam_t.max()) * 1.02, n_samples=800,
            extra_penalty_points=self.lam_t, seed=7)
        cfg_opt = wh.iteration.WaveHoltzConfig.build(
            p, tol=self.tol, max_iters=20000, spec=design.spec)
        v, rep = wh.iteration.fixed_point_solve(p, cfg_opt)
        return design, v, rep

    def inspect(self, wh, state, raw, k):
        design, v, rep = raw
        cfg = state["configs"][0]
        steps = cfg.tg.steps
        if state["refs"] is None:
            spec = design.spec
            beta = ref.filter_transfer(self.lam_t, self.omega, 1, steps,
                                       spec.a0, spec.a)
            rho = float(np.abs(beta).max())
            # contraction: ||v_k - v*|| <= rho/(1-rho) ||v_k - v_{k-1}||, and
            # ||v_1 - v_0|| = ||b|| <= max|1 - beta| ||v*||
            thr = self.tol * rho / (1.0 - rho) * float(np.abs(1.0 - beta).max())
            state["refs"] = [(state["u"], thr + ROUNDOFF)]
            state["spec"] = spec
        apps = rep.operator_applications
        failed = int(not rep.converged or not design.improved
                     or design.spec != state["spec"])
        return Round(attempted=1, failed=failed, wave_solves=apps,
                     node_steps=apps * steps * (self.n + 1),
                     rhs_evals=apps * (steps + 1), fp_iters=rep.iters,
                     answers=[(f"omega={self.omega:.6g}", v.values)])


WORKLOADS = {w.name: w for w in (Leapfrog2DCG, RK4ImpedanceGMRES, Sweep1DCli,
                                 FixedPointTunedFilter)}
