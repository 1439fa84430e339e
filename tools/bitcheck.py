"""Print SHA-256 digests over the outputs of a fixed set of solves.

A change that should leave every result the same bit for bit prints the
same digests as its parent.  There is one digest per section below, then
the total over all of them, so a change that moves one section shows
which.  The package comes from ``PYTHONPATH`` and the workloads from the
``whbench/`` next to this script.  Across a change of the package's API
each tree runs its own copy of the tool, which calls that tree's API:

    git archive --prefix=parent/ HEAD | tar -x -C /tmp
    PYTHONPATH=/tmp/parent/src python /tmp/parent/tools/bitcheck.py
    PYTHONPATH=src python tools/bitcheck.py

The digests depend on the NumPy and BLAS build (and on the BLAS thread
count), so compare two trees on one machine under one environment.  The
first line printed names the NumPy and SciPy versions and
``OPENBLAS_NUM_THREADS``, so a recorded digest carries its environment.

The sections, in this order:

* ``C13``, ``C10`` and ``C11``: every average and sample that
  ``evolve_and_filter`` returns during the whbench C13 (2D Dirichlet,
  leapfrog, CG), C10 (2D impedance, RK4, GMRES) and C11 (1D, designed
  filter, fixed point) solves at seed 1, one section per workload;
* ``sampled runs``: the same during sampled forced runs of both schemes;
* ``multifreq``: the same during a three-frequency ``multifreq_solve``,
  then its solutions and combined field;
* ``sweep``: the whbench sweep config run through ``cli.main``:
  ``summary.csv`` without its ``wall_time`` column, then every other
  output file;
* ``neumann``: the same as the first three during fixed-point, GMRES and
  CG solves of a 1D line with two Neumann ends and of a 2D box with three
  Neumann sides, where the solvers' scaled variable sqrt(W) v differs from v.

Each solve's iterate and residual history are hashed as well.  It takes
a few seconds and writes only to a temporary directory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "whbench"))

import waveholtz as wh  # noqa: E402
import waveholtz.cli  # noqa: E402,F401  (binds wh.cli)
import workloads  # noqa: E402

TOTAL = hashlib.sha256()
section = None  # the digest of the section that main is running


def update(data: bytes):
    TOTAL.update(data)
    section.update(data)


def feed(*arrays):
    for a in arrays:
        update(np.ascontiguousarray(a).tobytes())


def hashed_evolve(evolve):
    """``evolve_and_filter`` that feeds its average and samples to the digest."""
    def run(*args, **kwargs):
        avg, samples = evolve(*args, **kwargs)
        feed(avg)
        for n in sorted(samples):
            feed(np.array([n]), samples[n])
        return avg, samples

    return run


def feed_solve(u, report):
    values = np.concatenate([u.w.values, u.v.values]) if isinstance(u, wh.WaveState) \
        else u.values
    feed(values, np.array(report.residual_history),
         np.array([report.iters, report.operator_applications]))


def workload_solve(cls, workdir: Path):
    w = cls(1, workdir)
    w.inputs()
    (u, report), = w.solve(wh, w.build(wh, {}), 0)
    feed_solve(u, report)


def tuned_filter_solve(workdir: Path):
    w = workloads.FixedPointTunedFilter(1, workdir)
    w.inputs()
    state = w.build(wh, {})
    w.prepare(wh, state)  # the filter design samples the spectrum it computes
    design, u, report = w.solve(wh, state, 0)
    feed(np.array([design.spec.a0, *design.spec.a]))
    feed_solve(u, report)


def sampled_runs():
    for bc, scheme in (("dirichlet", "leapfrog"), ("impedance", "rk4")):
        grid = wh.UniformGrid.line(0.0, 1.0, 60)
        x = grid.axis_coords(0)
        p = wh.HelmholtzProblem(grid, wh.ScalarField(grid, 1.0 + 0.5 * x),
                                wh.ScalarField(grid, np.exp(-80 * (x - 0.4) ** 2)), 5.0,
                                wh.BoundarySpec((bc, bc)))
        cfg = wh.WaveHoltzConfig.build(p, periods=2, scheme=scheme)
        omegas = [p.omega, 2.0 * p.omega]
        sched = wh.ForcingSchedule([p.forcing] * 2, omegas)
        size = grid.num_nodes * (1 if scheme == "leapfrog" else 2)
        y = np.sin(np.arange(size) * 0.37)
        wh.evolve_and_filter(y, sched, p, cfg.tg, wh.FilterSpec.standard(*omegas), scheme,
                             sample_steps=range(0, cfg.tg.steps + 1, 7))


def multifreq():
    grid = wh.UniformGrid.line(0.0, 1.0, 80)
    x = grid.axis_coords(0)
    p = wh.HelmholtzProblem(grid, wh.ScalarField.constant(grid, 1.0),
                            wh.ScalarField(grid, np.exp(-200 * (x - 0.3) ** 2)), 2.0,
                            wh.BoundarySpec.all_dirichlet(1))
    omegas = [2.0, 4.0, 6.0]
    sched = wh.ForcingSchedule([p.forcing] * 3, omegas)
    cfg = wh.WaveHoltzConfig.build(p, schedule=sched, tol=1e-10)
    res = wh.multifreq_solve(p, cfg, method="gmres")
    feed(*(s.values for s in res.solutions), res.combined.values)


def sweep(workdir: Path):
    w = workloads.Sweep1DCli(1, workdir)
    w.inputs()
    out = workdir / "sweep"
    with redirect_stdout(io.StringIO()):
        code = wh.cli.main(["sweep", "--config", str(w.ini), "--out", str(out),
                            "--seed", "1"])
    if code != 0:
        raise SystemExit(f"waveholtz sweep exited with {code}")
    with (out / "summary.csv").open(newline="") as fh:
        rows = [{k: v for k, v in row.items() if k != "wall_time"}
                for row in csv.DictReader(fh)]
    update(repr(rows).encode())
    for path in sorted(out.iterdir()):
        if path.name != "summary.csv":
            update(path.name.encode() + path.read_bytes())


def neumann():
    line = wh.UniformGrid.line(0.0, 1.0, 80)
    x = line.axis_coords(0)
    box = wh.UniformGrid.box(-1.0, 1.0, 12)
    bx, by = box.meshgrid()
    for grid, csq, f, omega, sides in (
            (line, 1.0 + 0.5 * x, np.exp(-80 * (x - 0.4) ** 2), 5.3, ("neumann",) * 2),
            (box, 1.0 + 0.2 * bx * by, np.exp(-20 * ((bx - 0.1) ** 2 + by ** 2)), 2.0,
             ("neumann", "neumann", "dirichlet", "neumann"))):
        p = wh.HelmholtzProblem(grid, wh.ScalarField(grid, csq), wh.ScalarField(grid, f),
                                omega, wh.BoundarySpec(sides))
        cfg = wh.WaveHoltzConfig.build(p, tol=1e-10, max_iters=300)
        for method in ("fixed_point", "gmres", "cg"):
            feed_solve(*wh.solve(p, cfg, method))


def main():
    global section
    print(f"numpy {np.__version__}, scipy {scipy.__version__}, OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    wh.iteration.evolve_and_filter = hashed_evolve(wh.iteration.evolve_and_filter)
    wh.evolve_and_filter = hashed_evolve(wh.wavesolver.evolve_and_filter)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, run in (("C13", lambda: workload_solve(workloads.Leapfrog2DCG, work)),
                          ("C10", lambda: workload_solve(workloads.RK4ImpedanceGMRES, work)),
                          ("C11", lambda: tuned_filter_solve(work)),
                          ("sampled runs", sampled_runs), ("multifreq", multifreq),
                          ("sweep", lambda: sweep(work)), ("neumann", neumann)):
            section = hashlib.sha256()
            run()
            print(f"{name:<14}{section.hexdigest()}")
    print(f"{'total':<14}{TOTAL.hexdigest()}")


if __name__ == "__main__":
    main()
