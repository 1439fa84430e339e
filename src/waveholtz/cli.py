"""Experiment driver: config parsing, frequency sweeps, CSV and field output.

Configs are flat INI files ([section] headers, key = value pairs).  A sweep
produces one summary CSV row per (omega, method), a residual-history CSV and
a raw solution dump per run.  Floating point columns are serialised with 17
significant digits so re-reading reproduces the exact doubles.

Exit codes: 0 success, 2 config error, 3 non-converged run under --strict.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    BoundarySpec,
    HelmholtzProblem,
    ScalarField,
    UniformGrid,
)
from .filters import FilterSpec, fixed_point_rate_bound, optimize_tunable_filter
from .iteration import WaveHoltzConfig, solve
from .krylov import IndefiniteOperatorError, KrylovConfig
from .oracle import UnsupportedProblemError, dirichlet_box_spectrum
from .wavesolver import InstabilityError

ENV_OUTDIR = "WAVEHOLTZ_OUTDIR"

CSV_COLUMNS = [
    "omega", "method", "n", "dofs", "iters", "operator_applications",
    "rhs_evals", "converged", "final_residual", "measured_rate",
    "delta_h", "rate_bound", "wall_time",
]


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# ---------------------------------------------------------------------------
# presets


def forcing_presets(name: str, grid: UniformGrid, omega: float) -> ScalarField:
    """Named spatial forcings used by the stock experiments.

    gaussian1d: omega^2 exp(-(omega x)^2)
    gaussian2d: -omega^2 exp(-sigma ((x-0.01)^2 + (y-0.015)^2)), sigma = max(36, omega^2)
    delta:      -1/prod(h) at the node nearest the domain midpoint, 0 elsewhere
    """
    name = name.lower()
    if name == "gaussian1d":
        if grid.dim != 1:
            raise ConfigError("gaussian1d needs a 1D grid")
        x = grid.axis_coords(0)
        return ScalarField(grid, omega**2 * np.exp(-((omega * x) ** 2)))
    if name == "gaussian2d":
        if grid.dim != 2:
            raise ConfigError("gaussian2d needs a 2D grid")
        X, Y = grid.meshgrid()
        sigma = max(36.0, omega**2)
        return ScalarField(
            grid, -(omega**2) * np.exp(-sigma * ((X - 0.01) ** 2 + (Y - 0.015) ** 2))
        )
    if name == "delta":
        vals = np.zeros(grid.shape)
        idx = tuple(
            int(np.argmin(np.abs(grid.axis_coords(d) - 0.5 * (grid.lo[d] + grid.hi[d]))))
            for d in range(grid.dim)
        )
        vals[idx] = -1.0 / grid.cell_volume
        return ScalarField(grid, vals)
    raise ConfigError(f"unknown forcing preset {name!r}")


def csq_presets(name: str, grid: UniformGrid, value: float = 1.0) -> ScalarField:
    """c^2 fields: 'constant' (= value) or the 2D 'lens2d' slowdown bump."""
    name = name.lower()
    if name == "constant":
        return ScalarField.constant(grid, value)
    if name == "lens2d":
        if grid.dim != 2:
            raise ConfigError("lens2d needs a 2D grid")
        X, Y = grid.meshgrid()
        return ScalarField(grid, 1.0 - 0.4 * np.exp(-(((X**2 + Y**2) / 0.25**2) ** 4)))
    raise ConfigError(f"unknown csq preset {name!r}")


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class RunConfig:
    dim: int
    lo: tuple
    hi: tuple
    n_spec: str            # integer literal or "auto"
    csq: str
    csq_value: float
    forcing: str
    bc: tuple
    impedance_alpha: float
    method: str
    tol: float
    max_iters: int
    periods: int
    steps: int | None
    scheme: str
    correction: bool
    restart: int
    krylov_tol: float | None
    krylov_max_iters: int | None
    filter_kind: str
    filter_constant: float
    a0: float
    a_rest: tuple
    n_coeffs: int
    resonant_lambda: float | None
    omegas: tuple
    outdir: str
    dump_fields: bool = True


def _parse_omegas(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        lo, hi, count = text.split(":")
        return tuple(np.linspace(float(lo), float(hi), int(count)))
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    try:
        prob = cp["problem"]
        dim = prob.getint("dim", 1)
        lo, hi = (tuple(float(t) for t in prob.get(k, d).replace(",", " ").split())
                  for k, d in (("lo", "0"), ("hi", "1")))
        lo, hi = (t * dim if len(t) == 1 else t for t in (lo, hi))
        bc_raw = prob.get("bc", "dirichlet").replace(",", " ").split()
        if len(bc_raw) == 1:
            bc = tuple(bc_raw * (2 * dim))
        elif len(bc_raw) == 2 * dim:
            bc = tuple(bc_raw)
        else:
            raise ConfigError("bc needs one tag, or one per side")

        sweep = cp["sweep"]
        return RunConfig(
            dim=dim,
            lo=lo,
            hi=hi,
            n_spec=prob.get("n", "auto").strip(),
            csq=prob.get("csq", "constant"),
            csq_value=prob.getfloat("csq_value", 1.0),
            forcing=prob.get("forcing", "gaussian1d" if dim == 1 else "gaussian2d"),
            bc=bc,
            impedance_alpha=prob.getfloat("impedance_alpha", math.sqrt(0.5)),
            method=cp.get("solver", "method", fallback="fixed_point"),
            tol=cp.getfloat("solver", "tol", fallback=1e-10),
            max_iters=cp.getint("solver", "max_iters", fallback=1000),
            periods=cp.getint("solver", "periods", fallback=1),
            steps=cp.getint("solver", "steps", fallback=None),
            scheme=cp.get("solver", "scheme", fallback="auto"),
            correction=cp.getboolean("solver", "correction", fallback=False),
            restart=cp.getint("solver", "restart", fallback=100),
            krylov_tol=cp.getfloat("solver", "krylov_tol", fallback=None),
            krylov_max_iters=cp.getint("solver", "krylov_max_iters", fallback=None),
            filter_kind=cp.get("filter", "kind", fallback="standard"),
            filter_constant=cp.getfloat("filter", "constant", fallback=0.25),
            a0=cp.getfloat("filter", "a0", fallback=-0.25),
            a_rest=tuple(float(t) for t in
                         cp.get("filter", "a", fallback="").replace(",", " ").split()),
            n_coeffs=cp.getint("filter", "n_coeffs", fallback=12),
            resonant_lambda=cp.getfloat("filter", "resonant_lambda", fallback=None),
            omegas=_parse_omegas(sweep.get("omegas", sweep.get("omega", ""))),
            outdir=cp.get("output", "dir", fallback="out"),
            dump_fields=cp.getboolean("output", "dump_fields", fallback=True),
        )
    except ConfigError:
        raise
    except Exception as exc:  # missing sections/keys, bad literals and booleans
        raise ConfigError(f"bad config {path}: {exc}") from exc


def _resolve_n(cfg: RunConfig, omega: float) -> int:
    if cfg.n_spec.lower() == "auto":
        # fixed points per wavelength: 10*ceil(omega) nodes in 1D, 8*ceil(omega) in 2D
        return (10 if cfg.dim == 1 else 8) * int(math.ceil(omega))
    return int(cfg.n_spec)


def build_problem(cfg: RunConfig, omega: float) -> HelmholtzProblem:
    n = _resolve_n(cfg, omega)
    if cfg.dim == 1:
        grid = UniformGrid.line(cfg.lo[0], cfg.hi[0], n)
    else:
        grid = UniformGrid.box(cfg.lo, cfg.hi, n)
    csq = csq_presets(cfg.csq, grid, cfg.csq_value)
    forcing = forcing_presets(cfg.forcing, grid, omega)
    bcs = BoundarySpec(cfg.bc, impedance_alpha=cfg.impedance_alpha)
    return HelmholtzProblem(grid, csq, forcing, omega, bcs)


def _build_filter(cfg: RunConfig, problem: HelmholtzProblem,
                  wh: WaveHoltzConfig) -> FilterSpec:
    omega = wh.tg.omega
    if cfg.filter_kind == "standard":
        return FilterSpec.standard(omega, periods=cfg.periods, constant=cfg.filter_constant)
    if cfg.filter_kind == "tunable":
        return FilterSpec.tunable(omega, cfg.a0, cfg.a_rest, periods=cfg.periods)
    if cfg.filter_kind == "optimize":
        if cfg.resonant_lambda is None:
            raise ConfigError("filter kind 'optimize' needs resonant_lambda")
        try:
            lam_t = dirichlet_box_spectrum(problem).shifted_lambdas(wh.tg.dt)
            hi, extra = float(lam_t.max()) * 1.02, lam_t
        except UnsupportedProblemError:
            hi, extra = None, None
        result = optimize_tunable_filter(
            omega, cfg.resonant_lambda, cfg.n_coeffs, wh.tg,
            sample_hi=hi, extra_penalty_points=extra,
        )
        if result.warning:
            print(f"warning: {result.warning}", file=sys.stderr)
        return result.spec
    raise ConfigError(f"unknown filter kind {cfg.filter_kind!r}")


# ---------------------------------------------------------------------------
# running


@dataclass
class RunResult:
    omega: float
    method: str
    n: int
    dofs: int
    iters: int
    operator_applications: int
    rhs_evals: int
    converged: bool
    final_residual: float
    measured_rate: float
    delta_h: float | None
    rate_bound: float | None
    wall_time: float
    history: list = field(default_factory=list)
    solution: np.ndarray | None = None
    grid: UniformGrid | None = None

    def row(self) -> list[str]:
        return [
            _fmt(self.omega), self.method, str(self.n), str(self.dofs),
            str(self.iters), str(self.operator_applications),
            str(self.rhs_evals), str(int(self.converged)),
            _fmt(self.final_residual), _fmt(self.measured_rate),
            "" if self.delta_h is None else _fmt(self.delta_h),
            "" if self.rate_bound is None else _fmt(self.rate_bound),
            _fmt(self.wall_time),
        ]


def run_single(cfg: RunConfig, omega: float) -> RunResult:
    problem = build_problem(cfg, omega)
    scheme = None if cfg.scheme == "auto" else cfg.scheme
    try:
        wh = WaveHoltzConfig.build(
            problem, periods=cfg.periods, steps=cfg.steps, scheme=scheme,
            max_iters=cfg.max_iters, tol=cfg.tol, correction=cfg.correction,
        )
    except ValueError as exc:  # e.g. an unstable step count, or correction with rk4
        raise ConfigError(f"omega = {omega:g}: {exc}") from exc
    wh.spec = _build_filter(cfg, problem, wh)
    kc = None
    if cfg.method in ("gmres", "cg"):
        kc = KrylovConfig(
            method=cfg.method,
            restart=cfg.restart,
            tol=cfg.tol if cfg.krylov_tol is None else cfg.krylov_tol,
            max_iters=cfg.max_iters if cfg.krylov_max_iters is None
            else cfg.krylov_max_iters,
        )
    t0 = time.perf_counter()
    result, report = solve(problem, wh, method=cfg.method, krylov=kc)
    wall = time.perf_counter() - t0

    delta_h = rate_bound = None
    try:
        delta_h = dirichlet_box_spectrum(problem).delta_h
        rate_bound = fixed_point_rate_bound(delta_h)
    except (UnsupportedProblemError, ValueError):
        pass
    sol_values = result.w.values if hasattr(result, "w") else result.values
    # leapfrog evaluates L once more at start-up; RK4 four times per step
    steps = wh.tg.steps
    rhs_per_solve = steps + 1 if wh.scheme == "leapfrog" else 4 * steps
    return RunResult(
        omega=omega,
        method=cfg.method,
        n=_resolve_n(cfg, omega),
        dofs=problem.grid.num_nodes,
        iters=report.iters,
        operator_applications=report.operator_applications,
        rhs_evals=report.operator_applications * rhs_per_solve,
        converged=report.converged,
        final_residual=report.residual_history[-1],
        measured_rate=report.measured_rate,
        delta_h=delta_h,
        rate_bound=rate_bound,
        wall_time=wall,
        history=list(report.residual_history),
        solution=sol_values,
        grid=problem.grid,
    )


def write_field_dump(path: Path, grid: UniformGrid, values: np.ndarray):
    """Raw little-endian float64 dump (row-major) plus a text sidecar header."""
    values.astype("<f8").ravel().tofile(path)
    hdr = path.with_suffix(path.suffix + ".hdr")
    lines = [
        f"dim = {grid.dim}",
        "lo = " + " ".join(_fmt(v) for v in grid.lo),
        "hi = " + " ".join(_fmt(v) for v in grid.hi),
        "n = " + " ".join(str(v) for v in grid.n),
    ]
    hdr.write_text("\n".join(lines) + "\n")


def read_field_dump(path: Path):
    hdr = Path(str(path) + ".hdr")
    meta = {}
    for line in hdr.read_text().splitlines():
        key, _, val = line.partition("=")
        meta[key.strip()] = val.strip()
    n = tuple(int(t) for t in meta["n"].split())
    lo = tuple(float(t) for t in meta["lo"].split())
    hi = tuple(float(t) for t in meta["hi"].split())
    grid = UniformGrid(lo, hi, n)
    values = np.fromfile(path, dtype="<f8").reshape(grid.shape)
    return grid, values


def _omega_tag(omega: float) -> str:
    return f"{omega:.6g}".replace(".", "p").replace("-", "m")


def run_sweep(cfg: RunConfig, outdir: Path) -> dict:
    """Run every sweep frequency and write all artifacts.

    Rows land in summary.csv in ascending omega order; per-run residual
    histories and solution dumps are written next to it.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    results = [run_single(cfg, w) for w in sorted(cfg.omegas)]

    summary = outdir / "summary.csv"
    with summary.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            writer.writerow(r.row())

    for r in results:
        tag = f"{r.method}_omega{_omega_tag(r.omega)}"
        with (outdir / f"history_{tag}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "residual"])
            for i, res in enumerate(r.history):
                writer.writerow([str(i), _fmt(res)])
        if cfg.dump_fields and r.solution is not None:
            write_field_dump(outdir / f"solution_{tag}.bin", r.grid, r.solution)
    return {"summary": summary, "results": results}


# ---------------------------------------------------------------------------
# reporting


def report_summary(paths) -> str:
    """Tabulate sweep CSVs: per-method iteration counts, fitted log-log slope
    of iterations vs omega, and contraction-bound violations."""
    lines = []
    for path in paths:
        path = Path(path)
        rows = []
        with path.open() as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigError(f"{path}: empty CSV")
            if header[: len(CSV_COLUMNS)] != CSV_COLUMNS:
                raise ConfigError(f"{path}:1: unexpected header")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(CSV_COLUMNS):
                    raise ConfigError(f"{path}:{lineno}: expected "
                                      f"{len(CSV_COLUMNS)} columns, got {len(row)}")
                try:
                    rows.append({
                        "omega": float(row[0]), "method": row[1],
                        "iters": int(row[4]), "converged": row[7] == "1",
                        "measured_rate": float(row[9]),
                        "rate_bound": float(row[11]) if row[11] else None,
                    })
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        lines.append(f"== {path}")
        if not rows:
            lines.append("  no rows")
            continue
        methods = sorted(set(r["method"] for r in rows))
        for method in methods:
            sel = [r for r in rows if r["method"] == method and r["converged"]]
            lines.append(f"  method {method}: {len(sel)} converged / "
                         f"{sum(r['method'] == method for r in rows)} runs")
            lines.append("    omega   iters")
            for r in sorted(sel, key=lambda r: r["omega"]):
                lines.append(f"    {r['omega']:<8.6g}{r['iters']}")
            distinct = sorted(set(r["omega"] for r in sel))
            if len(distinct) >= 2 and all(r["iters"] > 0 for r in sel):
                lw = np.log([r["omega"] for r in sel])
                li = np.log([r["iters"] for r in sel])
                slope = float(np.polyfit(lw, li, 1)[0])
                lines.append(f"    fitted log-log slope (iters vs omega): {slope:.3f}")
            if method == "fixed_point":
                viol = sum(
                    1 for r in sel
                    if r["rate_bound"] is not None
                    and r["measured_rate"] > r["rate_bound"] + 0.01
                )
                lines.append(f"    contraction-bound violations: {viol}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


def _outdir_from(args, cfg: RunConfig) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(ENV_OUTDIR)
    if env:
        return Path(env)
    return Path(cfg.outdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="waveholtz",
        description="Helmholtz solves through filtered time-domain wave runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a single-frequency solve")
    p_sweep = sub.add_parser("sweep", help="run every frequency in the sweep block")
    for p in (p_solve, p_sweep):
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="output directory "
                       f"(overrides ${ENV_OUTDIR} and the config)")
        p.add_argument("--seed", type=int, default=0, help="ignored")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 if any run fails to converge")

    p_report = sub.add_parser("report", help="summarise sweep CSVs")
    p_report.add_argument("csvs", nargs="+", help="summary.csv paths")

    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            print(report_summary(args.csvs))
            return 0

        cfg = parse_config(args.config)
        if not cfg.omegas:
            raise ConfigError("sweep block lists no frequencies")
        if args.command == "solve" and len(cfg.omegas) != 1:
            raise ConfigError("solve expects exactly one sweep frequency")
        outdir = _outdir_from(args, cfg)
        out = run_sweep(cfg, outdir)
        for r in out["results"]:
            status = "ok" if r.converged else "NOT CONVERGED"
            print(f"omega={r.omega:.6g} method={r.method} iters={r.iters} "
                  f"residual={r.final_residual:.3e} [{status}]")
        print(f"wrote {out['summary']}")
        if args.strict and any(not r.converged for r in out["results"]):
            return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IndefiniteOperatorError, InstabilityError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
