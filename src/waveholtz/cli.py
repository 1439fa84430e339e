"""Experiment driver: config parsing, frequency sweeps, CSV and field output.

Configs are flat INI files ([section] headers, key = value pairs).  A sweep
produces one summary CSV row per (omega, method), a residual-history CSV and
a raw solution dump per run.  Floating point columns are serialised with 17
significant digits so re-reading reproduces the exact doubles.

Exit codes: 0 success, 2 config error, 3 non-converged run under --strict,
4 solver error (an indefinite operator under CG or a non-finite wave solve).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (BoundarySpec, HelmholtzProblem, ScalarField, UniformGrid, check_count,
                   check_frequencies)
from .filters import (
    FilterSpec,
    fixed_point_rate_bound,
    optimize_tunable_filter,
    shifted_eigenvalue,
)
from .iteration import WaveHoltzConfig, solve
from .krylov import IndefiniteOperatorError, IterationReport, KrylovConfig
from .oracle import SpectralDecomposition, UnsupportedProblemError, dirichlet_box_spectrum
from .wavesolver import InstabilityError

CSV_COLUMNS = [
    "omega", "method", "n", "dofs", "iters", "operator_applications",
    "rhs_evals", "converged", "final_residual", "measured_rate",
    "delta_h", "rate_bound", "wall_time",
]


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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
    """A parsed config: the library's own checked objects, plus the values
    that only the CLI reads."""

    lo: tuple
    hi: tuple
    n: int | None          # None: 10*ceil(omega) nodes in 1D, 8*ceil(omega) in 2D
    csq: str
    csq_value: float
    forcing: str
    bcs: BoundarySpec
    method: str
    tol: float
    max_iters: int
    periods: int
    steps: int | None
    scheme: str | None     # None: leapfrog when energy conserving, else rk4
    correction: bool
    krylov: KrylovConfig | None
    # a spec at omega = 1, moved to each run's omega, or the
    # (resonant_lambda, n_coeffs) target of a filter designed per run
    filter: FilterSpec | tuple
    omegas: tuple
    outdir: str
    dump_fields: bool = True

    @property
    def dim(self) -> int:
        return len(self.lo)


def _floats(text: str) -> tuple:
    return tuple(float(t) for t in text.replace(",", " ").split())


def _parse_omegas(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        lo, hi, count = text.split(":")
        return tuple(np.linspace(float(lo), float(hi), int(count)))
    return _floats(text)


def parse_config(path) -> RunConfig:
    """Read and check an INI config before any solve.

    A bad value, a key this function does not read (in any section), or an
    empty sweep raises ConfigError.  Values checked only at a frequency (the
    step count, the filter design) fail in ``_set_up``, before a sweep solves.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = set()

    def get(section, key, fallback, getter=cp.get):
        read.add((section, key))
        return getter(section, key, fallback=fallback)

    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        dim = get("problem", "dim", 1, cp.getint)
        lo, hi = (_floats(get("problem", k, d)) for k, d in (("lo", "0"), ("hi", "1")))
        lo, hi = (t * dim if len(t) == 1 else t for t in (lo, hi))
        if len(lo) != dim or len(hi) != dim:
            raise ConfigError("lo and hi need one value, or one per axis")
        sides = get("problem", "bc", "dirichlet").replace(",", " ").split()
        if len(sides) not in (1, 2 * dim):
            raise ConfigError("bc needs one tag, or one per side")
        bcs = BoundarySpec(tuple(sides * (2 * dim) if len(sides) == 1 else sides),
                           get("problem", "impedance_alpha", math.sqrt(0.5), cp.getfloat))
        n = get("problem", "n", "auto").strip()

        method = get("solver", "method", "fixed_point")  # KrylovConfig checks the others
        tol = get("solver", "tol", 1e-10, cp.getfloat)
        max_iters = get("solver", "max_iters", 1000, cp.getint)
        restart = get("solver", "restart", 100, cp.getint)
        krylov_max_iters = get("solver", "krylov_max_iters", max_iters, cp.getint)
        periods = get("solver", "periods", 1, cp.getint)
        scheme = get("solver", "scheme", "auto")

        kind = get("filter", "kind", "standard")
        a0 = get("filter", "a0", -0.25, cp.getfloat)
        a_rest = _floats(get("filter", "a", ""))
        target = (get("filter", "resonant_lambda", None, cp.getfloat),
                  get("filter", "n_coeffs", 12, cp.getint))
        if kind == "standard":
            filt = FilterSpec.standard(1.0)
        elif kind == "tunable":
            filt = FilterSpec.tunable(1.0, a0, a_rest)
        elif kind == "optimize":
            if target[0] is None:
                raise ConfigError("filter kind 'optimize' needs resonant_lambda")
            filt = target
        else:
            raise ConfigError(f"unknown filter kind {kind!r}")

        omegas = _parse_omegas(get("sweep", "omegas", ""))
        check_frequencies(sorted(omegas), "sweep frequencies")  # any order, no repeats
        tags = [_omega_tag(w) for w in omegas]
        if len(set(tags)) < len(tags):  # the tag names each run's files
            raise ConfigError("sweep frequencies must differ within 6 significant digits")

        cfg = RunConfig(
            lo=lo,
            hi=hi,
            n=None if n.lower() == "auto" else int(n),
            csq=get("problem", "csq", "constant"),
            csq_value=get("problem", "csq_value", 1.0, cp.getfloat),
            forcing=get("problem", "forcing", "gaussian1d" if dim == 1 else "gaussian2d"),
            bcs=bcs,
            method=method,
            tol=tol,
            max_iters=max_iters,
            periods=periods,
            steps=get("solver", "steps", None, cp.getint),
            scheme=None if scheme == "auto" else scheme,
            correction=get("solver", "correction", False, cp.getboolean),
            krylov=None if method == "fixed_point" else KrylovConfig(
                method=method, restart=restart, tol=tol, max_iters=krylov_max_iters),
            filter=filt,
            omegas=omegas,
            outdir=get("output", "dir", "out"),
            dump_fields=get("output", "dump_fields", True, cp.getboolean),
        )
    except (ValueError, configparser.Error) as exc:  # bad literals, rejected values
        raise ConfigError(f"bad config {path}: {exc}") from exc
    unknown = [f"[{s}] {k}" for s in cp.sections() for k in cp[s] if (s, k) not in read]
    if unknown:
        raise ConfigError(f"{path}: unknown " + ", ".join(unknown))
    return cfg


def build_problem(cfg: RunConfig, omega: float) -> HelmholtzProblem:
    n = cfg.n
    if n is None:  # fixed points per wavelength
        n = (10 if cfg.dim == 1 else 8) * int(math.ceil(omega))
    grid = UniformGrid(cfg.lo, cfg.hi, (n,) * cfg.dim)
    csq = csq_presets(cfg.csq, grid, cfg.csq_value)
    forcing = forcing_presets(cfg.forcing, grid, omega)
    return HelmholtzProblem(grid, csq, forcing, omega, cfg.bcs)


def _build_filter(cfg: RunConfig, wh: WaveHoltzConfig,
                  spectrum: SpectralDecomposition | None) -> tuple[FilterSpec, str | None]:
    """The run's filter and design warning; a design is fenced by a known box spectrum."""
    omega = wh.tg.omega
    if isinstance(cfg.filter, FilterSpec):
        return replace(cfg.filter, omegas=(omega,)), None
    resonant_lambda, n_coeffs = cfg.filter
    hi = extra = None
    if spectrum is not None:
        extra = shifted_eigenvalue(spectrum.lambdas, wh.tg.dt)
        hi = float(extra.max()) * 1.02
    result = optimize_tunable_filter(
        omega, resonant_lambda, n_coeffs, wh.tg,
        sample_hi=hi, extra_penalty_points=extra,
    )
    return result.spec, result.warning


# ---------------------------------------------------------------------------
# running


@dataclass
class RunResult:
    omega: float
    method: str
    grid: UniformGrid
    report: IterationReport
    rhs_evals: int
    delta_h: float | None
    rate_bound: float | None

    def row(self) -> list[str]:
        rep = self.report
        return [
            _fmt(self.omega), self.method, str(self.grid.n[0]),
            str(self.grid.num_nodes), str(rep.iters),
            str(rep.operator_applications), str(self.rhs_evals),
            str(int(rep.converged)), _fmt(rep.residual_history[-1]),
            _fmt(rep.measured_rate),
            "" if self.delta_h is None else _fmt(self.delta_h),
            "" if self.rate_bound is None else _fmt(self.rate_bound),
            _fmt(rep.wall_time),
        ]


def _set_up(cfg: RunConfig, omega: float) -> tuple[
        WaveHoltzConfig, float | None, str | None]:
    """The run's config with its filter designed, the box gap (None without a
    closed form) and the design warning; the problem is not kept."""
    try:  # values rejected at this omega before any wave solve, e.g. an unstable dt
        problem = build_problem(cfg, omega)
        wh = WaveHoltzConfig.build(
            problem, periods=cfg.periods, steps=cfg.steps, scheme=cfg.scheme,
            max_iters=cfg.max_iters, tol=cfg.tol, correction=cfg.correction,
        )
        try:  # UnsupportedProblemError is a ValueError, but not a config error
            spectrum = dirichlet_box_spectrum(problem)
        except UnsupportedProblemError:  # no closed form: no fence, blank columns
            spectrum = None
        spec, warning = _build_filter(cfg, wh, spectrum)
        wh = replace(wh, spec=spec)  # the designed filter passes the config's checks too
    except ValueError as exc:
        raise ConfigError(f"omega = {omega:g}: {exc}") from exc
    return wh, None if spectrum is None else spectrum.delta_h, warning


def run_single(cfg: RunConfig, omega: float, wh: WaveHoltzConfig,
               delta_h: float | None) -> tuple[RunResult, np.ndarray]:
    """Solve at one frequency with the config and box gap of ``_set_up``:
    the run's record and its solution field."""
    problem = build_problem(cfg, omega)
    try:  # solve's own checks, e.g. cg under rk4
        result, report = solve(problem, wh, method=cfg.method, krylov=cfg.krylov)
    except ValueError as exc:
        raise ConfigError(f"omega = {omega:g}: {exc}") from exc

    # leapfrog evaluates L once more at start-up; RK4 four times per step
    steps = wh.tg.steps
    rhs_per_solve = steps + 1 if wh.scheme == "leapfrog" else 4 * steps
    return RunResult(
        omega=omega,
        method=cfg.method,
        grid=problem.grid,
        report=report,
        rhs_evals=report.operator_applications * rhs_per_solve,
        delta_h=delta_h,
        rate_bound=fixed_point_rate_bound(delta_h) if delta_h else None,
    ), result.w.values if hasattr(result, "w") else result.values


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
    """Run every sweep frequency, writing each run's artifacts as it finishes.

    Every set-up precedes the first wave solve and the directory follows the
    first run, so a rejected config solves and writes nothing.  By ascending
    omega, each run then appends its summary.csv row, writes its history and
    dump and prints its status line, so a solver error keeps the runs before.
    The returned records hold no field: each is written as its run finishes.
    """
    designs = {w: _set_up(cfg, w) for w in sorted(cfg.omegas)}  # (wh, delta_h, warning)
    sys.stderr.writelines(f"warning: {m}\n" for *_, m in designs.values() if m)
    summary, results = outdir / "summary.csv", []
    for omega, (wh, delta_h, _) in designs.items():
        r, solution = run_single(cfg, omega, wh, delta_h)
        outdir.mkdir(parents=True, exist_ok=True)
        with summary.open("a" if results else "w", newline="") as fh:
            csv.writer(fh).writerows([r.row()] if results else [CSV_COLUMNS, r.row()])
        results.append(r)
        rep, tag = r.report, f"{r.method}_omega{_omega_tag(omega)}"
        with (outdir / f"history_{tag}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "residual"])
            for i, res in enumerate(rep.residual_history):
                writer.writerow([str(i), _fmt(res)])
        if cfg.dump_fields:
            write_field_dump(outdir / f"solution_{tag}.bin", r.grid, solution)
        status = "ok" if rep.converged else "NOT CONVERGED"
        print(f"omega={omega:.6g} method={r.method} iters={rep.iters} "
              f"residual={rep.residual_history[-1]:.3e} [{status}]", flush=True)
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
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_COLUMNS:
                raise ConfigError(f"{path}:1: expected the header {','.join(CSV_COLUMNS)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if None in row or None in row.values():
                    raise ConfigError(f"{where}: expected {len(CSV_COLUMNS)} columns")
                try:  # a row the fit cannot take is refused, as a bad literal is
                    rows.append({
                        "omega": check_frequencies((row["omega"],), "omega")[0],
                        "method": row["method"],
                        "iters": check_count(int(row["iters"]), "iters", 0),
                        "converged": row["converged"] == "1",
                        "measured_rate": float(row["measured_rate"]),
                        "rate_bound": float(row["rate_bound"]) if row["rate_bound"] else None,
                    })
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from exc
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="waveholtz",
        description="Helmholtz solves through filtered time-domain wave runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run every frequency in the sweep block")
    p_sweep.add_argument("--config", required=True, help="INI config path")
    p_sweep.add_argument("--out", default=None,
                         help="output directory (overrides [output] dir)")
    p_sweep.add_argument("--seed", type=int, default=0, help="ignored")
    p_sweep.add_argument("--strict", action="store_true",
                         help="exit 3 if any run fails to converge")

    p_report = sub.add_parser("report", help="summarise sweep CSVs")
    p_report.add_argument("csvs", nargs="+", help="summary.csv paths")

    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            print(report_summary(args.csvs))
            return 0

        cfg = parse_config(args.config)
        out = run_sweep(cfg, Path(cfg.outdir if args.out is None else args.out))
        print(f"wrote {out['summary']}")
        if args.strict and any(not r.report.converged for r in out["results"]):
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
