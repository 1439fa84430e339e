"""WaveHoltz benchmark: end-to-end and per-layer metrics of four workloads.

    python3 whbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` or ``all`` (each workload
in its own process, one after the other).  A run repeats whole rounds of
the workload's operations, one solve at a time, until S seconds have passed
(at least three rounds), checks every answer against an independent
solve, and prints ``workload/metric = value unit`` lines followed by one
JSON object as the last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the package's public calls in spans and reports the
per-layer metrics.  The package is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is imported: this also fixes
# the order of reductions, so iteration counts repeat exactly.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "whbench_out"

SETUP_REPS = 6  # before the first round, and again after the last
MIN_ROUNDS = 3

END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "node_steps_per_s": "1/s",
    "wave_solves": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.L_ns_per_node": "ns",
    "wavesolver.rhs_ns_per_node": "ns",
    "wavesolver.ns_per_node_step": "ns",
    "wavesolver.wave_solve_ms": "ms",
    "wavesolver.minor_faults_per_step": "count",
    "wavesolver.sys_s": "s",
    "wavesolver.rhs_evals": "count",
    "wavesolver.solves": "count",
    "iteration.b_solve_s": "s",
    "iteration.apply_self_s": "s",
    "iteration.fixed_point_iters": "count",
    "krylov.iters": "count",
    "krylov.self_s": "s",
    "krylov.self_ms_per_iter": "ms",
    "filters.design_s": "s",
    "cli.parse_s": "s",
    "cli.solve_s": "s",
    "cli.output_s": "s",
    "cli.bytes_written": "B",
    "package.import_s": "s",
    "core.problem_build_s": "s",
    "iteration.config_build_s": "s",
    "host.ref_stencil_ns_per_node": "ns",
    "host.ref_stencil_end_ns_per_node": "ns",
    "traced.time_to_solution_s": "s",
}


def error(msg):
    print(f"whbench: {msg}", file=sys.stderr)


def fresh_import():
    """Import the package from scratch (numpy and scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "waveholtz" or m.startswith("waveholtz.")]:
        del sys.modules[name]
    pkg = importlib.import_module("waveholtz")
    mods = {m: importlib.import_module("waveholtz." + m)
            for m in ("core", "wavesolver", "filters", "iteration", "krylov", "cli")}
    return types.SimpleNamespace(pkg=pkg, **mods)


def set_up(workload):
    """Import and build SETUP_REPS times; return the last build and the timings."""
    samples = []
    for _ in range(SETUP_REPS):
        parts = {}
        t0 = time.perf_counter()
        wh = fresh_import()
        parts["import"] = time.perf_counter() - t0
        state = workload.build(wh, parts)
        parts["total"] = time.perf_counter() - t0
        samples.append(parts)
    return wh, state, samples


def install_tracer(wh):
    from spans import Tracer

    tr = Tracer()

    def wave_extras(args, kwargs):
        problem, tg, scheme = args[2], args[3], args[5]
        return {"nodes": problem.grid.num_nodes, "steps": tg.steps, "scheme": scheme}

    def trace_operator(result):
        A, b = result
        A.apply = tr.wrap(A.apply, "iteration.apply_A")
        return A, b

    it, cli = wh.iteration, wh.cli
    tr.patch(it, "evolve_and_filter", "wavesolver.evolve_and_filter",
             before=wave_extras, rusage=True)
    tr.patch(it, "as_affine_system", "iteration.as_affine_system", after=trace_operator)
    tr.patch(it, "gmres_solve", "krylov.gmres_solve")
    tr.patch(it, "cg_solve", "krylov.cg_solve")
    tr.patch(it, "fixed_point_solve", "iteration.fixed_point_solve")
    tr.patch(it, "solve", "iteration.solve")
    tr.patch(cli, "solve", "iteration.solve")
    tr.patch(wh.filters, "optimize_tunable_filter", "filters.optimize_tunable_filter")
    tr.patch(cli, "parse_config", "cli.parse_config")
    tr.patch(cli, "run_sweep", "cli.run_sweep")
    tr.patch(cli, "run_single", "cli.run_single")
    return tr


def per_call_seconds(fn, batches=15, target=0.01):
    """Median seconds per call over batches sized to about ``target`` seconds."""
    fn()
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(target / max(time.perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def layer_timings(wh, state, rng):
    p = state["problems"][0]
    grid, nodes = p.grid, p.grid.num_nodes
    w = wh.core.ScalarField(grid, rng.standard_normal(grid.shape))
    v = wh.core.ScalarField(grid, rng.standard_normal(grid.shape))
    ws = wh.core.WaveState(w, v)
    sched = wh.wavesolver.ForcingSchedule.single(p)
    L = per_call_seconds(lambda: wh.core.apply_discrete_laplacian(p, w))
    rhs = per_call_seconds(lambda: wh.wavesolver.first_order_rhs(ws, 0.1, sched, p))
    return {"core.L_ns_per_node": L / nodes * 1e9,
            "wavesolver.rhs_ns_per_node": rhs / nodes * 1e9}


def traced_metrics(tr, rounds, times, workload):
    """Per-layer metrics from the spans; medians over rounds of per-round sums."""
    errors = []
    for name in workload.expected_spans:
        if tr.count(name) == 0:
            errors.append(f"expected span {name} recorded no calls")
    per_round = []
    for k, rnd in rounds.items():
        waves = tr.select("wavesolver.evolve_and_filter", k)
        steps = sum(s["steps"] for s in waves)
        node_steps = sum(s["nodes"] * s["steps"] for s in waves)
        rhs = sum(s["steps"] * 4 if s["scheme"] == "rk4" else s["steps"] + 1
                  for s in waves)
        wave_time = sum(s["end"] - s["start"] for s in waves)
        for label, spans, counted in (("wave solves", len(waves), rnd.wave_solves),
                                      ("node-steps", node_steps, rnd.node_steps),
                                      ("rhs evaluations", rhs, rnd.rhs_evals)):
            if spans != counted:
                errors.append(f"round {k}: {label} from spans {spans} != "
                              f"from reports {counted}")
        ksolve = (tr.self_time("krylov.gmres_solve", "iteration.apply_A", k)
                  + tr.self_time("krylov.cg_solve", "iteration.apply_A", k))
        per_round.append({
            "wavesolver.ns_per_node_step": wave_time / node_steps * 1e9 if node_steps else 0.0,
            "wavesolver.minor_faults_per_step": sum(s["minflt"] for s in waves) / steps if steps else 0.0,
            "wavesolver.sys_s": sum(s["sys_s"] for s in waves),
            "wavesolver.rhs_evals": rhs,
            "wavesolver.solves": len(waves),
            "iteration.b_solve_s": tr.total("iteration.as_affine_system", k),
            "iteration.apply_self_s": tr.self_time("iteration.apply_A",
                                                   "wavesolver.evolve_and_filter", k),
            "iteration.fixed_point_iters": rnd.fp_iters,
            "krylov.iters": rnd.krylov_iters,
            "krylov.self_s": ksolve,
            "krylov.self_ms_per_iter": ksolve / rnd.krylov_iters * 1e3 if rnd.krylov_iters else 0.0,
            "filters.design_s": tr.total("filters.optimize_tunable_filter", k),
            "cli.solve_s": tr.total("cli.run_single", k),
            "cli.output_s": tr.self_time("cli.run_sweep", "cli.run_single", k),
            "cli.bytes_written": rnd.bytes_written,
            "traced.time_to_solution_s": times[k],
        })
    out = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    durations = [s["end"] - s["start"] for s in tr.select("wavesolver.evolve_and_filter")]
    out["wavesolver.wave_solve_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
    return out, errors


def run_workload(name, seed, seconds, trace):
    import numpy as np

    import reference as ref
    from workloads import WORKLOADS

    workdir = OUT / f"{name}-seed{seed}-trace{trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir)
    workload.inputs()

    wh, state, setup_samples = set_up(workload)
    origin = Path(wh.pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"waveholtz was imported from {origin}, not from {SRC}")
    workload.prepare(wh, state)
    tr = install_tracer(wh) if trace else None
    host_start = ref.reference_stencil_ns_per_node()

    errors, rounds, times = [], {}, {}
    attempted = failed = 0
    t_start = time.perf_counter()
    k = 0
    while k < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        if tr is not None:
            tr.round = k
        t0 = time.perf_counter()
        try:
            raw = workload.solve(wh, state, k)
            elapsed = time.perf_counter() - t0
            rnd = workload.inspect(wh, state, raw, k)
        except Exception:  # a failed round counts all its operations as failed
            traceback.print_exc()
            attempted += workload.ops
            failed += workload.ops
            k += 1
            continue
        attempted += rnd.attempted
        failed += rnd.failed
        if rnd.failed:
            k += 1
            continue
        rounds[k], times[k] = rnd, elapsed
        for label, err, thr in workload.check(state, rnd):
            if not err <= thr:
                errors.append(f"round {k} {label}: error {err:.3e} > {thr:.3e}")
        if len(rounds) == 1:
            for label, rejected in workload.self_test(state, rnd):
                if not rejected:
                    errors.append(f"check {label} accepted a perturbed answer")
        k += 1

    if tr is not None:
        tr.restore()
    host_end = ref.reference_stencil_ns_per_node()
    if not rounds:
        raise RuntimeError("no round completed")
    first = next(iter(rounds.values()))
    for k, rnd in rounds.items():
        for key in ("wave_solves", "node_steps", "rhs_evals", "krylov_iters", "fp_iters"):
            if getattr(rnd, key) != getattr(first, key):
                errors.append(f"round {k}: {key} {getattr(rnd, key)} differs from "
                              f"the first round's {getattr(first, key)}")

    if trace:
        metrics, trace_errors = traced_metrics(tr, rounds, times, workload)
        errors += trace_errors
        metrics.update(layer_timings(wh, state, np.random.default_rng([seed, 4])))
    # set-up is timed in two windows of the run, so one slow spell of the
    # host moves at most half of the samples
    setup_samples += set_up(workload)[2]
    parts = {key: statistics.median(p[key] for p in setup_samples)
             for key in setup_samples[0]}
    if trace:
        metrics.update({
            "package.import_s": parts["import"],
            "core.problem_build_s": parts.get("problem", 0.0),
            "iteration.config_build_s": parts.get("config", 0.0),
            "cli.parse_s": parts.get("parse", 0.0),
            "host.ref_stencil_ns_per_node": host_start,
            "host.ref_stencil_end_ns_per_node": host_end,
        })
        units = PER_LAYER
        tr.write(OUT / f"trace-{name}-seed{seed}.json")
    else:
        metrics = {
            "time_to_solution_s": statistics.median(times.values()),
            "setup_s": parts["total"],
            "node_steps_per_s": statistics.median(
                rounds[k].node_steps / times[k] for k in rounds),
            "wave_solves": first.wave_solves,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END
    shutil.rmtree(workdir)
    print(f"whbench: {name} round seconds " + " ".join(f"{t:.3f}" for t in times.values()),
          file=sys.stderr)
    for e in errors:
        error(e)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(metrics[m]), "unit": u} for m, u in units.items()},
    }, len(rounds)


def print_result(name, result, rounds=None):
    for metric, m in result["metrics"].items():
        print(f"{name}/{metric} = {m['value']:.6g} {m['unit']}")
    extra = f" in {rounds} rounds" if rounds is not None else ""
    print(f"{name}: attempted {result['attempted']} failed {result['failed']}{extra}"
          f" correct {str(result['correct']).lower()}")


def run_all(args):
    """Every workload in its own process; metrics keyed workload/metric."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            error(f"{name} exited with {proc.returncode} and no result")
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
        code = code or proc.returncode
    print(json.dumps(total))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "waveholtz" / "__init__.py").is_file():
        error(f"no package source at {SRC / 'waveholtz'}; run from a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)

    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
        return 2
    result, rounds = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_result(args.workload, result, rounds)
    with (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").open("w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
