import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from waveholtz import filters, iteration
from waveholtz import (
    FilterSpec,
    InstabilityError,
    ScalarField,
    TimeGrid,
    UniformGrid,
    WaveHoltzConfig,
    cli,
    inner_product,
    optimize_tunable_filter,
)
from waveholtz.cli import (
    ConfigError,
    build_problem,
    csq_presets,
    forcing_presets,
    main,
    parse_config,
    read_field_dump,
    report_summary,
    run_sweep,
    write_field_dump,
)

BASE_CONFIG = """\
[problem]
dim = 1
lo = 0
hi = 1
n = 60
csq = constant
forcing = gaussian1d
bc = dirichlet

[solver]
method = {method}
tol = 1e-10
max_iters = {max_iters}
periods = 1

[sweep]
omegas = {omegas}

[output]
dir = {outdir}
"""


def _write_config(tmp_path, name="run.ini", **kw):
    kw.setdefault("method", "gmres")
    kw.setdefault("max_iters", 500)
    kw.setdefault("omegas", "1.22")
    kw.setdefault("outdir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(**kw))
    return path


def test_parse_config_roundtrip(tmp_path):
    path = _write_config(tmp_path, omegas="1.22, 4.0")
    cfg = parse_config(path)
    assert cfg.dim == 1
    assert cfg.omegas == (1.22, 4.0)
    assert cfg.method == "gmres"
    assert cfg.bcs.sides == ("dirichlet", "dirichlet")


def test_parse_config_range_syntax(tmp_path):
    path = _write_config(tmp_path, omegas="1:3:5")
    cfg = parse_config(path)
    assert cfg.omegas == tuple(np.linspace(1.0, 3.0, 5))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.ini")


def test_sweep_writes_artifacts(tmp_path):
    path = _write_config(tmp_path, omegas="1.22, 4.0")
    cfg = parse_config(path)
    out = run_sweep(cfg, tmp_path / "out")
    summary = out["summary"]
    lines = summary.read_text().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert lines[0].startswith("omega,method,n,dofs,iters")
    assert (tmp_path / "out" / "history_gmres_omega1p22.csv").exists()
    assert (tmp_path / "out" / "solution_gmres_omega4.bin").exists()
    assert (tmp_path / "out" / "solution_gmres_omega4.bin.hdr").exists()


def test_sweep_results_hold_no_field(tmp_path):
    # each run's field is written as the run finishes; the records the sweep
    # returns keep no array of it, so a long sweep does not hold every field
    cfg = parse_config(_write_config(tmp_path, omegas="1.22, 4.0"))
    results = run_sweep(cfg, tmp_path / "out")["results"]
    assert [r.omega for r in results] == [1.22, 4.0]
    for r in results:
        for value in (*vars(r).values(), *vars(r.report).values()):
            assert not isinstance(value, np.ndarray), r
        assert r.report.converged


def test_sweep_deterministic_rerun(tmp_path):
    path = _write_config(tmp_path)
    cfg = parse_config(path)
    out1 = run_sweep(cfg, tmp_path / "a")
    out2 = run_sweep(cfg, tmp_path / "b")
    rows1 = [r.rsplit(",", 1)[0] for r in out1["summary"].read_text().splitlines()]
    rows2 = [r.rsplit(",", 1)[0] for r in out2["summary"].read_text().splitlines()]
    assert rows1 == rows2  # identical except the trailing wall_time column
    b1 = (tmp_path / "a" / "solution_gmres_omega1p22.bin").read_bytes()
    b2 = (tmp_path / "b" / "solution_gmres_omega1p22.bin").read_bytes()
    assert b1 == b2


def test_rhs_evals_count_rk4_stages(tmp_path):
    # 1D impedance -> RK4: four stage evaluations per step, 63 steps per solve
    path = tmp_path / "imp.ini"
    path.write_text("[problem]\ndim = 1\nlo = -1\nhi = 1\nn = 200\n"
                    "bc = impedance\nforcing = gaussian1d\n\n"
                    "[solver]\nmethod = gmres\ntol = 1e-8\n\n"
                    "[sweep]\nomegas = 10\n")
    (r,) = run_sweep(parse_config(path), tmp_path / "out")["results"]
    assert (r.report.operator_applications, r.rhs_evals) == (15, 15 * 63 * 4)


def test_rhs_evals_count_leapfrog_start_up(tmp_path):
    cfg = parse_config(_write_config(tmp_path))
    (r,) = run_sweep(cfg, tmp_path / "out")["results"]
    steps = WaveHoltzConfig.build(build_problem(cfg, 1.22)).tg.steps
    assert r.rhs_evals == r.report.operator_applications * (steps + 1)


def test_field_dump_round_trip(tmp_path, rng):
    g = UniformGrid.box((-1.0, 0.0), (1.0, 2.0), (6, 9))
    vals = rng.standard_normal(g.shape)
    path = tmp_path / "field.bin"
    write_field_dump(path, g, vals)
    g2, vals2 = read_field_dump(path)
    assert g2 == g
    assert np.array_equal(vals, vals2)


def test_forcing_preset_values():
    g = UniformGrid.line(0.0, 1.0, 50)
    om = 3.0
    f = forcing_presets("gaussian1d", g, om)
    # value at x = 0 is omega^2 before any Dirichlet zeroing
    assert f.values[0] == pytest.approx(om**2)

    d = forcing_presets("delta", g, om)
    ones = ScalarField.constant(g, 1.0)
    assert inner_product(d, ones) == pytest.approx(-1.0)

    g2 = UniformGrid.box(-1.0, 1.0, 200)  # node exactly at (0.01, 0.015)? h=0.01
    f2 = forcing_presets("gaussian2d", g2, om)
    i = int(np.argmin(np.abs(g2.axis_coords(0) - 0.01)))
    j = int(np.argmin(np.abs(g2.axis_coords(1) - 0.015)))
    assert f2.values[i, j] == pytest.approx(-om**2, rel=1e-2)

    with pytest.raises(ConfigError):
        forcing_presets("bogus", g, om)
    with pytest.raises(ConfigError):
        forcing_presets("gaussian2d", g, om)
    with pytest.raises(ConfigError, match="1D grid"):
        forcing_presets("gaussian1d", g2, om)


def test_csq_presets():
    g = UniformGrid.box(-1.0, 1.0, 16)
    lens = csq_presets("lens2d", g)
    centre = lens.values[8, 8]
    assert centre == pytest.approx(0.6)
    assert lens.values[0, 0] == pytest.approx(1.0, abs=1e-6)
    const = csq_presets("constant", g, value=2.5)
    assert np.all(const.values == 2.5)
    with pytest.raises(ConfigError, match="2D grid"):
        csq_presets("lens2d", UniformGrid.line(0.0, 1.0, 16))
    with pytest.raises(ConfigError, match="unknown csq preset"):
        csq_presets("bogus", g)


def test_report_summary_synthetic_slope(tmp_path):
    rows = ["omega,method,n,dofs,iters,operator_applications,rhs_evals,"
            "converged,final_residual,measured_rate,delta_h,rate_bound,wall_time"]
    for om in (2.0, 4.0, 8.0, 16.0):
        rows.append(f"{om},gmres,10,11,{int(3 * om)},1,1,1,1e-11,0.5,,,0.1")
    path = tmp_path / "synth.csv"
    path.write_text("\n".join(rows) + "\n")
    text = report_summary([path])
    slope = float(text.split("slope (iters vs omega):")[1].split()[0])
    assert slope == pytest.approx(1.0, abs=0.01)


def test_report_summary_empty_and_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "omega,method,n,dofs,iters,operator_applications,rhs_evals,"
        "converged,final_residual,measured_rate,delta_h,rate_bound,wall_time\n"
    )
    assert "no rows" in report_summary([empty])

    bad = tmp_path / "bad.csv"
    bad.write_text(empty.read_text() + "1.0,gmres,10\n")
    with pytest.raises(ConfigError, match=":2"):
        report_summary([bad])

    # a value that does not parse names its line
    nonnumeric = tmp_path / "nonnumeric.csv"
    nonnumeric.write_text(empty.read_text() + "2.0,gmres,10,11,six,1,1,1,1e-11,0.5,,,0.1\n")
    with pytest.raises(ConfigError, match=r"nonnumeric\.csv:2: invalid literal"):
        report_summary([nonnumeric])

    # the header must match exactly, not by prefix
    extra = tmp_path / "extra.csv"
    extra.write_text(empty.read_text().replace("wall_time", "wall_time,note")
                     + "2.0,gmres,10,11,6,1,1,1,1e-11,0.5,,,0.1,x\n")
    with pytest.raises(ConfigError, match=r"extra\.csv:1: expected the header"):
        report_summary([extra])

    # a frequency the log-log fit cannot take, or a negative count, names its line
    for omega, iters in (("nan", "6"), ("inf", "6"), ("-1", "6"), ("2.0", "-6")):
        unfit = tmp_path / "unfit.csv"
        unfit.write_text(empty.read_text() + "3.0,gmres,10,11,6,1,1,1,1e-11,0.5,,,0.1\n"
                         f"{omega},gmres,10,11,{iters},1,1,1,1e-11,0.5,,,0.1\n")
        with pytest.raises(ConfigError, match=r"unfit\.csv:3: .*(positive and finite|>= 0)"):
            report_summary([unfit])


def test_main_exit_codes(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    out = tmp_path / "cli_out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()

    assert main(["report", str(out / "summary.csv")]) == 0

    # --strict surfaces non-convergence as exit code 3
    path3 = _write_config(tmp_path, name="stall.ini", method="fixed_point",
                          max_iters=2, omegas="12.498")
    assert main(["sweep", "--config", str(path3), "--out", str(out / "s"),
                 "--strict"]) == 3


TUNABLE_CONFIG = """\
[problem]
dim = 1
lo = 0
hi = 1
n = 129
forcing = delta
bc = dirichlet

[solver]
method = fixed_point
tol = 1e-6
max_iters = 4000

[filter]
kind = {kind}
a0 = -0.1
a = 0.05, -0.02
n_coeffs = 4
resonant_lambda = {reslam}

[sweep]
omegas = {omega}

[output]
dir = {outdir}
"""


def test_cli_tunable_filter_path(tmp_path):
    path = tmp_path / "tun.ini"
    path.write_text(TUNABLE_CONFIG.format(
        kind="tunable", reslam=4 * math.pi, omega=2.0,
        outdir=str(tmp_path / "out")))
    assert main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 0


def test_cli_optimize_filter_path(tmp_path):
    path = tmp_path / "opt.ini"
    path.write_text(TUNABLE_CONFIG.format(
        kind="optimize", reslam=4 * math.pi, omega=4.1 * math.pi,
        outdir=str(tmp_path / "out")))
    assert main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--seed", "3"]) == 0
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(summary) == 2


def test_design_that_does_not_improve_falls_back_with_a_warning(tmp_path, monkeypatch,
                                                               capsys):
    # maps whose cost is smallest at the standard filter, with a zero
    # gradient and a zero Hessian there: the design converges at its start
    # point but does not improve, so the standard filter comes back and the
    # command warns and still runs
    designs = []
    real_maps = filters._design_maps

    def standard_is_minimiser(*args):
        designs.append(args)
        _, P, g2_base, g2 = real_maps(*args)
        x_standard = np.r_[-0.25, np.zeros(P.shape[1] - 1)]
        return -P @ x_standard, P, g2_base, np.zeros_like(g2)

    monkeypatch.setattr(filters, "_design_maps", standard_is_minimiser)
    omega = 4.1 * math.pi
    tg = TimeGrid(omega, 1, 91)
    res = optimize_tunable_filter(omega, 4 * math.pi, 6, tg)
    assert not res.improved
    assert res.warning == "optimizer did not improve on the standard filter"
    assert res.spec == FilterSpec.tunable(omega, a0=-0.25, a_rest=(0.0,) * 4)
    assert res.cost == res.standard_cost

    path = tmp_path / "opt.ini"
    path.write_text(TUNABLE_CONFIG.format(
        kind="optimize", reslam=4 * math.pi, omega=omega,
        outdir=str(tmp_path / "out")).replace("fixed_point", "gmres"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "summary.csv").read_text().splitlines()) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: optimizer did not improve on the standard filter"]
    assert len(designs) == 2  # the call above, then one design for the sweep's omega


def test_optimize_run_computes_the_box_spectrum_once(tmp_path, monkeypatch):
    # one set-up per frequency: one config, one spectrum (the designed
    # filter's fence and the delta_h column) and one filter design
    calls = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **kw: (calls.append(name), real(*a, **kw))[1])

    counted(cli, "dirichlet_box_spectrum")
    counted(cli, "optimize_tunable_filter")
    counted(WaveHoltzConfig, "build")
    path = tmp_path / "opt.ini"
    path.write_text(TUNABLE_CONFIG.format(
        kind="optimize", reslam=4 * math.pi, omega=4.1 * math.pi,
        outdir=str(tmp_path / "out")))
    (res,) = run_sweep(parse_config(path), tmp_path / "out")["results"]
    assert sorted(calls) == ["build", "dirichlet_box_spectrum", "optimize_tunable_filter"]
    assert res.report.converged
    assert res.delta_h is not None and res.rate_bound is not None


def test_report_counts_fixed_point_bound_violations(tmp_path):
    header = ("omega,method,n,dofs,iters,operator_applications,rhs_evals,"
              "converged,final_residual,measured_rate,delta_h,rate_bound,"
              "wall_time")
    rows = [header,
            "2.0,fixed_point,10,11,5,5,50,1,1e-11,0.5,0.4,0.952,0.1",
            "3.0,fixed_point,10,11,5,5,50,1,1e-11,0.95,0.57,0.9,0.1",
            "4.0,fixed_point,10,11,5,5,50,1,1e-11,0.9999,0.02,0.99988,0.1"]
    path = tmp_path / "fp.csv"
    path.write_text("\n".join(rows) + "\n")
    text = report_summary([path])
    assert "contraction-bound violations: 0" not in text
    assert "contraction-bound violations: 1" in text


def test_c08_sweep_gmres_counts_pinned(tmp_path):
    # C08: 1D [-6, 6], Dirichlet, n = auto, GMRES(1000), tol 1e-10; the counts
    # of the Krylov solve must not move with changes to its arithmetic
    path = tmp_path / "c08.ini"
    path.write_text("[problem]\ndim = 1\nlo = -6\nhi = 6\nn = auto\nbc = dirichlet\n"
                    "forcing = gaussian1d\n\n"
                    "[solver]\nmethod = gmres\ntol = 1e-10\nmax_iters = 2000\n"
                    "krylov_max_iters = 1000\nrestart = 1000\n\n"
                    "[sweep]\nomegas = 20 40 60 80\n")
    cfg = parse_config(path)
    # At omega = 40 the estimate at iteration 145 is 9.4e-11 against tol 1e-10,
    # a knife edge: another BLAS's reduction order may tip it to 146.
    expected = {20.0: {75}, 40.0: {145, 146}, 60.0: {212}, 80.0: {280}}
    results = run_sweep(cfg, tmp_path / "out")["results"]
    assert [r.omega for r in results] == list(expected)
    for r, (omega, iters) in zip(results, expected.items()):
        rep = r.report
        assert rep.iters in iters, (omega, rep.iters)
        assert rep.operator_applications == rep.iters + 2  # b and the certify pass
        assert rep.converged
        assert rep.residual_history[-1] <= cfg.tol  # the certified true residual


@pytest.mark.parametrize("omegas", ["20", "10 20"])
def test_cg_breakdown_exits_with_solver_error(tmp_path, capsys, omegas):
    # the C08 line at omega = 20 is indefinite, so CG meets nonpositive
    # curvature: one stderr line and exit code 4, not a traceback; a run
    # that finished before it (omega = 10 converges) keeps all its output
    path = tmp_path / "c08_cg.ini"
    path.write_text("[problem]\ndim = 1\nlo = -6\nhi = 6\nn = auto\nbc = dirichlet\n"
                    "forcing = gaussian1d\n\n"
                    "[solver]\nmethod = cg\ntol = 1e-10\nmax_iters = 2000\n"
                    "krylov_max_iters = 1000\nrestart = 1000\n\n"
                    f"[sweep]\nomegas = {omegas}\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 4
    std = capsys.readouterr()
    err = std.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("solver error: <Ap, p> =")
    if omegas == "20":
        assert std.out == ""
        assert not (out / "summary.csv").exists()
        return
    (status,) = std.out.splitlines()
    assert status.startswith("omega=10 method=cg ") and status.endswith("[ok]")
    header, row = (out / "summary.csv").read_text().splitlines()
    assert header.startswith("omega,method") and row.startswith("10,cg,")
    assert sorted(f.name for f in out.iterdir()) == [
        "history_cg_omega10.csv", "solution_cg_omega10.bin",
        "solution_cg_omega10.bin.hdr", "summary.csv"]


def test_instability_exits_with_solver_error(tmp_path, capsys, monkeypatch):
    def unstable(*args, **kwargs):
        raise InstabilityError("leapfrog produced non-finite values between steps 0 and 64")

    monkeypatch.setattr(cli, "solve", unstable)
    path = _write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == ("solver error: leapfrog produced non-finite "
                                       "values between steps 0 and 64\n")


@pytest.mark.parametrize("section,key,literal", [("solver", "correction", "ture"),
                                                 ("output", "dump_fields", "maybe")])
def test_bad_boolean_literal_is_a_config_error(tmp_path, section, key, literal):
    # any literal but 1/0, true/false, yes/no and on/off is rejected, not read as false
    path = _write_config(tmp_path)
    path.write_text(path.read_text().replace(f"[{section}]\n",
                                             f"[{section}]\n{key} = {literal}\n"))
    with pytest.raises(ConfigError, match=f"Not a boolean: {literal}"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert not (out / "summary.csv").exists()


def test_unstable_leapfrog_dt_is_a_config_error(tmp_path, capsys):
    # 117 steps over one period at omega = 5, n = 100 break the leapfrog bound
    path = _write_config(tmp_path, omegas="5")
    path.write_text(path.read_text().replace("n = 60", "n = 100")
                    .replace("periods = 1", "periods = 1\nsteps = 117"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "stability limit" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_unknown_method_names_all_three(tmp_path, capsys):
    path = _write_config(tmp_path)
    path.write_text(_replace_line(path.read_text(), "method = gmres", "method = bogus"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "the methods are fixed_point, gmres and cg" in capsys.readouterr().err
    assert not out.exists()


def _replace_line(text, old, new):
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("edit", [
    lambda t: _replace_line(t, "bc = dirichlet", "bc = dirichlett"),
    lambda t: _replace_line(t, "method = gmres", "method = gmress"),
    lambda t: _replace_line(t, "periods = 1", "periods = 1\nrestart = 0"),
    lambda t: _replace_line(t, "omegas = 1.22", "omegas = 5 -1"),
    lambda t: _replace_line(t, "omegas = 1.22", "omegas = 2 inf"),
    lambda t: _replace_line(t, "omegas = 1.22", "omegas = 2 2.0000001"),
    lambda t: _replace_line(t, "omegas = 1.22", "omegas = 2 2"),
    lambda t: _replace_line(t, "n = 60", "n = abc"),
    lambda t: _replace_line(t, "hi = 1", "hi = inf"),
    lambda t: _replace_line(t, "periods = 1", "periods = 0"),
    lambda t: _replace_line(t, "periods = 1", "periods = 1\nkrylov_max_iters = 0"),
    lambda t: _replace_line(t, "tol = 1e-10", "tols = 1e-2\nmax_itres = 3"),
    lambda t: _replace_line(t, "tol = 1e-10", "tol = 1e-10\nkrylov_tol = 1e-8"),
    lambda t: TUNABLE_CONFIG.format(kind="tunable", reslam=1.0, omega=2.0, outdir="out")
    .replace("a0 = -0.1", "a0 = 0.7"),
    lambda t: TUNABLE_CONFIG.format(kind="optimize", reslam=4 * math.pi,
                                    omega=4 * math.pi, outdir="out"),
    lambda t: _replace_line(t, "bc = dirichlet", "bc = impedance")
    .replace("periods = 1", "periods = 1\nscheme = leapfrog"),
    lambda t: _replace_line(t, "method = gmres", "method = cg")
    .replace("bc = dirichlet", "bc = impedance"),
    lambda t: _replace_line(t, "lo = 0", "lo = 0 0"),
    lambda t: _replace_line(t, "bc = dirichlet", "bc = dirichlet dirichlet neumann"),
    lambda t: _replace_line(TUNABLE_CONFIG.format(kind="optimize", reslam=1.0, omega=2.0,
                                                  outdir="out"), "resonant_lambda = 1.0\n", ""),
    lambda t: _replace_line(t, "periods = 1", "periods = 1\n\n[filter]\nkind = gaussian"),
    lambda t: _replace_line(t, "omegas = 1.22", "omegas ="),
    lambda t: _replace_line(t, "tol = 1e-10", "tol = nan"),
    lambda t: _replace_line(t, "tol = 1e-10", "tol = inf"),
    lambda t: _replace_line(t, "tol = 1e-10", "tol = nan")
    .replace("method = gmres", "method = fixed_point"),
    lambda t: _replace_line(TUNABLE_CONFIG.format(kind="tunable", reslam=1.0, omega=2.0,
                                                  outdir="out"),
                            "a = 0.05, -0.02", "a = 0.1 nan"),
    # the design is accepted at omega = 2 and refused only at the later 4 pi
    lambda t: _replace_line(t, "omegas = 1.22", f"omegas = 2, {4 * math.pi!r}")
    .replace("n = 60", "n = 100")
    .replace("periods = 1", "periods = 1\n\n[filter]\nkind = optimize\n"
                            f"resonant_lambda = {4 * math.pi!r}"),
    *(lambda t, lam=lam: _replace_line(t, "omegas = 1.22", "omegas = 3")
      .replace("periods = 1", f"periods = 1\n\n[filter]\nkind = optimize\n"
                              f"resonant_lambda = {lam}")
      for lam in ("nan", "inf", "-3")),
], ids=["bc", "method", "restart", "omegas", "omegas-inf", "omegas-same-tag",
        "omegas-repeated", "n", "hi-inf", "periods",
        "krylov_max_iters", "misspelt-keys", "krylov_tol", "tunable-a0",
        "optimize-at-resonance", "leapfrog-impedance", "cg-rk4", "lo-count",
        "bc-three-tags-1d", "optimize-without-resonant_lambda", "filter-kind",
        "omegas-empty", "tol-nan", "tol-inf", "tol-nan-fixed-point", "a-nan",
        "optimize-resonant-later", "resonant_lambda-nan", "resonant_lambda-inf",
        "resonant_lambda-negative"])
def test_rejected_value_exits_2_before_any_wave_solve(tmp_path, capsys, monkeypatch, edit):
    solves = []
    evolve = iteration.evolve_and_filter
    monkeypatch.setattr(iteration, "evolve_and_filter",
                        lambda *a, **kw: solves.append(1) or evolve(*a, **kw))
    path = _write_config(tmp_path)
    path.write_text(edit(path.read_text()))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert solves == []
    assert not out.exists()


def test_unknown_keys_are_named(tmp_path):
    path = _write_config(tmp_path)
    path.write_text(path.read_text().replace("tol = 1e-10", "tols = 1e-2\nmax_itres = 3")
                    + "\n[solvr]\nrestart = 5\n")
    with pytest.raises(ConfigError, match=re.escape(
            "unknown [solver] tols, [solver] max_itres, [solvr] restart")):
        parse_config(path)


def test_readme_config_runs(tmp_path):
    # the README's sample config is the documentation of every key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()


def test_readme_python_runs():
    # the README's python blocks run in order in one namespace, as a reader
    # pastes them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["report"].converged
    assert namespace["result"].report.converged


def test_cli_import_loads_no_scipy():
    # SciPy is imported inside the functions that need it, so starting the
    # command (and timing the package's import) never pays for SciPy
    code = ("import sys, waveholtz.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_design_and_optimize_sweep_load_no_scipy_optimize(tmp_path):
    # the filter design is Newton's method in NumPy: neither a design nor a
    # sweep that designs a filter per frequency pays for scipy.optimize
    path = tmp_path / "opt.ini"
    path.write_text(TUNABLE_CONFIG.format(
        kind="optimize", reslam=4 * math.pi, omega=4.1 * math.pi,
        outdir=str(tmp_path / "out")).replace("fixed_point", "gmres"))
    code = ("import math, sys\n"
            "from waveholtz import TimeGrid, optimize_tunable_filter\n"
            "from waveholtz.cli import main\n"
            "omega = 4.1 * math.pi\n"
            "res = optimize_tunable_filter(omega, 4 * math.pi, 6, TimeGrid(omega, 1, 91))\n"
            "assert res.improved, res.warning\n"
            f"assert main(['sweep', '--config', {str(path)!r}]) == 0\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stderr == ""
    assert out.stdout.splitlines()[-1] == "False"


def test_report_on_a_missing_file_or_a_directory_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.csv", tmp_path):
        with pytest.raises(ConfigError, match=f"cannot read summary file {re.escape(str(path))}"):
            report_summary([path])
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot read"), err


def test_sweep_out_on_an_existing_file_exits_2_before_any_wave_solve(tmp_path, capsys,
                                                                     monkeypatch):
    solves = []
    evolve = iteration.evolve_and_filter
    monkeypatch.setattr(iteration, "evolve_and_filter",
                        lambda *a, **kw: solves.append(1) or evolve(*a, **kw))
    path = _write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    for out in (taken, taken / "sub"):
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: output path {out} is not a directory"]
    assert solves == []
    assert taken.read_text() == "keep me\n"
