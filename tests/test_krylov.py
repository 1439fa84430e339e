import tracemalloc

import numpy as np
import pytest

from waveholtz import (
    IndefiniteOperatorError,
    IterationReport,
    KrylovConfig,
    LinearOperator,
    cg_solve,
    gmres_solve,
)


def _mat_op(M):
    M = np.asarray(M, dtype=float)
    return LinearOperator(M.shape[0], lambda x: M @ x)


def test_gmres_identity_one_iteration():
    n = 12
    A = _mat_op(np.eye(n))
    b = np.arange(1.0, n + 1.0)
    x, rep = gmres_solve(A, b, KrylovConfig(tol=1e-12, max_iters=50))
    assert rep.converged
    assert rep.iters == 1
    assert np.allclose(x, b, atol=1e-12)


def test_gmres_matches_dense_solve(rng):
    n = 50
    M = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    x_ref = np.linalg.solve(M, b)
    x, rep = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-12, restart=60,
                                                     max_iters=200))
    assert rep.converged
    assert np.max(np.abs(x - x_ref)) < 1e-10 * max(1.0, np.max(np.abs(x_ref)))


def test_gmres_restarted_still_converges(rng):
    n = 40
    M = np.diag(np.linspace(1.0, 3.0, n)) + 0.05 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    x, rep = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-10, restart=7,
                                                     max_iters=500))
    assert rep.converged
    assert np.max(np.abs(M @ x - b)) < 1e-9


def test_gmres_residuals_nonincreasing_within_cycle(rng):
    n = 30
    M = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    _, rep = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-13, restart=n + 5,
                                                     max_iters=n + 5))
    h = rep.residual_history
    # single cycle: first entry is the true initial residual, rest estimates
    inner = h[1:-1] if h[-1] <= 1e-13 else h[1:]
    assert all(b <= a + 1e-15 for a, b in zip(inner, inner[1:]))


def test_gmres_rhs_scaling_invariance(rng):
    n = 25
    M = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    cfg = KrylovConfig(tol=1e-11, restart=40, max_iters=100)
    x1, _ = gmres_solve(_mat_op(M), b, cfg)
    x2, _ = gmres_solve(_mat_op(M), 137.0 * b, cfg)
    assert np.max(np.abs(137.0 * x1 - x2)) < 1e-8 * np.max(np.abs(x2))


@pytest.mark.parametrize("method", [gmres_solve, cg_solve], ids=lambda f: f.__name__)
def test_gmres_zero_rhs(method):
    A = _mat_op(np.eye(4))
    x, rep = method(A, np.zeros(4), KrylovConfig())
    assert rep.converged and not np.any(x)
    assert rep.measured_rate == 1.0  # a one-entry history has no ratio
    with pytest.raises(ValueError, match="non-empty"):  # an empty one is refused
        IterationReport([], 0, True, 0.0)


def test_gmres_operator_count_accounting(rng):
    # apps = inner iterations + one true residual per later pass (incl.
    # certification); the first residual is b itself
    n = 20
    M = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    counter = {"n": 0}

    def apply(x):
        counter["n"] += 1
        return M @ x

    A = LinearOperator(n, apply)
    _, rep = gmres_solve(A, b, KrylovConfig(tol=1e-11, restart=40, max_iters=100))
    assert rep.converged
    assert rep.operator_applications == counter["n"]
    assert rep.operator_applications == rep.iters + 1  # one cycle + certify pass


def test_gmres_stagnation_reports_not_converged():
    # singular system with b outside the range: no progress possible
    M = np.diag([1.0, 1.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    x, rep = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-12, restart=3,
                                                     max_iters=50))
    assert not rep.converged
    assert rep.iters < 50  # stagnation detected, not exhausted


def test_gmres_stagnation_across_a_restart_cycle():
    # GMRES(1) on a 90 degree rotation: A r is orthogonal to r, so the cycle's
    # one nonzero column leaves the residual where it was, and the solve stops
    # on the stagnated cycle, not on a vanished column or on max_iters
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    _, rep = gmres_solve(_mat_op(M), np.array([1.0, 0.0]),
                         KrylovConfig(restart=1, max_iters=50))
    assert not rep.converged
    assert rep.iters < 50
    assert rep.operator_applications == rep.iters
    assert rep.residual_history == [1.0, 1.0]


def test_cg_diagonal_system():
    d = np.arange(1.0, 51.0)
    A = _mat_op(np.diag(d))
    b = np.ones(50)
    x, rep = cg_solve(A, b, KrylovConfig(method="cg", tol=1e-12, max_iters=200))
    assert rep.converged
    assert np.max(np.abs(x - 1.0 / d)) < 1e-10


def test_cg_matches_gmres(rng):
    n = 30
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = Q @ np.diag(np.linspace(1.0, 4.0, n)) @ Q.T
    b = rng.standard_normal(n)
    xc, repc = cg_solve(_mat_op(M), b, KrylovConfig(tol=1e-12, max_iters=200))
    xg, repg = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-12, restart=40,
                                                       max_iters=200))
    assert repc.converged and repg.converged
    assert np.max(np.abs(xc - xg)) < 1e-9


def test_cg_operator_count_is_iters():
    d = np.linspace(1.0, 2.0, 15)
    A = _mat_op(np.diag(d))
    b = np.ones(15)
    _, rep = cg_solve(A, b, KrylovConfig(tol=1e-12, max_iters=100))
    assert rep.operator_applications == rep.iters  # no application for A 0


def test_cg_rhs_scaling_invariance(rng):
    d = np.linspace(0.5, 5.0, 20)
    A = _mat_op(np.diag(d))
    b = rng.standard_normal(20)
    cfg = KrylovConfig(tol=1e-12, max_iters=100)
    x1, _ = cg_solve(A, b, cfg)
    x2, _ = cg_solve(A, -3.5 * b, cfg)
    assert np.max(np.abs(-3.5 * x1 - x2)) < 1e-9 * np.max(np.abs(x2))


def test_cg_indefinite_raises():
    A = _mat_op(np.diag([1.0, -1.0]))
    with pytest.raises(IndefiniteOperatorError):
        cg_solve(A, np.array([0.3, 1.0]), KrylovConfig(tol=1e-10, max_iters=10))


def test_cg_on_slightly_nonsymmetric_operator_is_honest(rng):
    # CG has no guarantees off the SPD cone; whatever it reports, a claimed
    # convergence must hold up against the true residual (the paper-style
    # failure mode is stagnation, surfaced as converged=False).
    n = 40
    base = np.diag(np.linspace(1.0, 3.0, n))
    skew = 0.05 * rng.standard_normal((n, n))
    M = base + (skew - skew.T) / 2.0 + 0.02 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    try:
        x, rep = cg_solve(_mat_op(M), b,
                          KrylovConfig(tol=1e-10, max_iters=300))
    except IndefiniteOperatorError:
        return  # legitimate outcome for a non-SPD operator
    if rep.converged:
        assert np.linalg.norm(b - M @ x) <= 1e-8 * np.linalg.norm(b)
    assert len(rep.residual_history) == rep.iters + 1


def test_gmres_certifies_an_estimate_that_meets_tol_at_the_cap():
    # an SPD system with eigenvalues on [1, 3]: an estimate that meets tol on
    # the last allowed iteration is certified by one true residual, as it is
    # below the cap, not reported as a failure
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    M = (Q * np.linspace(1.0, 3.0, 40)) @ Q.T
    b = rng.standard_normal(40)
    _, free = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-8))
    x, capped = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-8, max_iters=free.iters))
    assert capped.converged and capped.iters == free.iters
    assert capped.operator_applications == free.operator_applications == free.iters + 1
    assert np.linalg.norm(b - M @ x) <= 1e-8 * np.linalg.norm(b)


def test_max_iters_respected(rng):
    n = 60
    M = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    _, rep = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-15, restart=10,
                                                     max_iters=7))
    assert rep.iters <= 7


def test_gmres_hessenberg_storage_grows_with_iterations(rng):
    # restart = 1000 but convergence in a few iterations: only the filled
    # Hessenberg columns may be stored, not a dense (restart + 1) x restart array
    n = 50
    M = np.eye(n) + 0.05 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    A = _mat_op(M)
    tracemalloc.start()
    try:
        _, rep = gmres_solve(A, b, KrylovConfig(tol=1e-10, restart=1000,
                                                max_iters=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.iters < 30
    assert peak < 1_000_000


def test_gmres_basis_sized_by_remaining_iterations(rng):
    # restart = 1000 with max_iters = 20: a basis of restart + 1 rows would be
    # 400 KB at n = 50; the cycle can run only 20 iterations, so it needs 21
    n = 50
    M = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    tracemalloc.start()
    try:
        x, rep = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-15, restart=1000,
                                                         max_iters=20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iters == 20 and not rep.converged
    assert peak < 100_000
    # the same arithmetic as a cycle that is 20 long by its restart length
    x20, rep20 = gmres_solve(_mat_op(M), b, KrylovConfig(tol=1e-15, restart=20,
                                                         max_iters=20))
    assert np.array_equal(x, x20)
    assert rep.residual_history == rep20.residual_history


def test_gmres_graded_nonnormal_system_needs_second_pass():
    # upper bidiagonal with diagonal graded from 1 to 1e-10 (condition ~1e10):
    # a single classical Gram-Schmidt pass loses orthogonality here, so the
    # selective second pass must fire for one restart cycle to converge
    n = 40
    d = np.logspace(0.0, -10.0, n)
    M = np.diag(d) + np.diag(0.5 * d[1:], 1)
    b = np.ones(n)
    tol = 1e-6
    x, rep = gmres_solve(_mat_op(M), b, KrylovConfig(tol=tol, restart=n,
                                                     max_iters=4 * n))
    assert rep.converged
    assert np.linalg.norm(b - M @ x) / np.linalg.norm(b) <= tol
    assert rep.operator_applications == rep.iters + 1  # one cycle + certify pass
