"""Primal-dual iteration and the direct factorization oracle."""

import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nullctrl import saddle
from nullctrl.fem import build_space
from nullctrl.forms import SaddleSystem, assemble_heat, assemble_stokes
from nullctrl.mesh import build_mesh
from nullctrl.saddle import (AHParams, IterationLog, KktSolver,
                             SolverDiverged, arrow_hurwicz, direct_solve,
                             equilibrated, lsq_solve)
from nullctrl.weights import WeightSet


def toy_system():
    """Hand-solvable system: A=diag(2,2), B=[1,1], L=(2,2) -> x=0, lam=2."""
    A = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
    B = sp.csr_matrix(np.array([[1.0, 1.0]]))
    L = np.array([2.0, 2.0])
    return SaddleSystem(A=A, B=B, L=L, primal=[], dual=[],
                        M_primal=sp.identity(2, format="csr"),
                        M_dual=sp.identity(1, format="csr"))


def random_system(rng, n=40, m=10):
    Q = rng.standard_normal((n, n))
    A = sp.csr_matrix(Q @ Q.T / n + np.eye(n))
    B = sp.csr_matrix(rng.standard_normal((m, n)) / np.sqrt(n))
    L = rng.standard_normal(n)
    return SaddleSystem(A=A, B=B, L=L, primal=[], dual=[],
                        M_primal=sp.identity(n, format="csr"),
                        M_dual=sp.identity(m, format="csr"))


def stable_step(system):
    """Primal step r = 1/lambda_max(A): half the AH bound r < 2/lambda_max.

    random_system's primal mass is the identity, so equilibration leaves A
    as it is and its spectrum sets the iteration's stable range; with
    s = 1 and unit constraint rows the coupled bound on r^2 s |B|^2 is
    then far from binding.
    """
    return 1.0 / np.linalg.eigvalsh(system.A.toarray())[-1]


def test_params_validation():
    with pytest.raises(ValueError):
        AHParams(r=-1.0)
    with pytest.raises(ValueError):
        AHParams(max_iter=0)


def test_toy_direct_solution():
    x, lam, flagged = direct_solve(toy_system())
    assert not flagged
    assert np.allclose(x, [0.0, 0.0], atol=1e-12)
    assert lam[0] == pytest.approx(2.0, abs=1e-12)


def test_toy_iteration_matches_direct():
    system = toy_system()
    xd, ld, _ = direct_solve(system)
    x, lam, log = arrow_hurwicz(
        system, AHParams(r=0.3, s=1.0, tol=1e-12, max_iter=20000))
    assert np.allclose(x, xd, atol=1e-8)
    assert np.allclose(lam, ld, atol=1e-8)
    assert log.converged


def test_zero_load_converges_immediately():
    system = toy_system()
    system.L = np.zeros(2)
    x, lam, log = arrow_hurwicz(system, AHParams(max_iter=50))
    assert log.iters[-1] == 1
    assert log.converged
    assert np.abs(x).max() == 0.0
    assert np.abs(lam).max() == 0.0


def test_direct_residual_on_random_systems():
    rng = np.random.default_rng(4)
    for _ in range(5):
        system = random_system(rng)
        x, lam, flagged = direct_solve(system)
        assert not flagged
        res = (np.linalg.norm(system.A @ x - system.L + system.B.T @ lam)
               + np.linalg.norm(system.B @ x))
        assert res <= 1e-10 * (np.linalg.norm(system.L) + 1.0)


def test_iteration_agrees_with_direct_on_random_systems():
    rng = np.random.default_rng(8)
    system = random_system(rng, n=30, m=6)
    xd, _, _ = direct_solve(system)
    x, lam, log = arrow_hurwicz(
        system, AHParams(r=stable_step(system), s=1.0, tol=1e-12,
                         max_iter=60000))
    assert np.linalg.norm(x - xd) <= 1e-6 * np.linalg.norm(xd)


def test_converged_constraint_residual_scale():
    rng = np.random.default_rng(13)
    for k in range(3):
        system = random_system(rng, n=30, m=6)
        tol = 1e-8
        x, lam, log = arrow_hurwicz(
            system, AHParams(r=stable_step(system), s=1.0, tol=tol,
                             max_iter=200000))
        assert log.converged
        assert (np.linalg.norm(system.B @ x)
                / max(np.linalg.norm(system.L), 1.0)) <= 10 * tol


def test_divergence_reported():
    system = toy_system()   # equilibrated: A_eq = 2 I, so r = 500 diverges
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverDiverged) as err:
            arrow_hurwicz(system, AHParams(r=500.0, s=10.0, tol=1e-12,
                                           max_iter=500))
    assert err.value.iteration >= 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def assembled_systems():
    """A small heat system and a small Stokes system; both have
    non-identity mass matrices."""
    ws = WeightSet(1.0, 1.0, 1.0, (0.5, 0.5))
    mesh = build_mesh(3, 3, 3, 1.0, 1.0, 1.0, (1 / 3, 2 / 3, 1 / 3, 2 / 3))
    heat = assemble_heat(mesh, (build_space(mesh, 2, 2, 1, "none"),
                                build_space(mesh, 2, 2, 1, "zero_lateral"),
                                build_space(mesh, 2, 2, 1,
                                            "zero_lateral_final")),
                         ws, 1.0, 1000.0)
    stokes = assemble_stokes(mesh, (build_space(mesh, 2, 2, 2, "none"),
                                    build_space(mesh, 2, 2, 2, "zero_lateral"),
                                    build_space(mesh, 2, 2, 1, "none"),
                                    build_space(mesh, 2, 2, 2, "zero_lateral"),
                                    build_space(mesh, 1, 2, 1, "none")),
                             ws, 1.0, (1000.0, 0.0))
    return heat, stokes


@pytest.mark.parametrize("which", [0, 1])
def test_relative_increments_are_mass_norm_ratios(which):
    """rel_err1/rel_err2 of step k+1 equal |new - old|_M / |new|_M of the
    consecutive iterates in the assembled (unscaled) basis."""
    system = assembled_systems()[which]
    k = 6
    params = AHParams(tol=1e-14, max_iter=k)
    xk, lk, _ = arrow_hurwicz(system, params)
    x1, l1, log = arrow_hurwicz(system, AHParams(tol=1e-14, max_iter=k + 1))
    assert len(log.iters) == k + 1 and not log.converged

    def ratio(M, new, old):
        d = new - old
        return np.sqrt(d @ (M @ d)) / np.sqrt(new @ (M @ new))

    want1 = ratio(system.M_primal, x1, xk)
    want2 = ratio(system.M_dual, l1, lk)
    assert want1 > 0 and want2 > 0
    assert log.rel_err1[k] == pytest.approx(want1, rel=1e-10)
    assert log.rel_err2[k] == pytest.approx(want2, rel=1e-10)


def test_lsq_solve_matches_lsmr_on_block_matrix():
    """lsq_solve's stacked operator is bit for bit the block matrix of
    sp.bmat, so LSMR takes the same iterates on it."""
    system = assembled_systems()[1]
    n = system.n_primal
    eq = equilibrated(system)
    A, B = eq.A, eq.B
    K = sp.bmat([[A + B.T @ B, B.T], [B, None]], format="csr")
    rhs = np.concatenate([eq.L, np.zeros(system.n_dual)])
    out = spla.lsmr(K, rhs, atol=1e-10, btol=1e-10, maxiter=300)
    want_x, want_lam = eq.from_basis(out[0][:n], out[0][n:])
    x, lam, info = lsq_solve(system, tol=1e-10, max_iter=300)
    assert info["iterations"] == out[2] > 0
    assert np.array_equal(x, want_x)
    assert np.array_equal(lam, want_lam)


def _bits(v):
    return np.asarray(v).view(np.int64)


def _split_cases():
    """A matrix with empty rows (leading, trailing and interior) and one with
    fewer rows than blocks."""
    rng = np.random.default_rng(5)
    D = rng.standard_normal((60, 45)) * (rng.random((60, 45)) < 0.3)
    D[:4] = 0.0
    D[-6:] = 0.0
    D[10:25:3] = 0.0
    wide = sp.random(3, 50, density=0.4, format="csr", random_state=rng)
    return {"empty-rows": sp.csr_matrix(D), "few-rows": wide}


@pytest.mark.parametrize("case", ["empty-rows", "few-rows"])
@pytest.mark.parametrize("nblocks", [1, 2, 3, 8])
def test_row_split_products_bit_identical(case, nblocks):
    M = _split_cases()[case]
    MT = M.T.tocsr()
    rng = np.random.default_rng(nblocks)
    matvec = saddle._row_split_matvec(M, nblocks)
    rmatvec = saddle._row_split_matvec(MT, nblocks)
    v = rng.standard_normal(M.shape[1])
    u = rng.standard_normal(M.shape[0])
    assert np.array_equal(_bits(matvec(v)), _bits(M @ v))
    # the CSR transpose against the CSC product lsmr's own adjoint makes
    assert np.array_equal(_bits(rmatvec(u)), _bits(M.T @ u))
    blocks = saddle._row_blocks(M, nblocks)
    assert 1 <= len(blocks) <= min(nblocks, M.shape[0])
    assert sum(b.shape[0] for b in blocks) == M.shape[0]
    for b in blocks:
        assert b.nnz == 0 or np.shares_memory(b.data, M.data)
        assert b.nnz == 0 or np.shares_memory(b.indices, M.indices)
    assert np.array_equal(_bits(saddle._split_product(blocks, v)),
                          _bits(M @ v))


def test_row_blocks_balance_nonzeros():
    M = _split_cases()["empty-rows"]
    row_nnz = np.diff(M.indptr)
    blocks = saddle._row_blocks(M, 3)
    assert len(blocks) == 3
    for b in blocks:
        assert abs(b.nnz - M.nnz / 3) <= row_nnz.max()


def test_split_product_under_fast_thread_switching():
    """The calling thread and the helpers take blocks from one shared queue;
    with more blocks than CPUs and a tiny switch interval no block may be
    lost or mixed up between products."""
    rng = np.random.default_rng(11)
    M = sp.random(400, 300, density=0.2, format="csr", random_state=rng)
    blocks = saddle._row_blocks(M, 16)
    vs = rng.standard_normal((50, 300))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for v in vs:
            assert np.array_equal(_bits(saddle._split_product(blocks, v)),
                                  _bits(M @ v))
    finally:
        sys.setswitchinterval(old)


def test_split_product_does_not_wait_for_busy_helpers():
    """With every helper thread busy the calling thread computes all blocks
    itself and withdraws the helpers' tasks."""
    M = _split_cases()["empty-rows"]
    blocks = saddle._row_blocks(M, 4)
    v = np.arange(M.shape[1], dtype=float)
    release = threading.Event()
    pool = saddle._product_pool()
    busy = [pool.submit(release.wait, 30)
            for _ in range(saddle._available_cpus() + 2)]
    out = []
    try:
        caller = threading.Thread(
            target=lambda: out.append(saddle._split_product(blocks, v)))
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive()
    finally:
        release.set()
    assert all(f.result(timeout=10) for f in busy)
    assert np.array_equal(_bits(out[0]), _bits(M @ v))


@pytest.mark.parametrize("cpus", [1, 3])
def test_lsq_solve_bits_independent_of_cpu_count(monkeypatch, cpus):
    """One CPU takes the plain products, several the row-split ones; LSMR
    takes the same iterates either way."""
    system = assembled_systems()[1]
    want = lsq_solve(system, tol=1e-10, max_iter=300)
    monkeypatch.setattr(saddle, "_available_cpus", lambda: cpus)
    got = lsq_solve(system, tol=1e-10, max_iter=300)
    assert got[2] == want[2]
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))


def test_direct_dimension_guard():
    with pytest.raises(ValueError):
        direct_solve(toy_system(), max_dim=2)


def test_singular_system_flagged_least_squares(factorizations):
    # B with a dependent row makes the KKT matrix exactly singular
    A = sp.identity(3, format="csr")
    B = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    system = SaddleSystem(A=A, B=B, L=np.array([1.0, 2.0, 3.0]),
                          primal=[], dual=[],
                          M_primal=sp.identity(3, format="csr"),
                          M_dual=sp.identity(2, format="csr"))
    with pytest.warns(spla.MatrixRankWarning):   # the exact attempt
        x, lam, flagged = direct_solve(system)
    assert len(factorizations) == 1   # the regularized fallback, once
    assert flagged
    assert np.all(np.isfinite(x))
    assert abs(x[0]) <= 1e-8          # constraint x0 = 0 still honored
    assert np.allclose(x[1:], [2.0, 3.0], atol=1e-8)


def test_kkt_solver_matches_direct_on_random_system(factorizations):
    system = random_system(np.random.default_rng(5))
    xd, ld, flagged = direct_solve(system)
    assert not flagged and not factorizations
    x, lam, rn = KktSolver(system).resolve()
    assert len(factorizations) == 1
    assert rn <= 1e-9
    assert np.allclose(x, xd, rtol=0, atol=1e-8)
    assert np.allclose(lam, ld, rtol=0, atol=1e-8)


def test_iteration_log_csv(tmp_path):
    log = IterationLog(iters=[1, 2], rel_err1=[1.0, 0.5], rel_err2=[1.0, 0.25])
    path = tmp_path / "iters.csv"
    log.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,rel_err1,rel_err2"
    assert lines[1].startswith("1,1.0")
    assert len(lines) == 3


def test_warm_start_resumes():
    rng = np.random.default_rng(21)
    system = random_system(rng, n=30, m=6)
    # max_iter stops the first call well short of tol, so the second call
    # has a real resume to do and the two errors are above roundoff
    params = AHParams(r=stable_step(system), s=1.0, tol=1e-12, max_iter=100)
    x1, lam1, log1 = arrow_hurwicz(system, params)
    assert not log1.converged
    x2, lam2, _ = arrow_hurwicz(system, params, start=(x1, lam1))
    xd, _, _ = direct_solve(system)
    assert np.linalg.norm(x2 - xd) < np.linalg.norm(x1 - xd)
