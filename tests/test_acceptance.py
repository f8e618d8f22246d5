"""Acceptance gate: one pass/fail line per criterion.

Each test prints exactly one line "ACCEPTANCE n: PASS/FAIL - summary" on
stdout (run pytest with -s or rely on captured output in the report) and
then asserts, so a red criterion still reports its line.
"""

import time

import numpy as np
import pytest

import speclap as sp
from speclap import kway

from conftest import (
    A5,
    G1_BIPARTITION,
    L1BAR,
    L1BAR_EIGENVALUES,
    L2BAR,
    L2BAR_EIGENVALUES,
    L5,
    W4,
    complete,
    g1_signed,
    g2_signed,
    random_connected,
    random_orthonormal,
    ring,
    w1_graph,
)
from test_kway import GOLD_4WAY, ZQ_REF_5, set_partitions


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # warm the numeric kernels so timed sections measure steady state
    sp.sym_eigen(np.eye(4))
    sp.svd(np.eye(3))
    sp.cluster(ring(5), 2, mode="ncut")


def report(num, label, errors, elapsed, limit):
    status = "PASS" if not errors else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {label} "
          f"[{elapsed:.3f}s, limit {limit:.3f}s]")
    assert elapsed < limit, f"criterion {num} exceeded time limit: {elapsed:.3f}s"
    assert not errors, f"criterion {num}: " + "; ".join(errors)


def ensure(errors, cond, msg):
    if not cond:
        errors.append(msg)


def test_acceptance_1_golden_laplacians():
    errors = []
    t0 = time.perf_counter()
    L = sp.laplacian(sp.Graph(A5), "unnormalized").M
    t_first = time.perf_counter() - t0
    ensure(errors, np.array_equal(L, L5), "5-node Laplacian mismatch")
    t0 = time.perf_counter()
    Lbar = sp.laplacian(g1_signed(), "signed_unnormalized").M
    t_second = time.perf_counter() - t0
    ensure(errors, np.array_equal(Lbar, L1BAR), "signed 9-node Laplacian mismatch")
    t0 = time.perf_counter()
    g4 = sp.Graph(W4)
    B = sp.incidence_matrix(sp.orient(g4)).B
    D = np.diag(sp.degree_vector(g4))
    ensure(errors, np.max(np.abs(B @ B.T - (D - W4))) < 1e-12,
           "B B^T != D - W for the 4-node graph")
    t_third = time.perf_counter() - t0
    elapsed = max(t_first, t_second, t_third)
    report(1, "golden Laplacian matrices reproduced exactly", errors, elapsed, 0.001)


def test_acceptance_2_golden_spectra():
    errors = []
    t0 = time.perf_counter()
    v1 = sp.sym_eigen(L1BAR).values
    ensure(errors, np.allclose(v1, L1BAR_EIGENVALUES, atol=5e-4),
           "balanced signed spectrum off")
    v2 = sp.sym_eigen(L2BAR).values
    ensure(errors, np.allclose(v2, L2BAR_EIGENVALUES, atol=5e-4),
           "unbalanced signed spectrum off")
    ensure(errors, np.all(v2 > 0), "unbalanced spectrum not positive definite")
    vr = sp.sym_eigen(sp.laplacian(ring(12), "unnormalized").M).values
    ensure(errors, abs(vr[1] - 0.2679) < 5e-4, "ring lambda_2 off")
    ensure(errors, abs(vr[2] - vr[1]) < 1e-9 and vr[3] > vr[2] + 1e-6,
           "ring lambda_2 multiplicity not 2")
    k12 = complete(12)
    vs = sp.sym_eigen(sp.laplacian(k12, "sym").M).values
    ensure(errors, np.sum(np.abs(vs - 12.0 / 11.0) < 1e-8) == 11,
           "complete-graph normalized eigenvalue multiplicity not 11")
    B = sp.incidence_matrix(sp.orient(k12)).B
    Bsym = B / np.sqrt(sp.degree_vector(k12))[:, None]
    s = sp.svd(Bsym).S
    ensure(errors, np.sum(np.abs(s - 1.0445) < 5e-4) == 11,
           "normalized incidence singular value multiplicity not 11")
    elapsed = time.perf_counter() - t0
    report(2, "golden spectra within tolerance", errors, elapsed, 1.0)


def test_acceptance_3_kway_golden_run():
    errors = []
    t0 = time.perf_counter()
    res = sp.cluster(w1_graph(), 4, mode="ncut")
    got = {frozenset(b.members) for b in res.partition}
    ensure(errors, got == GOLD_4WAY, f"4-way partition mismatch: {got}")
    ensure(errors, res.iterations == 3,
           f"expected exactly 3 alternation rounds, got {res.iterations} "
           "(deterministic candidate selection reaches the same partition "
           "in fewer rounds)")
    X5 = sp.podx(ZQ_REF_5)
    ensure(errors, tuple(X5.assignment) == (2, 3, 1, 2, 0, 0, 4, 4, 0),
           f"5-way zero-column repair mismatch: {tuple(X5.assignment)}")
    elapsed = time.perf_counter() - t0
    report(3, "4-way golden partition and 5-way column repair", errors, elapsed, 1.0)


def test_acceptance_4_signed_clustering():
    errors = []
    t0 = time.perf_counter()
    g = g1_signed()
    res = sp.cluster(g, 2, mode="signed_ncut")
    got = {frozenset(b.members) for b in res.partition}
    want = {frozenset(G1_BIPARTITION[0]), frozenset(G1_BIPARTITION[1])}
    ensure(errors, got == want, f"signed bipartition mismatch: {got}")
    rep = sp.is_balanced(g)
    ensure(errors, rep.balanced, "balance check failed")
    pos = frozenset(i + 1 for i, s in enumerate(rep.bipartition) if s > 0)
    ensure(errors, pos in want, "balance bipartition differs from clustering")
    elapsed = time.perf_counter() - t0
    report(4, "signed 2-way clustering recovers the bipartition", errors, elapsed, 0.1)


def test_acceptance_5_brute_force_suite():
    errors = []
    rng = np.random.default_rng(5)
    gaps = []
    t0 = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(4, 10))
        K = int(rng.integers(2, 4))
        g = random_connected(rng, n)
        nu = sp.sym_eigen(sp.laplacian(g, "sym").M).values
        best = min(
            sp.objective(g, [[i + 1 for i in b] for b in part], "ncut")
            for part in set_partitions(n, K))
        ensure(errors, best >= nu[:K].sum() - 1e-9,
               f"trial {trial}: relaxation not a lower bound")
        res = sp.cluster(g, K, mode="ncut")
        ensure(errors, res.objective >= best - 1e-9,
               f"trial {trial}: discrete objective below exhaustive optimum")
        gaps.append(res.objective - best)
    elapsed = time.perf_counter() - t0
    print(f"\n  optimality gap over 50 graphs: max {max(gaps):.4f}, "
          f"mean {np.mean(gaps):.4f}, exact in {sum(g < 1e-9 for g in gaps)}/50")
    report(5, "relaxation lower bound and logged optimality gap (50 graphs)",
           errors, elapsed, 120.0)


def test_acceptance_6_procrustes_oracles():
    errors = []
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    for trial in range(100):
        k = int(rng.integers(2, 5))
        A = rng.standard_normal((k, k))
        res = sp.svd(A)
        best_trace = float(np.trace(res.V @ res.U.T @ A))
        if abs(best_trace - res.S.sum()) > 1e-8 * max(res.S.sum(), 1.0):
            errors.append(f"trial {trial}: trace at optimum != singular value sum")
        X = rng.standard_normal((7, k))
        Z = rng.standard_normal((7, k))
        Q = sp.podr(X, Z)
        base = np.linalg.norm(X - Z @ Q.R)
        if np.linalg.norm(X - Z @ Q.Q) > base + 1e-12:
            errors.append(f"trial {trial}: diagonal stage worsened the fit")
        samples = rng.standard_normal((1000, k, k))
        for M in samples:
            Qr = np.linalg.qr(M)[0]
            if float(np.trace(Qr @ A)) > best_trace + 1e-9:
                errors.append(f"trial {trial}: random rotation beat trace optimum")
                break
            if base > np.linalg.norm(X - Z @ Qr) + 1e-9:
                errors.append(f"trial {trial}: random rotation beat Procrustes fit")
                break
    # closed-form diagonal vs grid search on random 5x3 instances
    grid = np.linspace(-2.0, 2.0, 41)
    for trial in range(5):
        Z = rng.standard_normal((5, 3))
        X = rng.standard_normal((5, 3))
        lam = np.array([(Z[:, j] @ X[:, j]) / (Z[:, j] @ Z[:, j]) for j in range(3)])
        best = np.linalg.norm(X - Z * lam[None, :]) ** 2
        col = [np.sum((X[:, j][:, None] - np.outer(Z[:, j], grid)) ** 2, axis=0)
               for j in range(3)]
        grid_best = sum(c.min() for c in col)
        if best > grid_best + 1e-9:
            errors.append(f"grid trial {trial}: grid beat the closed form")
    # printed rank-deficient instance: diagonal stage must fall back
    Xc = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    Zc = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]])
    ensure(errors, np.array_equal(sp.podr(Xc, Zc).Lambda, np.eye(2)),
           "rank-deficient instance did not trigger the identity fallback")
    elapsed = time.perf_counter() - t0
    report(6, "rotation/diagonal optimality oracles (100 instances x 1000 rotations)",
           errors, elapsed, 60.0)


def test_acceptance_7_structural_suites():
    errors = []
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(3, 9))
        signed = bool(rng.random() < 0.5)
        parts = int(rng.integers(1, 3))
        if parts == 1:
            g = random_connected(rng, n, signed=signed)
        else:
            n2 = int(rng.integers(2, 5))
            W = np.zeros((n + n2, n + n2))
            W[:n, :n] = random_connected(rng, n, signed=signed).W
            W[n:, n:] = random_connected(rng, n2, signed=signed).W
            g = sp.Graph(W)
        N = g.m
        x = rng.standard_normal(N)
        kind = "signed_unnormalized" if signed else "unnormalized"
        M = sp.laplacian(g, kind).M
        if abs(sp.quadratic_form(g, x, signed=signed) - float(x @ M @ x)) > 1e-8:
            errors.append(f"trial {trial}: quadratic form identity")
        if not signed and sp.kernel_dimension(sp.laplacian(g, "unnormalized")) != \
                sp.connected_components(g)[1]:
            errors.append(f"trial {trial}: kernel dimension != component count")
        R = random_orthonormal(rng, N, 2)
        if abs(sp.energy(g, R, signed=signed) - float(np.trace(R.T @ M @ R))) > 1e-8:
            errors.append(f"trial {trial}: energy trace identity")
        eig = sp.sym_eigen(M)
        quot = np.array([sp.rayleigh(M, rng.standard_normal(N)) for _ in range(20)])
        if quot.min() < eig.values[0] - 1e-9 or quot.max() > eig.values[-1] + 1e-9:
            errors.append(f"trial {trial}: Rayleigh-Ritz bounds")
        k = int(rng.integers(1, N))
        mu = sp.sym_eigen(R.T @ M @ R).values if k == 2 else None
        if mu is not None:
            for i in range(2):
                if not (eig.values[i] - 1e-9 <= mu[i] <= eig.values[N - 2 + i] + 1e-9):
                    errors.append(f"trial {trial}: Poincare interlacing")
                    break
        if parts == 1:
            if not signed:
                vs = sp.sym_eigen(sp.laplacian(g, "sym").M).values
                vr = np.sort(np.linalg.eigvals(sp.laplacian(g, "rw").M).real)
                if not np.allclose(vs, vr, atol=1e-8):
                    errors.append(f"trial {trial}: sym/rw spectra differ")
                if vs[0] < -1e-10 or vs[-1] > 2 + 1e-10:
                    errors.append(f"trial {trial}: normalized spectrum outside [0,2]")
                dm = sp.spectral_drawing(g, 2) if N >= 3 else None
                if dm is not None:
                    ones = np.ones((N, 1)) / np.sqrt(N)
                    Mr = rng.standard_normal((N, 2))
                    Mr -= ones @ (ones.T @ Mr)
                    Qr = np.linalg.qr(Mr)[0][:, :2]
                    if sp.energy(g, dm) > sp.energy(g, Qr) + 1e-9:
                        errors.append(f"trial {trial}: drawing not optimal")
            else:
                rep = sp.is_balanced(g)
                smallest = sp.sym_eigen(M).values[0]
                if rep.balanced != (smallest < 1e-8):
                    errors.append(f"trial {trial}: balance vs kernel mismatch")
                if rep.balanced:
                    gu, X = sp.unsign_conjugation(g, rep.bipartition)
                    vu = sp.sym_eigen(sp.laplacian(gu, "unnormalized").M).values
                    if not np.allclose(sp.sym_eigen(M).values, vu, atol=1e-8):
                        errors.append(f"trial {trial}: conjugation spectrum mismatch")
    elapsed = time.perf_counter() - t0
    report(7, "structural invariant suites on 200 randomized graphs",
           errors, elapsed, 120.0)


def test_acceptance_8_figures_by_energy():
    errors = []
    t0 = time.perf_counter()
    dm = sp.spectral_drawing(ring(12), 2)
    ensure(errors, abs(sp.energy(ring(12), dm) - 0.5359) < 5e-4,
           "ring drawing energy off")
    P = dm.R
    dists = [np.linalg.norm(P[i] - P[(i + 1) % 12]) for i in range(12)]
    ensure(errors, np.allclose(dists, dists[0], atol=1e-6),
           "ring drawing not a regular polygon")
    g2 = g2_signed()
    dm2 = sp.signed_drawing(g2, 2)
    ensure(errors, abs(sp.energy(g2, dm2, signed=True) - (0.5175 + 1.5016)) < 5e-3,
           "unbalanced signed drawing energy off")
    g1 = g1_signed()
    dmb = sp.signed_drawing(g1, 2, bipartite=True)
    first = dmb.R[:, 0]
    pos = {i + 1 for i in range(9) if first[i] > 0}
    ensure(errors, pos in (G1_BIPARTITION[0], G1_BIPARTITION[1]),
           "bipartite drawing does not separate the bipartition")
    neg7 = sp.Graph(-ring(7).W)
    dm7 = sp.signed_drawing(neg7, 2)
    ensure(errors, all(float(dm7.R[i - 1] @ dm7.R[j - 1]) < 0
                       for i, j, _ in sp.orient(neg7).edges),
           "all-negative cycle neighbors not separated")
    elapsed = time.perf_counter() - t0
    report(8, "qualitative figures validated through energies and invariants",
           errors, elapsed, 10.0)
