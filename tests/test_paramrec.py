"""Parameter recovery from drift data.

The forward maps (T1, T2, T3, M) are pinned against the independently
assembled system matrices from gksl, so the two contraction routes
cross-check each other. Degraded branches that cannot be reached with
honest su(2^q) data (the ranges of T1 and T3 cover the respective
subspaces there) are exercised through deliberately truncated matrices;
those tests check branch logic, not physics.
"""

import copy

import numpy as np
import pytest

from oqsident import (
    GammaIndexMap,
    GkslParams,
    assemble_system,
    build_basis,
    build_reconstruction_matrices,
    error_bound,
    reconstruct_general,
    reconstruct_symmetric,
    structure_constants,
)


def random_hermitian(rng, n, scale=0.4):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m @ m.conj().T) / n


def random_symmetric(rng, n, scale=0.4):
    m = rng.normal(size=(n, n))
    return scale * (m @ m.T) / n


def setup(num_qubits, general=True, symmetric=True):
    basis = build_basis(num_qubits)
    tensors = structure_constants(basis)
    mats = build_reconstruction_matrices(
        tensors, basis.dim, general=general, symmetric=symmetric
    )
    return basis, tensors, mats


def test_gamma_index_map():
    idx = GammaIndexMap(3)
    assert idx.pair(5) == (1, 2)
    assert idx.index(1, 2) == 5
    assert idx.sym_pairs() == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert idx.sym_index(1, 1) == 3
    assert idx.sym_index(2, 0) == idx.sym_index(0, 2) == 2
    rng = np.random.default_rng(301)
    g = random_symmetric(rng, 3)
    assert np.allclose(idx.expand_sym(idx.pack_sym(g)), g, atol=0.0)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_forward_map_matches_assembled_system(num_qubits):
    basis, tensors, mats = setup(num_qubits)
    rng = np.random.default_rng(303 + num_qubits)
    n = basis.n
    theta = rng.normal(size=n)
    gamma = random_hermitian(rng, n)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    y = np.concatenate([theta.astype(complex), gamma.reshape(-1)])
    out = mats.M @ y
    assert np.allclose(out[: n * n].real, sys.A.reshape(-1), atol=1e-12)
    assert np.allclose(out[: n * n].imag, 0.0, atol=1e-12)
    assert np.allclose(out[n * n :].real, sys.beta, atol=1e-12)
    assert np.allclose(out[n * n :].imag, 0.0, atol=1e-12)
    # block identities
    assert np.allclose(mats.T1 @ theta, sys.A_l.reshape(-1), atol=1e-12)
    assert np.allclose((mats.T2 @ gamma.reshape(-1)).real, sys.A_d.reshape(-1),
                       atol=1e-12)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_build_matches_einsum_formulas(num_qubits):
    # the blocks written as the module docstring states them, contracted
    # term by term; the build must reproduce them exactly
    basis, tensors, mats = setup(num_qubits)
    n, N = basis.n, basis.dim
    f, z = tensors.f_dense(), tensors.z_dense()
    D = 0.25 * (np.einsum("lpk,jmp->jklm", z, f)
                + np.einsum("mpk,jlp->jklm", z.conj(), f))
    T2 = -D.reshape(n * n, n * n)
    M = np.zeros((n * n + n, n + n * n), dtype=complex)
    M[: n * n, :n] = mats.T1
    M[: n * n, n:] = T2
    M[n * n :, n:] = -(1j / N) * mats.T1.T
    T2t = -(0.5 * np.einsum("jmp,klp->jklm", f, f)).reshape(n * n, n * n)
    idx = GammaIndexMap(n)
    T3 = np.column_stack([
        T2t[:, idx.index(j, k)] + (T2t[:, idx.index(k, j)] if j != k else 0.0)
        for j, k in idx.sym_pairs()
    ])
    assert np.array_equal(mats.T1, -f.reshape(n * n, n))
    assert np.array_equal(mats.T2, T2)
    assert np.array_equal(mats.M, M)
    assert np.array_equal(mats.T3, T3)


def test_general_factors_are_lazy_and_reused():
    basis, tensors, mats = setup(2, symmetric=False)
    assert "M_singular_values" not in vars(mats)
    assert "M_lu" not in vars(mats)
    rng = np.random.default_rng(311)
    n = basis.n
    params = GkslParams(theta=rng.normal(size=n), gamma=random_hermitian(rng, n))
    sys = assemble_system(basis, tensors, params)
    first = reconstruct_general(sys.A, sys.beta, mats)
    s, lu = mats.M_singular_values, mats.M_lu
    second = reconstruct_general(sys.A, sys.beta, mats)
    assert first.status == second.status == "full"
    assert first.kappa == second.kappa == np.linalg.cond(mats.M)
    assert np.array_equal(first.theta, second.theta)
    assert np.array_equal(first.gamma, second.gamma)
    assert mats.M_singular_values is s and mats.M_lu is lu


def test_t3_matches_symmetric_dissipator():
    basis, tensors, mats = setup(1)
    idx = GammaIndexMap(basis.n)
    rng = np.random.default_rng(307)
    gamma = random_symmetric(rng, basis.n)
    sys = assemble_system(
        basis, tensors,
        GkslParams(theta=np.zeros(basis.n), gamma=gamma, symmetric=True),
    )
    assert np.allclose(mats.T3 @ idx.pack_sym(gamma), sys.A_d.reshape(-1),
                       atol=1e-12)


def test_matrix_shapes_and_ranks():
    _, _, mats1 = setup(1)
    assert mats1.T1.shape == (9, 3)
    assert np.linalg.matrix_rank(mats1.T1) == 3
    assert mats1.T3.shape == (9, 6)
    assert np.linalg.matrix_rank(mats1.T3) == 6
    assert mats1.M.shape == (12, 12)
    _, _, mats2 = setup(2, general=False)
    assert mats2.T3.shape == (225, 120)
    assert np.linalg.matrix_rank(mats2.T3) == 120
    assert mats2.T2 is None and mats2.M is None


def test_general_round_trip():
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(311)
    for _ in range(10):
        theta = rng.normal(size=3)
        gamma = random_hermitian(rng, 3)
        sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
        rec = reconstruct_general(sys.A, sys.beta, mats)
        assert rec.status == "full"
        assert np.allclose(rec.theta, theta, atol=1e-10)
        assert np.allclose(rec.gamma, gamma, atol=1e-10)
        assert rec.residual_A < 1e-10
        assert rec.residual_beta < 1e-10
        assert rec.hermiticity_defect < 1e-10
        assert 1.9 < rec.kappa < 2.1
        assert rec.notes == []


def test_general_round_trip_two_qubits():
    basis, tensors, mats = setup(2)
    rng = np.random.default_rng(313)
    theta = rng.normal(size=15)
    gamma = random_hermitian(rng, 15)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    rec = reconstruct_general(sys.A, sys.beta, mats)
    assert rec.status == "full"
    assert np.allclose(rec.theta, theta, atol=1e-9)
    assert np.allclose(rec.gamma, gamma, atol=1e-9)


def test_general_condition_cap_falls_back_to_beta():
    # kappa(M) is about 2, so a cap below that forces the degraded route;
    # the minimum-norm gamma must still reproduce beta exactly even
    # though it cannot match the ground-truth gamma
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(317)
    theta = rng.normal(size=3)
    gamma = random_hermitian(rng, 3)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    rec = reconstruct_general(sys.A, sys.beta, mats, cond_cap=1.5)
    assert rec.status == "gamma-only"
    assert rec.theta is None
    assert rec.residual_beta < 1e-10
    assert np.allclose(rec.gamma, rec.gamma.conj().T, atol=1e-12)
    assert any("condition number" in note for note in rec.notes)
    assert any("minimum-norm" in note for note in rec.notes)


def test_general_not_recoverable_with_broken_t1():
    basis, tensors, mats = setup(1)
    broken = copy.copy(mats)
    broken.T1 = mats.T1.copy()
    broken.T1[:, 0] = 0.0  # drop to rank 2
    rec = reconstruct_general(np.zeros((3, 3)), np.zeros(3), broken, cond_cap=1.5)
    assert rec.status == "not-recoverable"
    assert any("rank deficient" in note for note in rec.notes)


def test_general_requires_general_blocks():
    _, _, mats = setup(1, general=False)
    with pytest.raises(ValueError):
        reconstruct_general(np.zeros((3, 3)), np.zeros(3), mats)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_symmetric_round_trip(num_qubits):
    basis, tensors, mats = setup(num_qubits, general=False)
    rng = np.random.default_rng(331 + num_qubits)
    n = basis.n
    trials = 10 if num_qubits == 1 else 3
    for _ in range(trials):
        theta = rng.normal(size=n)
        gamma = random_symmetric(rng, n)
        sys = assemble_system(
            basis, tensors, GkslParams(theta=theta, gamma=gamma, symmetric=True)
        )
        rec = reconstruct_symmetric(sys.A, mats)
        assert rec.status == "full"
        assert np.allclose(rec.theta, theta, atol=1e-9)
        assert np.allclose(rec.gamma, gamma, atol=1e-9)
        assert rec.residual_A < 1e-9
        assert rec.hermiticity_defect == 0.0


def test_symmetric_agrees_with_general_on_symmetric_input():
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(337)
    theta = rng.normal(size=3)
    gamma = random_symmetric(rng, 3)
    sys = assemble_system(
        basis, tensors, GkslParams(theta=theta, gamma=gamma, symmetric=True)
    )
    rec_s = reconstruct_symmetric(sys.A, mats)
    rec_g = reconstruct_general(sys.A, sys.beta, mats)
    assert np.allclose(rec_s.theta, rec_g.theta, atol=1e-10)
    assert np.allclose(rec_s.gamma, rec_g.gamma, atol=1e-10)


def test_symmetric_gamma_only_on_nonalgebra_rotation():
    # at two qubits the antisymmetric matrices outnumber the generators,
    # so a generic rotation part falls outside the range of T1 while the
    # dissipative part stays recoverable
    basis, tensors, mats = setup(2, general=False)
    rng = np.random.default_rng(341)
    n = basis.n
    gamma = random_symmetric(rng, n)
    sys = assemble_system(
        basis, tensors,
        GkslParams(theta=np.zeros(n), gamma=gamma, symmetric=True),
    )
    R = rng.normal(size=(n, n))
    R = R - R.T
    span = mats.T1 @ np.linalg.lstsq(mats.T1, R.reshape(-1), rcond=None)[0]
    assert np.linalg.norm(span - R.reshape(-1)) > 1e-3  # genuinely outside
    rec = reconstruct_symmetric(sys.A + R, mats)
    assert rec.status == "gamma-only"
    assert rec.theta is None
    assert np.allclose(rec.gamma, gamma, atol=1e-9)
    assert rec.notes == ["antisymmetric part outside the range of T1"]


def test_symmetric_theta_branches_with_truncated_t3():
    # honest dissipators always live in the range of the full T3, so the
    # theta-only and beta-fallback branches are driven with a clipped T3
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(347)
    theta = rng.normal(size=3)
    gamma = random_symmetric(rng, 3)
    sys = assemble_system(
        basis, tensors, GkslParams(theta=theta, gamma=gamma, symmetric=True)
    )
    clipped = copy.copy(mats)
    clipped.T3 = mats.T3[:, :5]
    rec = reconstruct_symmetric(sys.A, clipped)
    assert rec.status == "theta-only"
    assert np.allclose(rec.theta, theta, atol=1e-10)
    assert rec.gamma is None
    assert rec.notes == ["symmetric part outside the range of T3; no beta supplied"]

    rec_fb = reconstruct_symmetric(sys.A, clipped, beta=sys.beta)
    assert rec_fb.status == "theta-and-beta-gamma"
    assert np.allclose(rec_fb.theta, theta, atol=1e-10)
    assert rec_fb.gamma is not None
    assert rec_fb.residual_beta < 1e-10


def test_symmetric_not_recoverable():
    basis, tensors, mats = setup(1)
    broken = copy.copy(mats)
    broken.T3 = mats.T3[:, :5]
    broken.T1 = mats.T1.copy()
    broken.T1[:, 0] = 0.0
    rng = np.random.default_rng(349)
    gamma = random_symmetric(rng, 3)
    sys = assemble_system(
        basis, tensors,
        GkslParams(theta=np.array([1.0, 0.5, -0.3]), gamma=gamma, symmetric=True),
    )
    rec = reconstruct_symmetric(sys.A, broken)
    assert rec.status == "not-recoverable"
    assert rec.notes == ["no block recoverable"]


def test_symmetric_requires_t3():
    _, _, mats = setup(1, symmetric=False)
    with pytest.raises(ValueError):
        reconstruct_symmetric(np.zeros((3, 3)), mats)


def test_error_bound_pure_rhs_perturbation():
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(353)
    theta = rng.normal(size=3)
    gamma = random_hermitian(rng, 3)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    s = np.linalg.svd(mats.M, compute_uv=False)
    delta = 1e-6
    bound = error_bound(mats, 0.0, sys.A, delta, beta=sys.beta)
    assert bound == pytest.approx(delta / s[-1])
    # Monte-Carlo: perturb the right-hand side within the budget
    rhs = np.concatenate([sys.A.reshape(-1), sys.beta]).astype(complex)
    y = np.linalg.solve(mats.M, rhs)
    for _ in range(20):
        d = rng.normal(size=12)
        d = delta * d / np.linalg.norm(d)
        yt = np.linalg.solve(mats.M, rhs + d)
        assert np.linalg.norm(y - yt) <= bound * (1.0 + 1e-12)


def test_error_bound_with_matrix_perturbation():
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(359)
    theta = rng.normal(size=3)
    gamma = random_hermitian(rng, 3)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    rhs = np.concatenate([sys.A.reshape(-1), sys.beta]).astype(complex)
    y = np.linalg.solve(mats.M, rhs)
    dM_norm, dr_norm = 1e-8, 1e-8
    bound = error_bound(mats, dM_norm, sys.A, dr_norm, beta=sys.beta)
    assert np.isfinite(bound)
    for _ in range(20):
        dM = rng.normal(size=(12, 12))
        dM = dM_norm * dM / np.linalg.norm(dM, 2)
        d = rng.normal(size=12)
        d = dr_norm * d / np.linalg.norm(d)
        yt = np.linalg.solve(mats.M + dM, rhs + d)
        assert np.linalg.norm(y - yt) <= bound


def test_error_bound_vacuous_when_perturbation_dominates():
    _, _, mats = setup(1)
    norm_M = np.linalg.norm(mats.M, 2)
    bound = error_bound(mats, norm_M, np.eye(3), 1e-3)
    assert bound == float("inf")


def test_error_bound_requires_general_blocks():
    _, _, mats = setup(1, general=False)
    with pytest.raises(ValueError):
        error_bound(mats, 0.0, np.zeros((3, 3)), 1e-6)
