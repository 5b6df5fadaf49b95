"""Parameter recovery from drift data.

The package's forward map (the process matrix in `gksl.drift`) is pinned
against the structure-constant oracles: `drift_reference`, the dense
blocks T1 and T3 and the stacked map M.  The closed-form inverses are
pinned against dense solves with M (general) and against least squares
through T3 and T1 (symmetric).  The symmetric route's 'gamma-only' status
is reached both with honest data (a rotation outside the range of T1 from
two qubits on) and by zeroing structure constants.
"""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsident import (
    GkslParams,
    assemble_system,
    build_basis,
    build_reconstruction_matrices,
    error_bound,
    reconstruct_general,
    reconstruct_symmetric,
    structure_constants,
)
from oqsident.gksl import drift
from oqsident.paramrec import _m_singular_values
from oracles import (
    drift_reference,
    f_dense,
    stacked_map,
    symmetric_lstsq_reference,
    t1_block,
    t3_block,
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


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_forward_map_matches_assembled_system(num_qubits):
    basis, tensors, mats = setup(num_qubits)
    rng = np.random.default_rng(303 + num_qubits)
    n = basis.n
    theta = rng.normal(size=n)
    gamma = random_hermitian(rng, n)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    M = stacked_map(tensors, basis.dim)
    y = np.concatenate([theta.astype(complex), gamma.reshape(-1)])
    out = M @ y
    assert np.allclose(out[: n * n].real, sys.A.reshape(-1), atol=1e-12)
    assert np.allclose(out[: n * n].imag, 0.0, atol=1e-12)
    assert np.allclose(out[n * n :].real, sys.beta, atol=1e-12)
    assert np.allclose(out[n * n :].imag, 0.0, atol=1e-12)
    # block identities
    assert np.allclose(t1_block(tensors) @ theta, sys.A_l.reshape(-1), atol=1e-12)
    T2 = M[: n * n, n:]
    assert np.allclose((T2 @ gamma.reshape(-1)).real, sys.A_d.reshape(-1), atol=1e-12)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_build_matches_einsum_formulas(num_qubits):
    # the oracle blocks written as the module docstring states them,
    # contracted term by term, and the stack G the inverses run through
    basis, tensors, mats = setup(num_qubits)
    n = basis.n
    f = f_dense(tensors)
    T2t = -(0.5 * np.einsum("jmp,klp->jklm", f, f)).reshape(n * n, n * n)
    T3 = np.column_stack([
        T2t[:, j * n + k] + (T2t[:, k * n + j] if j != k else 0.0)
        for j, k in zip(*np.triu_indices(n))
    ])
    assert np.array_equal(t1_block(tensors), -f.reshape(n * n, n))
    assert np.array_equal(t3_block(tensors), T3)
    G = np.concatenate([basis.identity[None], basis.generators])
    assert np.array_equal(mats.G, G)
    assert mats.f_ind is tensors.f_ind and mats.f_val is tensors.f_val


@settings(max_examples=30, deadline=None)
@given(
    num_qubits=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 3.0),
)
def test_forward_map_matches_structure_constant_oracles(num_qubits, seed, scale):
    # the process-matrix forward map against the f/z contraction it
    # replaced and, where M fits in memory, against M itself
    basis = build_basis(num_qubits)
    tensors = structure_constants(basis)
    rng = np.random.default_rng(seed)
    n = basis.n
    theta = scale * rng.normal(size=n)
    gamma = random_hermitian(rng, n, scale=scale)
    got = drift(basis.generators, tensors.f_ind, tensors.f_val, theta, gamma)
    ref = drift_reference(tensors, basis.dim, theta, gamma)
    tol = 1e-14 * n * (1.0 + scale)
    assert np.array_equal(got[0], ref[0])  # A_l: one product per entry either way
    assert np.max(np.abs(got[1] - ref[1])) <= tol
    assert np.max(np.abs(got[2] - ref[2])) <= tol
    if num_qubits <= 2:
        y = np.concatenate([theta.astype(complex), gamma.reshape(-1)])
        out = stacked_map(tensors, basis.dim) @ y
        assert np.max(np.abs(out[: n * n] - (got[0] + got[1]).reshape(-1))) <= tol
        assert np.max(np.abs(out[n * n :] - got[2])) <= tol


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_m_singular_values_closed_form(num_qubits):
    # the full multiset, multiplicities included, against a dense SVD of
    # the oracle M; kappa is np.linalg.cond(M) to 1e-12 relative
    basis, tensors, mats = setup(num_qubits, symmetric=False)
    M = stacked_map(tensors, basis.dim)
    dense = np.linalg.svd(M, compute_uv=False)
    values, counts = _m_singular_values(basis.dim)
    closed = np.sort(np.repeat(values, counts))[::-1]
    assert closed.shape == dense.shape
    assert np.allclose(closed, dense, rtol=0.0, atol=1e-13 * dense[0])
    rng = np.random.default_rng(311)
    n = basis.n
    params = GkslParams(theta=rng.normal(size=n), gamma=random_hermitian(rng, n))
    sys = assemble_system(basis, tensors, params)
    rec = reconstruct_general(sys.A, sys.beta, mats)
    assert rec.kappa == pytest.approx(np.linalg.cond(M), rel=1e-12, abs=0.0)
    assert rec.kappa == pytest.approx({1: 2.0, 2: 7.601637190691}[num_qubits], rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    num_qubits=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 3.0),
)
def test_general_inverse_matches_dense_solve(num_qubits, seed, scale):
    # random physical generators: real theta, Hermitian PSD gamma
    basis, tensors, mats = setup(num_qubits, symmetric=False)
    rng = np.random.default_rng(seed)
    n = basis.n
    theta = scale * rng.normal(size=n)
    gamma = random_hermitian(rng, n, scale=scale)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    rec = reconstruct_general(sys.A, sys.beta, mats)
    assert rec.status == "full"
    assert np.max(np.abs(rec.theta - theta)) <= 1e-12
    assert np.max(np.abs(rec.gamma - gamma)) <= 1e-12
    rhs = np.concatenate([sys.A.reshape(-1), sys.beta]).astype(complex)
    y = np.linalg.solve(stacked_map(tensors, basis.dim), rhs)
    assert np.max(np.abs(rec.theta - y[:n])) <= 1e-13
    assert np.max(np.abs(rec.gamma - y[n:].reshape(n, n))) <= 1e-13


def _round_trip_four_qubits(symmetric):
    # M would have (255^2 + 255)^2 complex entries (68 GB) and T3 255^2 x
    # 32640 real ones (17 GB); the forward map and both inverses need only
    # the (256, 16, 16) stack G
    tracemalloc.start()
    try:
        basis, tensors, mats = setup(4, general=not symmetric, symmetric=symmetric)
        assert mats.G.shape == (256, 16, 16)
        rng = np.random.default_rng(401)
        n = basis.n
        theta = rng.normal(size=n)
        if symmetric:
            params = GkslParams(theta=theta, gamma=random_symmetric(rng, n), symmetric=True)
        else:
            params = GkslParams(theta=theta, gamma=random_hermitian(rng, n))
        sys = assemble_system(basis, tensors, params)
        if symmetric:
            rec = reconstruct_symmetric(sys.A, mats)
        else:
            rec = reconstruct_general(sys.A, sys.beta, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300e6, f"peak traced allocation {peak / 1e6:.0f} MB"
    assert rec.status == "full"
    assert np.max(np.abs(rec.theta - params.theta)) <= 1e-12
    assert np.max(np.abs(rec.gamma - params.gamma)) <= 1e-12
    assert rec.residual_A < 1e-10
    return rec


def test_general_round_trip_four_qubits():
    rec = _round_trip_four_qubits(symmetric=False)
    assert rec.residual_beta < 1e-10
    assert rec.kappa == pytest.approx(63.7651, rel=1e-5)


def test_symmetric_round_trip_four_qubits():
    _round_trip_four_qubits(symmetric=True)


def test_general_rejects_wrong_shapes():
    _, _, mats = setup(1, symmetric=False)
    with pytest.raises(ValueError, match=r"beta of shape \(3,\)"):
        reconstruct_general(np.zeros((3, 3)), 0.5, mats)
    with pytest.raises(ValueError, match=r"A of shape \(3, 3\)"):
        reconstruct_general(np.zeros((4, 4)), np.zeros(3), mats)


def test_t3_matches_symmetric_dissipator():
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(307)
    gamma = random_symmetric(rng, basis.n)
    sys = assemble_system(
        basis, tensors,
        GkslParams(theta=np.zeros(basis.n), gamma=gamma, symmetric=True),
    )
    packed = gamma[np.triu_indices(basis.n)]
    assert np.allclose(t3_block(tensors) @ packed, sys.A_d.reshape(-1), atol=1e-12)


def test_matrix_shapes_and_ranks():
    _, tensors1, mats1 = setup(1)
    T1, T3 = t1_block(tensors1), t3_block(tensors1)
    assert T1.shape == (9, 3)
    assert np.linalg.matrix_rank(T1) == 3
    assert T3.shape == (9, 6)
    assert np.linalg.matrix_rank(T3) == 6
    assert mats1.G.shape == (4, 2, 2)
    for dense in ("M", "T1", "T2", "T3", "tensors"):
        assert not hasattr(mats1, dense)
    _, tensors2, mats2 = setup(2, general=False)
    T3 = t3_block(tensors2)
    assert T3.shape == (225, 120)
    assert np.linalg.matrix_rank(T3) == 120
    assert mats2.G.shape == (16, 4, 4)  # both routes run through G


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
    T1 = t1_block(tensors)
    span = T1 @ np.linalg.lstsq(T1, R.reshape(-1), rcond=None)[0]
    assert np.linalg.norm(span - R.reshape(-1)) > 1e-3  # genuinely outside
    rec = reconstruct_symmetric(sys.A + R, mats)
    assert rec.status == "gamma-only"
    assert rec.theta is None
    assert np.allclose(rec.gamma, gamma, atol=1e-9)
    assert rec.notes == ["antisymmetric part outside the range of T1"]


def test_symmetric_gamma_only_with_broken_structure_constants():
    # zeroing every f_jk0 (the column T1[:, 0]) makes the Hamiltonian
    # block's forward residual fail while gamma stays recoverable
    basis, tensors, mats = setup(1)
    broken = copy.copy(mats)
    broken.f_val = np.where(mats.f_ind[:, 2] == 0, 0.0, mats.f_val)
    rng = np.random.default_rng(349)
    gamma = random_symmetric(rng, 3)
    sys = assemble_system(
        basis, tensors,
        GkslParams(theta=np.array([1.0, 0.5, -0.3]), gamma=gamma, symmetric=True),
    )
    rec = reconstruct_symmetric(sys.A, broken)
    assert rec.status == "gamma-only"
    assert rec.theta is None
    assert np.allclose(rec.gamma, gamma, atol=1e-10)


def test_symmetric_requires_symmetric_blocks():
    _, _, mats = setup(1, symmetric=False)
    with pytest.raises(ValueError):
        reconstruct_symmetric(np.zeros((3, 3)), mats)


def _antisymmetric_outside_t1(rng, tensors, scale):
    # a random antisymmetric matrix with its T1 component removed; at one
    # qubit T1 spans every antisymmetric matrix and this is zero
    n = tensors.n
    R = rng.normal(size=(n, n))
    R = R - R.T
    T1 = t1_block(tensors)
    r = R.reshape(-1) - T1 @ np.linalg.lstsq(T1, R.reshape(-1), rcond=None)[0]
    return scale * r.reshape(n, n)


def _check_symmetric_parity(num_qubits, seed, scale):
    basis = build_basis(num_qubits)
    tensors = structure_constants(basis)
    mats = build_reconstruction_matrices(tensors, basis.dim, general=False)
    rng = np.random.default_rng(seed)
    n = basis.n
    theta = rng.normal(size=n)
    gamma = random_symmetric(rng, n)
    A = assemble_system(
        basis, tensors, GkslParams(theta=theta, gamma=gamma, symmetric=True)
    ).A
    outside = _antisymmetric_outside_t1(rng, tensors, scale)
    cases = [A, A + 1e-6 * rng.normal(size=(n, n)), A + outside]
    for A_i, (status, th, gm) in zip(cases, symmetric_lstsq_reference(tensors, cases)):
        rec = reconstruct_symmetric(A_i, mats)
        assert rec.status == status
        assert np.max(np.abs(rec.gamma - gm)) <= 1e-13
        if th is not None:
            assert np.max(np.abs(rec.theta - th)) <= 1e-13
    if num_qubits > 1:
        assert status == "gamma-only"


@settings(max_examples=25, deadline=None)
@given(num_qubits=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1.0))
def test_symmetric_matches_lstsq_oracle(num_qubits, seed, scale):
    # status, theta and gamma equal least squares through T3 and T1: on
    # exact data, with noise on A, and with an antisymmetric component
    # outside range(T1) added (gamma-only from two qubits on)
    _check_symmetric_parity(num_qubits, seed, scale)


@settings(max_examples=1, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1.0))
def test_symmetric_matches_lstsq_oracle_three_qubits(seed, scale):
    # one example: the oracle's lstsq on the 3969 x 2016 T3 takes seconds
    _check_symmetric_parity(3, seed, scale)


def test_error_bound_pure_rhs_perturbation():
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(353)
    theta = rng.normal(size=3)
    gamma = random_hermitian(rng, 3)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    M = stacked_map(tensors, basis.dim)
    s = np.linalg.svd(M, compute_uv=False)
    delta = 1e-6
    bound = error_bound(mats, 0.0, sys.A, delta, beta=sys.beta)
    assert bound == pytest.approx(delta / s[-1])
    # Monte-Carlo: perturb the right-hand side within the budget
    rhs = np.concatenate([sys.A.reshape(-1), sys.beta]).astype(complex)
    y = np.linalg.solve(M, rhs)
    for _ in range(20):
        d = rng.normal(size=12)
        d = delta * d / np.linalg.norm(d)
        yt = np.linalg.solve(M, rhs + d)
        assert np.linalg.norm(y - yt) <= bound * (1.0 + 1e-12)


def test_error_bound_with_matrix_perturbation():
    basis, tensors, mats = setup(1)
    rng = np.random.default_rng(359)
    theta = rng.normal(size=3)
    gamma = random_hermitian(rng, 3)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    M = stacked_map(tensors, basis.dim)
    rhs = np.concatenate([sys.A.reshape(-1), sys.beta]).astype(complex)
    y = np.linalg.solve(M, rhs)
    dM_norm, dr_norm = 1e-8, 1e-8
    bound = error_bound(mats, dM_norm, sys.A, dr_norm, beta=sys.beta)
    assert np.isfinite(bound)
    for _ in range(20):
        dM = rng.normal(size=(12, 12))
        dM = dM_norm * dM / np.linalg.norm(dM, 2)
        d = rng.normal(size=12)
        d = dr_norm * d / np.linalg.norm(d)
        yt = np.linalg.solve(M + dM, rhs + d)
        assert np.linalg.norm(y - yt) <= bound


def test_error_bound_vacuous_when_perturbation_dominates():
    _, tensors, mats = setup(1)
    norm_M = np.linalg.norm(stacked_map(tensors, mats.N), 2)
    bound = error_bound(mats, norm_M, np.eye(3), 1e-3)
    assert bound == float("inf")


def test_error_bound_requires_general_blocks():
    _, _, mats = setup(1, general=False)
    with pytest.raises(ValueError):
        error_bound(mats, 0.0, np.zeros((3, 3)), 1e-6)
