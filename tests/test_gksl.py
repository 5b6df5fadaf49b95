"""Master-equation assembly checked against a superoperator oracle.

The oracle path never touches the structure tensors: it builds the
right-hand side directly from H and the gamma matrix acting on a density
matrix, then projects onto the basis. The coherence-vector path must agree.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oqsident import (
    GkslParams,
    assemble_system,
    build_basis,
    coherence_to_rho,
    control_maps,
    embed_standard_form,
    rho_to_coherence,
    structure_constants,
)
from oracles import f_dense


def random_hermitian_gamma(rng, n, scale=0.5):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = m @ m.conj().T
    return scale * g / n


def random_symmetric_gamma(rng, n, scale=0.5):
    m = rng.normal(size=(n, n))
    g = m @ m.T
    return scale * g / n


def random_state(rng, N):
    v = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def gksl_rhs(basis, params, rho, u=None):
    """Direct evaluation of the master equation, no structure tensors."""
    F = basis.generators
    theta = params.theta if u is None else params.theta + u
    H = np.einsum("j,jab->ab", theta, F)
    out = -1j * (H @ rho - rho @ H)
    gamma = params.gamma
    n = basis.n
    for j in range(n):
        for k in range(n):
            if gamma[j, k] == 0.0:
                continue
            FkFj = F[k] @ F[j]
            out = out + gamma[j, k] * (
                F[j] @ rho @ F[k] - 0.5 * (FkFj @ rho + rho @ FkFj)
            )
    return out


def project_traceless(basis, drho):
    """Coherence coordinates of a traceless Hermitian derivative."""
    x = np.einsum("jab,ba->j", basis.generators, drho)
    assert np.max(np.abs(x.imag)) < 1e-12
    return x.real


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_coherence_dynamics_match_direct_rhs(num_qubits):
    basis = build_basis(num_qubits)
    tensors = structure_constants(basis)
    rng = np.random.default_rng(7 + num_qubits)
    n = basis.n
    for trial in range(8):
        theta = rng.normal(size=n)
        gamma = random_hermitian_gamma(rng, n)
        params = GkslParams(theta=theta, gamma=gamma)
        sys = assemble_system(basis, tensors, params)
        rho = random_state(rng, basis.dim)
        x = rho_to_coherence(rho, basis)
        dx_expected = project_traceless(basis, gksl_rhs(basis, params, rho))
        dx = sys.A @ x + sys.beta
        assert np.allclose(dx, dx_expected, atol=1e-12)


def test_control_channels_match_direct_rhs():
    basis = build_basis(1)
    tensors = structure_constants(basis)
    rng = np.random.default_rng(19)
    n = basis.n
    theta = rng.normal(size=n)
    gamma = random_hermitian_gamma(rng, n)
    params = GkslParams(theta=theta, gamma=gamma)
    sys = assemble_system(basis, tensors, params)
    u = rng.normal(size=n)
    rho = random_state(rng, basis.dim)
    x = rho_to_coherence(rho, basis)
    dx_expected = project_traceless(basis, gksl_rhs(basis, params, rho, u=u))
    N_list = control_maps(sys, range(n))
    dx = sys.A @ x + np.einsum("c,cjk,k->j", u, N_list, x) + sys.beta
    assert np.allclose(dx, dx_expected, atol=1e-12)


def test_symmetric_gamma_gives_zero_beta_and_symmetric_drift():
    # beta carries only Im(gamma), so it is exactly zero, not rounding
    rng = np.random.default_rng(31)
    for num_qubits in (1, 2, 3):
        basis = build_basis(num_qubits)
        tensors = structure_constants(basis)
        n = basis.n
        for _ in range(5):
            params = GkslParams(
                theta=rng.normal(size=n),
                gamma=random_symmetric_gamma(rng, n),
                symmetric=True,
            )
            sys = assemble_system(basis, tensors, params)
            assert np.all(sys.beta == 0.0)
            assert np.allclose(sys.A_d, sys.A_d.T, atol=1e-12)


def test_hamiltonian_part_is_antisymmetric():
    basis = build_basis(2)
    tensors = structure_constants(basis)
    rng = np.random.default_rng(37)
    params = GkslParams(
        theta=rng.normal(size=basis.n), gamma=np.zeros((basis.n, basis.n))
    )
    sys = assemble_system(basis, tensors, params)
    assert np.allclose(sys.A_l, -sys.A_l.T, atol=1e-12)
    assert np.allclose(sys.A_d, 0.0, atol=1e-14)
    assert np.allclose(sys.beta, 0.0, atol=1e-14)


def test_coherence_round_trip():
    rng = np.random.default_rng(41)
    for num_qubits in (1, 2):
        basis = build_basis(num_qubits)
        for _ in range(5):
            rho = random_state(rng, basis.dim)
            x = rho_to_coherence(rho, basis)
            back = coherence_to_rho(x, basis)
            assert np.allclose(back, rho, atol=1e-12)
            assert abs(np.trace(back) - 1.0) < 1e-12


def test_rho_to_coherence_rejects_wrong_trace():
    basis = build_basis(1)
    with pytest.raises(ValueError):
        rho_to_coherence(2.0 * np.eye(2, dtype=complex), basis)


def test_observable_rows():
    basis = build_basis(1)
    tensors = structure_constants(basis)
    params = GkslParams(theta=np.array([0.0, 0.0, 1.0]), gamma=np.zeros((3, 3)))
    sz = np.diag([1.0, -1.0]).astype(complex)
    sys = assemble_system(basis, tensors, params, observables=[sz])
    # y = Tr(rho sz) must equal C x for any state
    rng = np.random.default_rng(43)
    for _ in range(5):
        rho = random_state(rng, 2)
        x = rho_to_coherence(rho, basis)
        assert abs((sys.C @ x)[0] - np.trace(rho @ sz).real) < 1e-12


def test_observable_nonzero_trace_warns():
    basis = build_basis(1)
    tensors = structure_constants(basis)
    params = GkslParams(theta=np.zeros(3), gamma=np.zeros((3, 3)))
    proj = np.diag([1.0, 0.0]).astype(complex)  # trace 1
    with pytest.warns(UserWarning):
        assemble_system(basis, tensors, params, observables=[proj])


def test_embedding_reproduces_affine_flow():
    basis = build_basis(1)
    tensors = structure_constants(basis)
    rng = np.random.default_rng(47)
    params = GkslParams(
        theta=rng.normal(size=3), gamma=random_hermitian_gamma(rng, 3)
    )
    sys = assemble_system(basis, tensors, params)
    emb = embed_standard_form(sys)
    x = rng.normal(size=3)
    b = np.concatenate([x, [1.0]])
    db = emb.A_emb @ b
    assert np.allclose(db[:3], sys.A @ x + sys.beta, atol=1e-13)
    assert db[3] == 0.0
    assert np.allclose(emb.C_emb @ b, sys.C @ x, atol=1e-13)
    assert emb.x0_emb[-1] == 1.0
    u = rng.normal(size=3)
    lifted = np.einsum("c,cjk,k->j", u, control_maps(emb, range(3)), b)
    plain = np.einsum("c,cjk,k->j", u, control_maps(sys, range(3)), x)
    assert np.allclose(lifted[:3], plain, atol=1e-13)
    assert lifted[3] == 0.0


def test_params_validation():
    g_bad = np.eye(3, dtype=complex)
    g_bad[0, 1] = 1j  # not Hermitian
    with pytest.raises(ValueError):
        GkslParams(theta=np.zeros(3), gamma=g_bad).validate()
    g_herm = np.array([[1.0, 1j, 0], [-1j, 1.0, 0], [0, 0, 1.0]])
    with pytest.raises(ValueError):
        GkslParams(theta=np.zeros(3), gamma=g_herm, symmetric=True).validate()
    with pytest.warns(UserWarning):
        GkslParams(theta=np.zeros(3), gamma=-np.eye(3)).validate(physical=True)


def _with_entry(a, index, value):
    a = np.array(a, dtype=complex)
    a[index] = value
    return a


@pytest.mark.parametrize(
    "theta, gamma, message",
    [
        ([0.0, np.nan, 1.0], np.eye(3), "theta has non-finite entries"),
        ([0.0, -np.inf, 1.0], np.eye(3), "theta has non-finite entries"),
        ([[0.0, 0.0, 1.0]], np.eye(3), r"theta must be 1-D, got shape \(1, 3\)"),
        (0.5, np.eye(1), r"theta must be 1-D, got shape \(\)"),
        (np.zeros(3), _with_entry(np.eye(3), (1, 1), np.nan), "gamma has non-finite entries"),
        (np.zeros(3), _with_entry(np.eye(3), (0, 2), np.nan), "gamma has non-finite entries"),
        (np.zeros(3), _with_entry(np.eye(3), (2, 2), np.inf), "gamma has non-finite entries"),
        (np.zeros(3), _with_entry(np.eye(3), (0, 1), np.inf), "gamma has non-finite entries"),
        (
            np.zeros(3),
            _with_entry(_with_entry(np.eye(3), (0, 1), np.inf), (1, 0), np.inf),
            "gamma has non-finite entries",
        ),
        (np.zeros(3), _with_entry(np.eye(3), (1, 2), 1j * np.inf), "gamma has non-finite entries"),
    ],
)
def test_params_validation_rejects_non_finite_and_non_vector(theta, gamma, message):
    # before the check, nan assembled into a nan system and inf only warned
    params = GkslParams(theta=theta, gamma=gamma)
    with pytest.raises(ValueError, match=message):
        params.validate()
    if params.theta.ndim == 1:
        basis = build_basis(1)
        with pytest.raises(ValueError, match=message):
            assemble_system(basis, structure_constants(basis), params)


def test_params_validation_huge_non_hermitian_gamma_is_not_called_non_finite():
    # finite entries whose residual overflows are a Hermiticity failure
    gamma = np.zeros((3, 3))
    gamma[0, 1], gamma[1, 0] = 1e308, -1e308
    with pytest.raises(ValueError, match="gamma not Hermitian"):
        GkslParams(theta=np.zeros(3), gamma=gamma).validate()



def test_params_validation_tolerance_scales_with_gamma():
    # a 3-qubit Kossakowski matrix with rates around 1e5: BLAS rounding of
    # m m^H leaves a Hermiticity residual above an absolute 1e-12
    rng = np.random.default_rng(34)
    m = rng.normal(size=(63, 63)) + 1j * rng.normal(size=(63, 63))
    gamma = 1e5 * (m @ m.conj().T) / 63
    assert np.max(np.abs(gamma - gamma.conj().T)) > 1e-12
    GkslParams(theta=np.zeros(63), gamma=gamma).validate()
    bad = gamma.copy()
    bad[0, 1] += 1j * 1e-9 * np.max(np.abs(gamma))
    with pytest.raises(ValueError, match="gamma not Hermitian"):
        GkslParams(theta=np.zeros(63), gamma=bad).validate()
    # realness under the symmetric flag is judged on the same scale
    real = gamma.real + gamma.real.T
    skew = np.triu(real) - np.triu(real).T  # keeps real + 1j * t * skew Hermitian
    GkslParams(theta=np.zeros(63), gamma=real + 1e-14j * skew, symmetric=True).validate()
    with pytest.raises(ValueError, match="symmetric flag set but gamma has imaginary part"):
        GkslParams(theta=np.zeros(63), gamma=real + 1e-9j * skew, symmetric=True).validate()

@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_control_maps_match_structure_constants(num_qubits):
    # (N_c)_jk = -f_cjk for any channel list, in its order, on the system
    # and, zero-padded by one row and column, on its embedding
    basis = build_basis(num_qubits)
    tensors = structure_constants(basis)
    n = basis.n
    rng = np.random.default_rng(61 + num_qubits)
    params = GkslParams(theta=rng.normal(size=n), gamma=random_hermitian_gamma(rng, n))
    sys = assemble_system(basis, tensors, params)
    emb = embed_standard_form(sys)
    assert sys.m == emb.m == n
    dense = -f_dense(tensors)
    for channels in ([0], [n - 1], list(range(n)), list(rng.permutation(n)[: n // 2 + 1]), []):
        expected = dense[channels]
        assert np.array_equal(control_maps(sys, channels), expected)
        lifted = control_maps(emb, channels)
        assert lifted.shape == (len(channels), n + 1, n + 1)
        assert np.array_equal(lifted[:, :n, :n], expected)
        assert not lifted[:, n].any() and not lifted[:, :, n].any()


def test_control_maps_take_rows_in_any_order():
    # a system built by hand need not sort its rows; a row given twice adds
    basis = build_basis(2)
    rng = np.random.default_rng(71)
    params = GkslParams(theta=rng.normal(size=15), gamma=random_hermitian_gamma(rng, 15))
    sys = assemble_system(basis, structure_constants(basis), params)
    order = rng.permutation(len(sys.N_ind))
    ind = np.vstack([sys.N_ind[order], sys.N_ind[:1]])
    val = np.append(sys.N_val[order], sys.N_val[0])
    val[np.flatnonzero(order == 0)[0]] = 0.0  # the first row, split in two
    channels = [3, 0, 14]
    for system in (sys, embed_standard_form(sys)):
        shuffled = replace(system, N_ind=ind, N_val=val)
        assert np.array_equal(control_maps(shuffled, channels), control_maps(system, channels))


def test_assemble_system_four_qubit_memory():
    # the control maps stay sparse: a dense (255, 255, 255) stack alone
    # would be 133 MB
    basis = build_basis(4)
    tensors = structure_constants(basis)
    rng = np.random.default_rng(67)
    params = GkslParams(theta=rng.normal(size=basis.n), gamma=random_hermitian_gamma(rng, basis.n))
    assemble_system(basis, tensors, params)  # builds the cached word tables
    tracemalloc.start()
    try:
        sys = assemble_system(basis, tensors, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"assemble_system peak {peak / 1e6:.1f} MB at 4 qubits"
    assert sys.N_ind.shape == (len(tensors.f_val), 3)
