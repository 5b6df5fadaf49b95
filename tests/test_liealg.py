"""Basis construction and structure constant extraction."""

import numpy as np
import pytest

from oqsident import build_basis, pauli_words, structure_constants, verify_sparsity
from oqsident.liealg import LieBasis


def levi_civita():
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    return eps


def trace_projection(basis):
    """Reference structure constants by trace projection onto each word.

    f_jkl = -i Tr([F_j, F_k] F_l) / Tr(F_l F_l) and g likewise from the
    anticommutator, with exact zeros dropped, in the COO layout of
    StructureTensors.
    """
    F = basis.generators
    denom = np.einsum("lab,lba->l", F, F).real
    prod = np.einsum("jab,kbc->jkac", F, F)
    prod_t = prod.transpose(1, 0, 2, 3)
    f_all = -1j * np.einsum("jkab,lba->jkl", prod - prod_t, F) / denom
    g_all = np.einsum("jkab,lba->jkl", prod + prod_t, F) / denom
    out = []
    for t in (f_all, g_all):
        assert np.max(np.abs(t.imag)) < 1e-10
        ind = np.argwhere(np.abs(t.real) > 1e-12)
        out += [ind, t.real[tuple(ind.T)]]
    return out


def dense_row(ind, val, n, j, k):
    """Row t[j, k, :] of a COO tensor, without the dense n^3 array."""
    row = np.zeros(n)
    sel = (ind[:, 0] == j) & (ind[:, 1] == k)
    row[ind[sel, 2]] = val[sel]
    return row


def test_word_order_two_qubits():
    words = pauli_words(2)
    assert words[:6] == ["Ix", "Iy", "Iz", "xI", "xx", "xy"]
    assert words[-1] == "zz"
    assert len(words) == 15


def test_word_count_three_qubits():
    assert len(pauli_words(3)) == 63


def test_basis_orthonormality():
    for q in (1, 2, 3):
        basis = build_basis(q)
        gram = np.einsum("mab,nba->mn", basis.generators, basis.generators)
        assert np.allclose(gram, np.eye(basis.n), atol=1e-12)
        assert abs(np.trace(basis.identity @ basis.identity) - 1.0) < 1e-12


def test_build_basis_range_guard():
    with pytest.raises(ValueError):
        build_basis(0)
    with pytest.raises(ValueError):
        build_basis(5)


def test_raw_one_qubit_f_is_two_epsilon_exact():
    # Plain Pauli words close under [s_j, s_k] = 2i eps_jkl s_l; the
    # entries are small integers, so the comparison is exact.
    basis = build_basis(1, normalized=False)
    tensors = structure_constants(basis)
    assert np.array_equal(tensors.f_dense(), 2.0 * levi_civita())
    assert len(tensors.g_val) == 0


def test_normalized_one_qubit_f_is_sqrt2_epsilon():
    basis = build_basis(1)
    tensors = structure_constants(basis)
    assert np.allclose(tensors.f_dense(), np.sqrt(2.0) * levi_civita(), atol=1e-14)
    assert len(tensors.g_val) == 0


def test_reconstruction_identities_one_qubit():
    # f and g must reproduce the product decomposition they came from:
    # [F_j, F_k] = i sum_l f_jkl F_l and
    # {F_j, F_k} = (2/N) delta_jk I + sum_l g_jkl F_l.
    basis = build_basis(1)
    tensors = structure_constants(basis)
    F = basis.generators
    f = tensors.f_dense()
    g = tensors.g_dense()
    N = basis.dim
    eye = np.eye(N)
    for j in range(basis.n):
        for k in range(basis.n):
            comm = F[j] @ F[k] - F[k] @ F[j]
            assert np.allclose(comm, 1j * np.einsum("l,lab->ab", f[j, k], F), atol=1e-12)
            anti = F[j] @ F[k] + F[k] @ F[j]
            expect = (2.0 / N) * (j == k) * eye + np.einsum("l,lab->ab", g[j, k], F)
            assert np.allclose(anti, expect, atol=1e-12)


@pytest.mark.parametrize("num_qubits", [2, 3, 4])
def test_reconstruction_identities_sampled(num_qubits):
    basis = build_basis(num_qubits)
    t = structure_constants(basis)
    F = basis.generators
    n, N = basis.n, basis.dim
    rng = np.random.default_rng(42)
    # plus one diagonal pair, whose anticommutator is pure identity
    pairs = [tuple(rng.integers(0, n, size=2)) for _ in range(40)] + [(3, 3)]
    for j, k in pairs:
        f_jk = dense_row(t.f_ind, t.f_val, n, j, k)
        g_jk = dense_row(t.g_ind, t.g_val, n, j, k)
        comm = F[j] @ F[k] - F[k] @ F[j]
        assert np.allclose(comm, 1j * np.einsum("l,lab->ab", f_jk, F), atol=1e-12)
        anti = F[j] @ F[k] + F[k] @ F[j]
        expect = (2.0 / N) * (j == k) * np.eye(N) + np.einsum("l,lab->ab", g_jk, F)
        assert np.allclose(anti, expect, atol=1e-12)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("normalized", [True, False])
def test_product_rule_matches_trace_projection(num_qubits, normalized):
    basis = build_basis(num_qubits, normalized=normalized)
    t = structure_constants(basis)
    f_ind, f_val, g_ind, g_val = trace_projection(basis)
    assert np.array_equal(t.f_ind, f_ind)
    assert np.array_equal(t.g_ind, g_ind)
    if num_qubits <= 2:
        assert np.array_equal(t.f_val, f_val)
        assert np.array_equal(t.g_val, g_val)
    else:
        # the projection sums N products of 1/sqrt(N)-scaled entries; the
        # product rule rounds 2/sqrt(N) once
        assert np.max(np.abs(t.f_val - f_val)) <= 2.3e-16
        assert np.max(np.abs(t.g_val - g_val)) <= 2.3e-16


def test_tensor_symmetries_two_qubits():
    tensors = structure_constants(build_basis(2))
    f = tensors.f_dense()
    g = tensors.g_dense()
    # total antisymmetry of f: swap of the first pair and cyclic shifts
    assert np.allclose(f, -f.transpose(1, 0, 2), atol=1e-12)
    assert np.allclose(f, f.transpose(1, 2, 0), atol=1e-12)
    # g symmetric in the first pair, zero on the diagonal
    assert np.allclose(g, g.transpose(1, 0, 2), atol=1e-12)
    idx = np.arange(tensors.n)
    assert np.allclose(g[idx, idx, :], 0.0, atol=1e-12)


def test_sparsity_one_per_pair():
    for q in (1, 2):
        rep = verify_sparsity(structure_constants(build_basis(q)))
        assert rep.max_f <= 1
        assert rep.max_g <= 1
        assert rep.one_per_pair


def test_broken_basis_rejected():
    basis = build_basis(1)
    gens = basis.generators.copy()
    gens[0] = gens[0] + 0.01j * np.eye(2)  # not Hermitian
    broken = LieBasis(
        num_qubits=1,
        dim=2,
        n=3,
        words=basis.words,
        generators=gens,
        identity=basis.identity,
        normalized=True,
    )
    with pytest.raises(ValueError):
        broken.validate()
    with pytest.raises(ValueError):
        structure_constants(broken)


def test_validate_catches_scale_error():
    basis = build_basis(1, normalized=False)
    basis.normalized = True  # lie about the scaling
    with pytest.raises(ValueError):
        basis.validate()
    with pytest.raises(ValueError):
        structure_constants(basis)
