"""Basis construction and structure constant extraction."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oqsident import build_basis, pauli_words, structure_constants, verify_sparsity
from oqsident.liealg import LieBasis, pauli_transform
from oracles import f_dense, g_dense, kronecker_stack, phase_power_constants, word_stack


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
    assert np.array_equal(f_dense(tensors), 2.0 * levi_civita())
    assert len(tensors.g_val) == 0


def test_normalized_one_qubit_f_is_sqrt2_epsilon():
    basis = build_basis(1)
    tensors = structure_constants(basis)
    assert np.allclose(f_dense(tensors), np.sqrt(2.0) * levi_civita(), atol=1e-14)
    assert len(tensors.g_val) == 0


def test_reconstruction_identities_one_qubit():
    # f and g must reproduce the product decomposition they came from:
    # [F_j, F_k] = i sum_l f_jkl F_l and
    # {F_j, F_k} = (2/N) delta_jk I + sum_l g_jkl F_l.
    basis = build_basis(1)
    tensors = structure_constants(basis)
    F = basis.generators
    f = f_dense(tensors)
    g = g_dense(tensors)
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
    f = f_dense(tensors)
    g = g_dense(tensors)
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


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("normalized", [True, False])
def test_word_codes_match_kronecker_oracle(num_qubits, normalized):
    basis = build_basis(num_qubits, normalized=normalized)
    identity, generators = kronecker_stack(num_qubits, normalized)
    assert np.array_equal(basis.identity, identity)
    assert np.array_equal(basis.generators, generators)
    t = structure_constants(basis)
    f_ind, f_val, g_ind, g_val = phase_power_constants(num_qubits, normalized)
    assert np.array_equal(t.f_ind, f_ind)
    assert np.array_equal(t.f_val, f_val)
    assert np.array_equal(t.g_ind, g_ind)
    assert np.array_equal(t.g_val, g_val)


def test_basis_is_its_qubit_count_and_scale():
    # the rest is derived from the word codes, so a basis cannot disagree
    # with them, and the 4-qubit stack (1 MB) is formed only when read
    assert [f.name for f in dataclasses.fields(LieBasis)] == ["num_qubits", "normalized"]
    basis = build_basis(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.normalized = False
    with pytest.raises(ValueError):
        basis.generators[0, 0, 0] = 1.0
    tracemalloc.start()
    try:
        build_basis(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_pauli_transform_matches_dense_products(num_qubits):
    # superop is Gm^T c Gm and transfer is Gm X Gm^T after the reshuffle
    # X[q, p, r, s] = P[p, r, s, q], with Gm the (N^2, N^2) word stack;
    # transfer(superop(.)) is an involution
    basis = build_basis(num_qubits)
    N = basis.dim
    Gm = word_stack(basis).reshape(N * N, N * N)
    t = pauli_transform(num_qubits)
    rng = np.random.default_rng(29 + num_qubits)
    c = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
    P = t.superop(c)
    assert np.max(np.abs(P.reshape(N * N, N * N) - Gm.T @ c @ Gm)) <= 1e-14 * N
    X = P.transpose(3, 0, 1, 2).reshape(N * N, N * N)
    R = t.transfer(P)
    assert np.max(np.abs(R - Gm @ X @ Gm.T)) <= 1e-14 * N
    assert np.max(np.abs(t.transfer(t.superop(R)) - c)) <= 1e-14 * N


def test_pauli_transform_is_cached_and_read_only():
    t = pauli_transform(2)
    assert pauli_transform(2) is t
    assert t.N == 4 and t.H.shape == (4, 4)
    with pytest.raises(ValueError):
        t.words[0, 0] = 1
    with pytest.raises(ValueError):
        t.phases[0, 0] = 1.0
