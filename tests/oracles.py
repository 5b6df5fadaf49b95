"""Test-only reference computations shared by several test modules."""

import numpy as np


def stacked_map(tensors, dim):
    """The dense map M = [[T1, T2], [0, -(i/N) T1^T]] from (theta,
    vec(gamma)) to (vec(A), beta), written term by term as the `paramrec`
    module docstring states it.  The package inverts M without forming
    it; this is the oracle it is checked against (1-3 qubits only: M has
    (n^2 + n)^2 complex entries)."""
    n = tensors.n
    f, z = tensors.f_dense(), tensors.z_dense()
    T1 = -f.reshape(n * n, n)
    D = 0.25 * (np.einsum("lpk,jmp->jklm", z, f)
                + np.einsum("mpk,jlp->jklm", z.conj(), f))
    M = np.zeros((n * n + n, n + n * n), dtype=complex)
    M[: n * n, :n] = T1
    M[: n * n, n:] = -D.reshape(n * n, n * n)
    M[n * n :, n:] = -(1j / dim) * T1.T
    return M
