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


_EPS = np.finfo(float).eps


def _normalize_columns(V):
    norms = np.linalg.norm(V, axis=0)
    keep = norms > 1e-300
    return V[:, keep] / norms[keep]


def word_span_reference(ops, seeds, dim, word_cap):
    """(rank, status, words) of the word span of `seeds` under the list
    `ops`, by the level-by-level closure `identify._word_span` ran before
    it learned to stop at full rank: one matmul per operator, an hstack
    per level, and every level orthogonalized, the full-rank one too."""
    seeds = _normalize_columns(np.atleast_2d(seeds))
    if seeds.shape[1] == 0:
        return 0, "closed", 0
    U, s, _ = np.linalg.svd(seeds, full_matrices=False)
    r = int(np.sum(s > max(seeds.shape) * _EPS * s[0]))
    basis = U[:, :r]
    frontier = basis
    words = 0

    for _ in range(dim - 1):
        if basis.shape[1] == dim:
            return dim, "full-rank", words
        if frontier.shape[1] == 0:
            return basis.shape[1], "closed", words
        cost = len(ops) * frontier.shape[1]
        if words + cost > word_cap:
            return basis.shape[1], "inconclusive-below-cap", words
        words += cost
        images = _normalize_columns(np.hstack([op @ frontier for op in ops]))
        if images.shape[1] == 0:
            return basis.shape[1], "closed", words
        new = int(np.linalg.matrix_rank(np.hstack([basis, images]))) - basis.shape[1]
        if new <= 0:
            return basis.shape[1], "closed", words
        resid = images - basis @ (basis.T @ images)
        Ur, _, _ = np.linalg.svd(resid, full_matrices=False)
        fresh = Ur[:, :new]
        fresh = fresh - basis @ (basis.T @ fresh)
        fresh = _normalize_columns(fresh)
        basis = np.hstack([basis, fresh])
        frontier = fresh

    status = "full-rank" if basis.shape[1] == dim else "depth-exhausted"
    return basis.shape[1], status, words
