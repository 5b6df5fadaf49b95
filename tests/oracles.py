"""Test-only reference computations shared by several test modules."""

import numpy as np


def f_dense(tensors):
    """Dense (n, n, n) tensor with f_dense[j, k, l] = f_jkl."""
    t = np.zeros((tensors.n,) * 3)
    t[tuple(tensors.f_ind.T)] = tensors.f_val
    return t


def g_dense(tensors):
    """Dense (n, n, n) tensor with g_dense[j, k, l] = g_jkl."""
    t = np.zeros((tensors.n,) * 3)
    t[tuple(tensors.g_ind.T)] = tensors.g_val
    return t


def drift_reference(tensors, dim, theta, gamma):
    """(A_l, A_d, beta) from the structure-constant formulas

        (A_l)_jk = - sum_l theta_l f_jkl
        (A_d)_jk = - sum_lm gamma_lm D^{(j,k)}_lm
        beta_j   = (i/N) sum_kl gamma_kl f_jkl
        D^{(j,k)}_lm = (1/4) sum_p (z_lpk f_jmp + conj(z_mpk) f_jlp),
        z_jkl = f_jkl + i g_jkl,

    each contraction a product of reshaped dense tensors, O(n^4).  This is
    the forward map `gksl.drift` computed before it went through the
    process matrix, kept as its independent oracle (1-3 qubits)."""
    n = tensors.n
    f = f_dense(tensors)
    Z = (f + 1j * g_dense(tensors)).reshape(n, n * n)
    A_l = -(f.reshape(n * n, n) @ theta).reshape(n, n)
    # (gamma^T Z)[m, (p, k)] = sum_l gamma_lm z_lpk, contracted with f_jmp
    W = (gamma.T @ Z + gamma @ Z.conj()).reshape(n * n, n)
    A_d = -0.25 * (f.reshape(n, n * n) @ W)
    beta = (1j / dim) * (f.reshape(n, n * n) @ gamma.reshape(-1))
    return A_l, A_d, beta


def t1_block(tensors):
    """The dense (n^2, n) block T1 of the stacked map, vec(A_l) = T1 theta,
    with T1[(j, k), l] = -f_jkl."""
    n = tensors.n
    return -f_dense(tensors).reshape(n * n, n)


def t3_block(tensors):
    """The dense (n^2, n(n+1)/2) block T3 that the symmetric route once
    solved by least squares: vec(A_d) = T3 packed(gamma) for real symmetric
    gamma, packed over the upper triangle in row-major pair order."""
    n = tensors.n
    f = f_dense(tensors)
    # Y[j, k, l, m] = sum_p f_jmp f_klp = 2 Dt^{(j,k)}_lm.  Column (l, m)
    # of T3 merges the (l, m) and (m, l) columns of -Dt; on the diagonal
    # the pair is one column, added twice and halved (exact).
    Y = np.tensordot(f, f, axes=([2], [2])).transpose(0, 2, 3, 1)
    rows, cols = np.triu_indices(n)
    T3 = Y[:, :, rows, cols]
    T3 += Y[:, :, cols, rows]
    T3 *= np.where(rows == cols, -0.25, -0.5)
    return T3.reshape(n * n, len(rows))


def symmetric_lstsq_reference(tensors, As, range_tol=1e-8):
    """[(status, theta, gamma)] of the symmetric route for each drift in
    As, computed as it was before the process-matrix inverse: least
    squares through T3 and T1 (one factorization each for all of As) with
    rank and range checks, and no beta fallback, so a failed gamma gives
    'theta-only'."""
    n = tensors.n
    T1, T3 = t1_block(tensors), t3_block(tensors)
    As = [np.asarray(A, dtype=float) for A in As]
    Vd = np.stack([(0.5 * (A + A.T)).reshape(-1) for A in As], axis=1)
    Vl = np.stack([(0.5 * (A - A.T)).reshape(-1) for A in As], axis=1)
    sol_d, _, rank_d, _ = np.linalg.lstsq(T3, Vd, rcond=None)
    sol_l, _, rank_l, _ = np.linalg.lstsq(T1, Vl, rcond=None)
    rows, cols = np.triu_indices(n)
    out = []
    for i in range(len(As)):
        gamma = theta = None
        vd, sd = Vd[:, i], sol_d[:, i]
        if rank_d == T3.shape[1] and (
            np.linalg.norm(T3 @ sd - vd) <= range_tol * (1.0 + np.linalg.norm(vd))
        ):
            gamma = np.zeros((n, n))
            gamma[rows, cols] = sd
            gamma[cols, rows] = sd
        vl, sl = Vl[:, i], sol_l[:, i]
        if rank_l == n and (
            np.linalg.norm(T1 @ sl - vl) <= range_tol * (1.0 + np.linalg.norm(vl))
        ):
            theta = sl
        status = {(True, True): "full", (True, False): "gamma-only",
                  (False, True): "theta-only", (False, False): "not-recoverable"}
        out.append((status[gamma is not None, theta is not None], theta, gamma))
    return out


def stacked_map(tensors, dim):
    """The dense map M = [[T1, T2], [0, -(i/N) T1^T]] from (theta,
    vec(gamma)) to (vec(A), beta), written term by term as the `paramrec`
    module docstring states it.  The package inverts M without forming
    it; this is the oracle it is checked against (1-3 qubits only: M has
    (n^2 + n)^2 complex entries)."""
    n = tensors.n
    f = f_dense(tensors)
    z = f + 1j * g_dense(tensors)
    T1 = t1_block(tensors)
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
