"""Test-only reference computations shared by several test modules."""

import itertools
import json
import math
from functools import reduce

import numpy as np

from oqsident.gksl import EmbeddedSystem
from oqsident.ldsrec import _frame_weights, _states_from_record

# Single-qubit symbols in the lexicographic order of `liealg.pauli_words`.
_SIGMA = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
# sigma_a sigma_b = _PHASE[a, b] sigma_(a ^ b), symbols coded 0..3 as above.
_PHASE = np.array([[np.trace(sa @ sb @ _SIGMA[a ^ b]) / 2 for b, sb in enumerate(_SIGMA)]
                   for a, sa in enumerate(_SIGMA)])


def _scale(num_qubits, normalized):
    return 1.0 / np.sqrt(2**num_qubits) if normalized else 1.0


def kronecker_stack(num_qubits, normalized=True):
    """(identity, generators) of the Pauli word basis, each word a
    Kronecker product of its symbols, as `liealg.build_basis` built them
    before it scattered the stack from the word codes."""
    words = itertools.product(_SIGMA, repeat=num_qubits)
    G = np.stack([reduce(np.kron, w) for w in words]).astype(complex)
    G = G * _scale(num_qubits, normalized)
    return G[0], G[1:]


def phase_power_constants(num_qubits, normalized=True):
    """(f_ind, f_val, g_ind, g_val) of the Pauli word basis by the
    per-qubit product rule, as `liealg.structure_constants` computed them
    before the word codes: word j has code j + 1, two bits per qubit, so
    F_j F_k = s phase_jk F_l with l = ((j + 1) ^ (k + 1)) - 1 (-1 is the
    identity), and the phase table of all 4**q words is the q-fold
    Kronecker power of _PHASE."""
    scale = _scale(num_qubits, normalized)
    phase = reduce(np.kron, [_PHASE] * num_qubits)[1:, 1:]
    codes = np.arange(1, len(phase) + 1)
    word = (codes[:, None] ^ codes) - 1
    f = 2 * scale * phase.imag
    g = 2 * scale * phase.real
    g[word < 0] = 0.0
    out = []
    for t in (f, g):
        j, k = np.nonzero(t)
        out += [np.stack([j, k, word[j, k]], axis=1), t[j, k]]
    return out


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


def single_rate_reference(model):
    """[G_tau_i] of a multirate model by least squares between stacked
    observability blocks, as `ldsrec.single_rate_models` computed them
    before it telescoped the offset maps: Gamma_i = [C G^p G_i, p = 0..n]
    and Gamma_{i-1} G_tau_i = Gamma_i, refused when Gamma_{i-1} is rank
    deficient."""
    n = model.order
    C = model.C
    times = model.times
    powers = [C.copy()]
    for _ in range(n):
        powers.append(powers[-1] @ model.G)

    def gamma_stack(i):
        return np.vstack([P @ model.G_offsets[i] for P in powers])

    G_taus = []
    prev = gamma_stack(0)
    for i in range(1, len(times)):
        cur = gamma_stack(i)
        if np.linalg.matrix_rank(prev) < n:
            raise ValueError(
                f"stacked observability block at offset {i - 1} is rank deficient; "
                "single-rate extraction not possible"
            )
        Gt, *_ = np.linalg.lstsq(prev, cur, rcond=None)
        G_taus.append(Gt)
        prev = cur
    return G_taus


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


def span_rank_reference(ops, seeds, gap=1e6):
    """Dimension of the smallest subspace that holds the seeds, (dim,) or
    (dim, m), and is invariant under every operator in `ops`: the span of
    all words applied to the seeds.  None when that cannot be told apart
    from rounding.

    The closure grows an orthonormal basis Q of the span from the
    normalized seeds: each step takes the SVD of [Q, op Q for op in ops],
    every nonzero operator scaled to unit Frobenius norm, and the closure
    stops when the rank no longer grows.  A rank is decided only where the
    singular values it keeps are at least `gap` times the largest it
    drops, and those it drops are below 1e-10 of the largest."""
    ops = [op / np.linalg.norm(op) for op in ops if np.linalg.norm(op) > 0]
    seeds = np.asarray(seeds, dtype=float)
    cols = _normalize_columns(seeds.reshape(len(seeds), -1))
    if cols.shape[1] == 0:
        return 0

    def orth(M):
        U, s, _ = np.linalg.svd(M, full_matrices=False)
        r = int(np.sum(s > 1e-10 * s[0]))
        if r < len(s) and s[r - 1] < gap * s[r]:
            return None
        return U[:, :r]

    Q = orth(cols)
    while Q is not None:
        grown = orth(np.hstack([Q] + [op @ Q for op in ops]))
        if grown is not None and grown.shape[1] == Q.shape[1]:
            return Q.shape[1]
        Q = grown
    return None


def word_stack(basis):
    """The (N^2, N, N) normalized word stack G = [I/sqrt(N), F_1, ..., F_n]."""
    return np.concatenate([basis.identity[None], basis.generators])


def generator_dense(F, gamma, H=None):
    """L of (H, gamma) on the (n, N, N) stack F as an (N, N, N, N) array
    X[q, p, r, s] = d L(rho)[p, q] / d rho[r, s] (H = 0 when None), by the
    dense (N^2, N^2) product Fm^T gamma Fm and one reshuffle, O(N^6).  This
    is how `gksl` built the superoperator before the Walsh-Hadamard tables;
    kept as their oracle."""
    n, N = F.shape[0], F.shape[1]
    Fm = F.reshape(n, N * N)
    # P[p, r, s, q] = sum_jk gamma_jk F_j[p, r] F_k[s, q]
    P = (Fm.T @ gamma @ Fm).reshape(N, N, N, N)
    K = np.trace(P, axis1=0, axis2=3).T
    left = -0.5 * K  # L(rho) = left rho + rho right + jumps
    right = -0.5 * K
    if H is not None:
        left = left - 1j * H
        right = right + 1j * H
    X = P.transpose(3, 0, 1, 2)
    d = np.arange(N)
    X[d, :, :, d] += left  # X[q, p, r, q] += left[p, r]
    X[:, d, d, :] += right.T[:, None, :]  # X[q, p, p, s] += right[s, q]
    return X


def dissipator_dense(F, gamma):
    """A_d[j, k] = Tr(F_j D(F_k)) as Fm X Fm^T with X from
    `generator_dense`: the dense process-matrix forward map, O(N^6)."""
    n, N = F.shape[0], F.shape[1]
    Fm = F.reshape(n, N * N)
    return Fm @ (generator_dense(F, gamma).reshape(N * N, N * N) @ Fm.T)


def invert_dense(G, A, beta):
    """theta and c[1:, 1:] of the process matrix c of the Pauli transfer
    matrix R = [[0, 0], [sqrt(N) beta, A]] on the stack G of `word_stack`,
    by four dense (N^2, N^2) products, O(N^6): Y = Gm^T R Gm holds
    d L(rho)[p, q] / d rho[r, s] at [(p, q), (s, r)], its reshuffle
    Z[(r, p), (q, s)] is sum_ij c_ij G_i[p, r] G_j[s, q], and c = Gm Z Gm^T."""
    N2, N = G.shape[0], G.shape[1]
    Gm = G.reshape(N2, N2)
    R = np.zeros((N2, N2))
    R[1:, 0] = np.sqrt(N) * beta
    R[1:, 1:] = A
    Z = (Gm.T @ R @ Gm).reshape(N, N, N, N).transpose(3, 0, 1, 2).reshape(N2, N2)
    c = Gm @ Z @ Gm.T
    return -c[1:, 0].imag / np.sqrt(N), c[1:, 1:]


def sparse_controls(N_list):
    """CoherenceSystem control fields (N_ind, N_val, m) of a dense
    (m, n, n) stack of control maps."""
    N_list = np.asarray(N_list, dtype=float)
    ind = np.argwhere(N_list)  # row-major, so sorted by (c, j, k)
    return dict(N_ind=ind, N_val=N_list[tuple(ind.T)], m=len(N_list))


def dense_controls(sys):
    """Dense (m, n, n) stack of all control maps of a CoherenceSystem, one
    sparse row at a time."""
    out = np.zeros((sys.m, sys.n, sys.n))
    for (c, j, k), v in zip(sys.N_ind, sys.N_val):
        out[c, j, k] = v
    return out


def write_system_dense(path, sys, N_list):
    """A system file as `jsonio.write_system` wrote it from the dense
    (m, n, n) control maps N_list: channel by channel, the nonzeros of
    each map in row-major order."""
    records = []
    for c in range(len(N_list)):
        jj, kk = np.nonzero(N_list[c])
        for j, k in zip(jj, kk):
            records.append([int(c) + 1, int(j) + 1, int(k) + 1, float(N_list[c][j, k])])
    doc = {
        "schema": "oqsident/system/1",
        "n": sys.n,
        "A_l": np.asarray(sys.A_l, dtype=float).tolist(),
        "A_d": np.asarray(sys.A_d, dtype=float).tolist(),
        "beta": np.asarray(sys.beta, dtype=float).tolist(),
        "channels": len(N_list),
        "N_list": records,
        "C": np.asarray(sys.C, dtype=float).tolist(),
        "x0": np.asarray(sys.x0, dtype=float).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def segment_drifts(A, N_list, schedule, pulses):
    """Stamp times and the (a, b, drift) segments between consecutive
    events, with the stamp arithmetic and pulse sums of `simulate`."""
    T, times, frames = schedule.T, schedule.times, schedule.frames
    stamps = [k * T + t for k in range(frames) for t in times[:-1]]
    stamps.append((frames - 1) * T + times[-1])
    edges = [p.tau for p in pulses if 0.0 < p.tau < stamps[-1]]
    events = np.unique(np.concatenate([stamps, edges, [0.0]]))
    segments = []
    for a, b in zip(events[:-1], events[1:]):
        u = np.zeros(len(N_list))
        for p in pulses:
            if p.tau > 0 and a < p.tau:
                u[p.channel] += p.alpha
        Mseg = A.copy()
        for c in np.nonzero(u)[0]:
            Mseg = Mseg + u[c] * N_list[c]
        segments.append((a, b, Mseg))
    return np.array(stamps), segments


def simulate_reference(sys, N_list, schedule, pulses=(), x0=None, noise_sigma=0.0, seed=None,
                       steps_per_interval=50):
    """(y, x) at the stamps with a fresh one-step propagator and its power
    for every segment, as `simulate` computed them before it reused the
    power of segments that repeat a width and input, with the dense
    (m, dim, dim) control maps N_list.  y is C x per stamp, plus the noise
    draws in stamp order."""
    if isinstance(sys, EmbeddedSystem):
        A, C, x_default = sys.A_emb, sys.C_emb, sys.x0_emb
        beta = np.zeros(sys.n + 1)
    else:
        A, C, x_default = sys.A, sys.C, sys.x0
        beta = sys.beta
    dim = A.shape[0]
    x = np.array(x_default if x0 is None else x0, dtype=float)
    stamps, segments = segment_drifts(A, N_list, schedule, pulses)
    h_max = schedule.taus.min() / steps_per_interval
    eye = np.eye(dim + 1)
    H = np.zeros((dim + 1, dim + 1))
    states = {0.0: x}
    for a, b, Mseg in segments:
        nstep = max(1, math.ceil((b - a) / h_max))
        h = (b - a) / nstep
        H[:dim, :dim] = h * Mseg
        H[:dim, dim] = h * beta
        P = eye + H / 4.0
        for d in (3.0, 2.0, 1.0):
            P = eye + (H @ P) / d
        x = (np.linalg.matrix_power(P, nstep) @ np.append(x, 1.0))[:dim]
        states[b] = x
    rng = np.random.default_rng(seed)
    ys = []
    for t in stamps:
        y = C @ states[t]
        if noise_sigma > 0:
            y = y + noise_sigma * rng.standard_normal(C.shape[0])
        ys.append(y)
    return np.array(ys), np.array([states[t] for t in stamps])


def per_offset_fit_reference(record, schedule, order, C=None):
    """G_offsets of `ldsrec.fit_multirate` with one weighted least-squares
    solve per offset map and one for the frame map, each against the
    frame-start states, and the samples looked up by (frame, offset) in a
    dict, as the fit was written before it stacked the targets.  Also
    returns the weighted regressor W X0."""
    M, l = schedule.frames, schedule.l
    X, C_used = _states_from_record(record, order, C)
    by_key = {(int(k), int(i)): X[s]
              for s, (k, i) in enumerate(zip(record.frame, record.offset_index))}
    X0 = np.array([by_key[(k, 0)] for k in range(M)]).T
    w = _frame_weights(record, X0, C_used)

    def regress(target):
        K, *_ = np.linalg.lstsq((X0 * w).T, (target * w).T, rcond=None)
        return K.T

    G_offsets = [np.eye(order)]
    for i in range(1, l + 1):
        G_offsets.append(regress(np.array([by_key[(k, i)] for k in range(M)]).T))
    ends = [by_key[(k + 1, 0) if k + 1 < M else (M - 1, l + 1)] for k in range(M)]
    G_offsets.append(regress(np.array(ends).T))
    return G_offsets, (X0 * w).T


def branch_match_reference(family, match_tol=1e-6, cond_cap=1e12):
    """(eigenvalues, A) of `ldsrec.reconstruct_continuous` with the branch
    matching done mode by mode: each mode's windowed candidates from the
    first rate are kept when every other rate's branch set has a point
    within match_tol, and a mode with zero or several survivors raises.
    This is how the matching was written before all modes were matched in
    one array; the eigenvector step and the eigenvalue correction after it
    are the same."""
    taus = np.asarray(family.taus, dtype=float)
    G_list = family.G_taus
    n = family.order
    window = math.pi / taus.min()
    slack = 10 * match_tol

    lam0, V = np.linalg.eig(G_list[0])
    if np.min(np.abs(lam0)) < 1e-300:
        raise ValueError("transition matrix is singular; no matrix logarithm")
    if np.linalg.cond(V) > cond_cap:
        raise ValueError(
            "transition matrix is not reliably diagonalizable; defective "
            "(shared Jordan block) reconstruction is not supported"
        )

    two_pi = 2.0 * math.pi

    def branch_set(lams, tau):
        K = math.ceil(window * tau / two_pi) + 2
        ks = np.arange(-K, K + 1)
        mus = (np.log(lams)[:, None] + 1j * two_pi * ks[None, :]) / tau
        mus = mus.reshape(-1)
        return mus[np.abs(mus.imag) <= window + slack]

    others = [branch_set(np.linalg.eigvals(G), tau) for G, tau in zip(G_list[1:], taus[1:])]

    mu = np.empty(n, dtype=complex)
    for m in range(n):
        cands = branch_set(np.array([lam0[m]]), taus[0])
        survivors = [
            c for c in cands if all(np.min(np.abs(c - o)) <= match_tol for o in others)
        ]
        if len(survivors) == 0:
            raise ValueError(
                f"no continuous eigenvalue consistent across rates for mode {m}; "
                "the fitted single-rate models disagree"
            )
        if len(survivors) > 1:
            raise ValueError(
                f"branch ambiguity unresolved for mode {m}: {len(survivors)} "
                "candidates survive; the sampling schedule cannot separate aliases"
            )
        mu[m] = survivors[0]

    P = reduce(np.matmul, G_list)
    shifted = P - np.exp(mu * taus.sum())[:, None, None] * np.eye(n)
    try:
        W = np.linalg.solve(shifted, V.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:
        W = V
    if np.all(np.isfinite(W)):
        V = W / np.linalg.norm(W, axis=0)
    Vinv = np.linalg.inv(V)
    T = taus.sum()
    corr = np.log(np.einsum("ij,ji->i", Vinv, P @ V) * np.exp(-mu * T)) / T
    real = lam0.imag == 0
    corr[real] = corr[real].real
    pos = np.flatnonzero(lam0.imag > 0)
    corr[pos + 1] = corr[pos].conj()
    mu = mu + corr
    return mu, (V @ np.diag(mu) @ Vinv).real
