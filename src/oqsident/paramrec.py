"""Recovery of Hamiltonian and Kossakowski parameters from drift matrices.

The coherence-vector drift depends linearly on the generator parameters,

    vec(A)  = T1 theta + T2 vec(gamma)
    beta    = -(i/N) T1^T vec(gamma)

with row-major vectorization vec(A)[(j, k)] = A[j, k] at row j*n + k and

    T1[(j, k), c]       = -f_jkc
    T2[(j, k), (l, m)]  = -D^{(j,k)}_{lm}
    D^{(j,k)}_lm        = (1/4) sum_p (z_lpk f_jmp + conj(z_mpk) f_jlp)

so the stacked map M = [[T1, T2], [0, -(i/N) T1^T]] sends (theta,
vec(gamma)) to (vec(A), beta).  M is never formed: `gksl.drift` evaluates
it forward for the residual checks of recovered parameters, and general
mode inverts it in closed form through the process matrix, the
Gorini-Kossakowski-Sudarshan decomposition of the Liouvillian (Wolf,
Eisert, Cubitt & Cirac, PRL 101, 150402, 2008).  With the orthonormal
stack G_0 = I/sqrt(N), G_j = F_j, (A, beta) is the Pauli transfer matrix
R = [[0, 0], [sqrt(N) beta, A]] of the Liouvillian L = U R U^H, where the
columns of U are the column-stacked vec(G_i).  The coefficients c_ij =
<G_j^T kron G_i, L> of L rho = sum_ij c_ij G_i rho G_j then give

    gamma   = c[1:, 1:]
    theta_j = Tr(F_j H) = -Im(c_j0) / sqrt(N),

with H = (K^H - K)/(2i) and K = c_00/(2N) I + sum_i c_i0 G_i / sqrt(N).
M is invertible for every basis, so the route has no fallback and no
threshold; its singular values are known in closed form
(`_m_singular_values`).

For real symmetric gamma the dissipative block simplifies to

    (A_d)_jk = -sum_lm gamma_lm Dt^{(j,k)}_lm,
    Dt^{(j,k)}_lm = (1/2) sum_p f_jmp f_klp,

beta vanishes, and A splits as A_l = (A - A^T)/2, A_d = (A + A^T)/2.
Merging the columns of the Dt-based matrix over symmetric index pairs
yields T3 of shape (n^2, n(n+1)/2), acting on the packed upper triangle
of gamma (row-major pair order (0,0), (0,1), ..., (1,1), ...).
Symmetric mode works from A only, by least squares through T3 and T1
with range checks, and degrades explicitly: the beta fallback is its last
resort for gamma.  Every result names its branch; nothing is silently
approximated.
"""

from dataclasses import dataclass, field

import numpy as np

from .gksl import drift
from .liealg import _word_stack, pauli_words


@dataclass
class ReconstructionMatrices:
    """Per-basis data of the two recovery routes.

    G, the (N^2, N, N) stack [I/sqrt(N), F_1, ..., F_n], is what the
    general route needs; T3 is the real-symmetric route's block.  Unused
    ones stay None.  T1 serves the symmetric route, and the structure
    tensors the residual checks of both.
    """

    n: int
    N: int
    T1: np.ndarray
    tensors: object
    G: np.ndarray = None
    T3: np.ndarray = None


def build_reconstruction_matrices(tensors, dim, general=True, symmetric=True):
    """Assemble T1 and, per mode, G and T3 from structure constants.

    Parameters
    ----------
    tensors : liealg.StructureTensors
    dim : int
        Hilbert space dimension N (sets the 1/N scale of the beta block).
    general, symmetric : bool
        Which reconstruction routes to prepare.
    """
    n = tensors.n
    f = tensors.f_dense()
    T1 = -f.reshape(n * n, n)
    mats = ReconstructionMatrices(n=n, N=dim, T1=T1, tensors=tensors)

    if general:
        q = int(dim).bit_length() - 1
        mats.G = _word_stack(["I" * q] + pauli_words(q), 1.0 / np.sqrt(dim))

    if symmetric:
        # Y[j, k, l, m] = sum_p f_jmp f_klp = 2 Dt^{(j,k)}_lm.  Column (l, m)
        # of T3 merges the (l, m) and (m, l) columns of -Dt; on the diagonal
        # the pair is one column, added twice and halved (exact).
        Y = np.tensordot(f, f, axes=([2], [2])).transpose(0, 2, 3, 1)
        rows, cols = np.triu_indices(n)
        T3 = Y[:, :, rows, cols]
        T3 += Y[:, :, cols, rows]
        T3 *= np.where(rows == cols, -0.25, -0.5)
        mats.T3 = T3.reshape(n * n, len(rows))

    return mats


@dataclass
class RecoveredParams:
    """Outcome of a reconstruction attempt.

    status is one of 'full', 'gamma-only', 'theta-only',
    'theta-and-beta-gamma', 'not-recoverable'; general mode always
    returns 'full'.  Residuals are reassembly errors of the recovered
    parameters against the given drift data; kappa is the 2-norm condition
    number of M, which general mode inverts in closed form and reports
    from M's closed-form singular values; hermiticity_defect measures how
    far the raw gamma solution was from Hermitian before projection.
    """

    status: str
    theta: np.ndarray = None
    gamma: np.ndarray = None
    residual_A: float = None
    residual_beta: float = None
    kappa: float = None
    hermiticity_defect: float = None
    notes: list = field(default_factory=list)


def _gamma_from_beta(mats, beta, range_tol):
    """Minimum-norm Hermitian gamma consistent with the offset beta.

    beta pins only the skew part of gamma through -(i/N) T1^T vec(gamma);
    the map has a large kernel, so the returned gamma is one consistent
    choice, not the ground truth.
    """
    Bmap = -(1j / mats.N) * mats.T1.T.astype(complex)
    sol, *_ = np.linalg.lstsq(Bmap, beta.astype(complex), rcond=None)
    resid = np.linalg.norm(Bmap @ sol - beta)
    if resid > range_tol * (1.0 + np.linalg.norm(beta)):
        return None, resid
    g = sol.reshape(mats.n, mats.n)
    return 0.5 * (g + g.conj().T), resid


def _m_singular_values(N):
    """Distinct singular values of M and their multiplicities, closed form.

    For y = (theta, gamma), |M y|^2 = |c|_F^2 - (N - 1)|beta|^2: L and R
    have the same Frobenius norm, and R holds sqrt(N) beta.  Here
    c_ij = gamma_ij (i, j >= 1), c_00 = -tr(gamma) and c_i0, c_0i =
    sqrt(N)(-/+ i theta_i - s_i/2) with s_i = Tr(F_i sum_jk gamma_jk F_k F_j),
    so theta enters only as 2N |theta|^2 (sqrt(2N), n-fold), the diagonal
    of gamma as |diag(gamma)|^2 + tr(gamma)^2 (N once, else 1), and the
    entries gamma_jk with F_j F_k proportional to F_l, for each l, through
    s_l and beta_l alone.  That 2x2 block gives an n-fold pair with
    s_-^2 + s_+^2 = N^2/2 - 1 + 2/N and s_- s_+ = sqrt(N/2); every other
    singular value is 1.
    """
    n = N * N - 1
    t = N * N / 2 - 1 + 2 / N
    d = np.sqrt(t * t - 2 * N)
    values = np.array([N, np.sqrt(2 * N), np.sqrt((t + d) / 2), np.sqrt((t - d) / 2), 1.0])
    return values, np.array([1, n, n, n, n * n - 2 * n - 1])


def reconstruct_general(A, beta, mats):
    """Recover (theta, gamma) with Hermitian gamma from (A, beta).

    Inverts M in closed form through the process matrix c (module
    docstring): two contractions of the Liouvillian with conj(G), no
    solve.  gamma is the Hermitian part of c[1:, 1:], whose distance from
    Hermitian is reported; real (A, beta) make c Hermitian up to rounding.
    """
    if mats.G is None:
        raise ValueError("mats was built without the general-mode blocks")
    n, N, G = mats.n, mats.N, mats.G
    A = np.asarray(A, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if A.shape != (n, n) or beta.shape != (n,):
        raise ValueError(
            f"expected A of shape {(n, n)} and beta of shape {(n,)}, "
            f"got {A.shape} and {beta.shape}"
        )
    # U's columns are the column-stacked vec(G_i); L = U R U^H.
    U = G.transpose(0, 2, 1).reshape(N * N, N * N).T
    R = np.zeros((N * N, N * N))
    R[1:, 0] = np.sqrt(N) * beta
    R[1:, 1:] = A
    L = (U @ R @ U.conj().T).reshape((N,) * 4)
    # c_ij = sum_pqrs conj(G_j[r, p] G_i[q, s]) L[p, q, r, s]
    Gc = G.conj()
    c = np.tensordot(np.tensordot(L, Gc, axes=([1, 3], [1, 2])), Gc, axes=([0, 1], [2, 1]))
    theta = -c[1:, 0].imag / np.sqrt(N)
    g = c[1:, 1:]
    gamma = 0.5 * (g + g.conj().T)
    A_l_chk, A_d_chk, beta_chk = drift(mats.tensors, N, theta, gamma)
    values, _ = _m_singular_values(N)
    return RecoveredParams(
        status="full",
        theta=theta,
        gamma=gamma,
        residual_A=float(np.linalg.norm(A_l_chk + A_d_chk.real - A)),
        residual_beta=float(np.linalg.norm(beta_chk.real - beta)),
        kappa=float(values.max() / values.min()),
        hermiticity_defect=float(np.linalg.norm(g - g.conj().T) / 2.0),
    )


def reconstruct_symmetric(A, mats, beta=None, range_tol=1e-8):
    """Recover (theta, gamma) with real symmetric gamma from A alone.

    Splits A into its symmetric part (dissipative) and antisymmetric
    part (Hamiltonian), then solves the two decoupled least-squares
    problems through T3 and T1 with explicit range checks.  When the
    dissipative route fails but a beta vector is supplied, the
    minimum-norm gamma from beta is attempted as a fallback
    ('theta-and-beta-gamma').
    """
    if mats.T3 is None:
        raise ValueError("mats was built without the symmetric-mode block")
    n = mats.n
    A = np.asarray(A, dtype=float)
    A_d = 0.5 * (A + A.T)
    A_l = 0.5 * (A - A.T)

    gamma = None
    vec_d = A_d.reshape(-1)
    sol, _, rank, _ = np.linalg.lstsq(mats.T3, vec_d, rcond=None)
    if rank == mats.T3.shape[1]:
        resid_d = np.linalg.norm(mats.T3 @ sol - vec_d)
        if resid_d <= range_tol * (1.0 + np.linalg.norm(vec_d)):
            rows, cols = np.triu_indices(n)
            gamma = np.zeros((n, n))
            gamma[rows, cols] = sol
            gamma[cols, rows] = sol

    theta = None
    vec_l = A_l.reshape(-1)
    sol, _, rank, _ = np.linalg.lstsq(mats.T1, vec_l, rcond=None)
    if rank == n:
        resid_l = np.linalg.norm(mats.T1 @ sol - vec_l)
        if resid_l <= range_tol * (1.0 + np.linalg.norm(vec_l)):
            theta = sol

    notes = []
    if gamma is not None and theta is not None:
        status = "full"
    elif gamma is not None:
        status = "gamma-only"
        notes.append("antisymmetric part outside the range of T1")
    elif theta is not None:
        if beta is not None:
            gamma_fb, resid = _gamma_from_beta(mats, np.asarray(beta, dtype=float), range_tol)
            if gamma_fb is not None:
                gamma = gamma_fb.real
                status = "theta-and-beta-gamma"
                notes.append(
                    "symmetric part outside the range of T3; gamma is the "
                    "minimum-norm solution from beta"
                )
            else:
                status = "theta-only"
                notes.append("symmetric part outside T3 range, beta outside fallback range")
        else:
            status = "theta-only"
            notes.append("symmetric part outside the range of T3; no beta supplied")
    else:
        return RecoveredParams(status="not-recoverable", notes=["no block recoverable"])

    A_l_chk, A_d_chk, beta_chk = drift(
        mats.tensors,
        mats.N,
        np.zeros(n) if theta is None else theta,
        np.zeros((n, n)) if gamma is None else gamma,
    )
    residual_A = float(np.linalg.norm(A_l_chk + A_d_chk.real - A)) if status == "full" else None
    residual_beta = None
    if beta is not None and gamma is not None:
        residual_beta = float(np.linalg.norm(beta_chk.real - np.asarray(beta, dtype=float)))
    return RecoveredParams(
        status=status,
        theta=theta,
        gamma=gamma,
        residual_A=residual_A,
        residual_beta=residual_beta,
        hermiticity_defect=0.0 if gamma is not None else None,
        notes=notes,
    )


def error_bound(mats, delta_M_norm, A, delta_A_norm, beta=None):
    """Forward error bound for the full solve under data perturbations.

    For y solving M y = r with r = (vec(A); beta) and a perturbed system
    (M + dM) yt = r + dr with ||dM|| <= delta_M_norm and
    ||dr|| <= delta_A_norm, the bound is

        ||y - yt|| <= ||Mt^{-1}|| delta_A_norm
                      + kappa(M) / (||M||/||dM|| - kappa(M))
                        * ||M^{-1}|| ||r||

    using spectral norms, with ||Mt^{-1}|| bounded through
    ||M^{-1}|| / (1 - kappa ||dM||/||M||).  Requires
    kappa(M) ||dM||/||M|| < 1; otherwise the bound is vacuous and +inf
    is returned.  ||M|| and ||M^{-1}|| come from M's closed-form singular
    values.
    """
    if mats.G is None:
        raise ValueError("mats was built without the general-mode blocks")
    n = mats.n
    A = np.asarray(A, dtype=float)
    if beta is None:
        beta = np.zeros(n)
    rhs_norm = np.linalg.norm(np.concatenate([A.reshape(-1), np.asarray(beta)]))

    values, _ = _m_singular_values(mats.N)
    norm_M = values.max()
    inv_norm = 1.0 / values.min()
    kappa = norm_M * inv_norm

    if delta_M_norm == 0:
        return inv_norm * delta_A_norm
    ratio = kappa * delta_M_norm / norm_M
    if ratio >= 1.0:
        return float("inf")
    first = (inv_norm / (1.0 - ratio)) * delta_A_norm
    second = (kappa / (norm_M / delta_M_norm - kappa)) * inv_norm * rhs_norm
    return float(first + second)
