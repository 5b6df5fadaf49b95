"""Recovery of Hamiltonian and Kossakowski parameters from drift data.

The coherence-vector drift depends linearly on the generator parameters,

    vec(A)  = T1 theta + T2 vec(gamma)
    beta    = -(i/N) T1^T vec(gamma)

with row-major vectorization vec(A)[(j, k)] = A[j, k] and
T1[(j, k), c] = -f_jkc.  The stacked map M = [[T1, T2], [0, -(i/N) T1^T]]
is never formed (the tests keep it, T1 and T3 as dense oracles):
`gksl.drift` evaluates it forward, and both modes invert it in closed
form through the process matrix, the Gorini-Kossakowski-Sudarshan
decomposition of the Liouvillian (Wolf, Eisert, Cubitt & Cirac, PRL 101,
150402, 2008).  With the orthonormal stack G_0 = I/sqrt(N), G_j = F_j,
(A, beta) is the Pauli transfer matrix R = [[0, 0], [sqrt(N) beta, A]]
of L, and the coefficients c_ij of L rho = sum_ij c_ij G_i rho G_j give

    gamma   = c[1:, 1:]
    theta_j = Tr(F_j H) = -Im(c_j0) / sqrt(N),

with H = (K^H - K)/(2i) and K = c_00/(2N) I + sum_i c_i0 G_i / sqrt(N).
M is invertible for every basis, so the inverse has no threshold; its
singular values are known in closed form (`_m_singular_values`).

General mode keeps the Hermitian part of c[1:, 1:] and always returns
'full'.  Symmetric mode works from A alone (beta = 0 in R) and keeps the
real symmetric part, which is the least-squares solution of
A_d = (A + A^T)/2 = T3 gamma (T3 merges T2's columns over symmetric index
pairs), as theta is for A_l = (A - A^T)/2 = T1 theta.  T3 maps onto the
symmetric matrices, so gamma always reproduces A_d; theta is kept only
when the forward residual of A_l is within `range_tol`, and the status is
'full' or 'gamma-only'.
"""

from dataclasses import dataclass, field

import numpy as np

from .gksl import drift
from .liealg import _word_stack, pauli_words


@dataclass
class ReconstructionMatrices:
    """Per-basis data of the two recovery routes.

    Both routes invert through G, the (N^2, N, N) stack [I/sqrt(N), F_1,
    ..., F_n], and check residuals with the forward map on G[1:] and the
    sparse structure constants (f_ind, f_val).  general and symmetric
    record the routes the data were prepared for.
    """

    n: int
    N: int
    G: np.ndarray
    f_ind: np.ndarray
    f_val: np.ndarray
    general: bool
    symmetric: bool


def build_reconstruction_matrices(tensors, dim, general=True, symmetric=True):
    """Assemble the per-basis data of the recovery routes.

    Parameters
    ----------
    tensors : liealg.StructureTensors
    dim : int
        Hilbert space dimension N (sets the 1/N scale of the beta block).
    general, symmetric : bool
        Which reconstruction routes to prepare.
    """
    q = int(dim).bit_length() - 1
    G = _word_stack(["I" * q] + pauli_words(q), 1.0 / np.sqrt(dim))
    return ReconstructionMatrices(
        tensors.n, dim, G, tensors.f_ind, tensors.f_val, general, symmetric
    )


@dataclass
class RecoveredParams:
    """Outcome of a reconstruction attempt.

    status is 'full' or 'gamma-only' (symmetric mode, theta outside the
    range of T1); general mode always returns 'full'.  Files written by
    earlier versions may carry 'theta-only', 'theta-and-beta-gamma' or
    'not-recoverable', which `read_params_hat` still reads.  Residuals
    are reassembly errors of the recovered parameters against the given
    drift data (symmetric mode: residual_A when 'full', no residual_beta);
    kappa is the 2-norm condition number of M, which general mode inverts
    in closed form and reports from M's closed-form singular values;
    hermiticity_defect measures how far the raw gamma solution was from
    Hermitian before projection.
    """

    status: str
    theta: np.ndarray = None
    gamma: np.ndarray = None
    residual_A: float = None
    residual_beta: float = None
    kappa: float = None
    hermiticity_defect: float = None
    notes: list = field(default_factory=list)


def _forward(mats, theta, gamma):
    """gksl.drift on the generator stack held by mats: (A, beta), real."""
    A_l, A_d, beta = drift(mats.G[1:], mats.f_ind, mats.f_val, theta, gamma)
    return A_l + A_d.real, beta.real


def _invert(G, A, beta):
    """theta and c[1:, 1:] of the process matrix c (L rho = sum_ij c_ij
    G_i rho G_j) of the Pauli transfer matrix R = [[0, 0], [sqrt(N) beta, A]].

    With Gm the (N^2, N^2) reshaped stack (orthonormal and Hermitian),
    Y = Gm^T R Gm holds d L(rho)[p, q] / d rho[r, s] at [(p, q), (s, r)];
    its reshuffle Z[(r, p), (q, s)] is sum_ij c_ij G_i[p, r] G_j[s, q],
    so c = Gm Z Gm^T.
    """
    N2, N = G.shape[0], G.shape[1]
    Gm = G.reshape(N2, N2)
    R = np.zeros((N2, N2))
    R[1:, 0] = np.sqrt(N) * beta
    R[1:, 1:] = A
    Z = (Gm.T @ R @ Gm).reshape(N, N, N, N).transpose(3, 0, 1, 2).reshape(N2, N2)
    c = Gm @ Z @ Gm.T
    return -c[1:, 0].imag / np.sqrt(N), c[1:, 1:]


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
    docstring), no solve.  gamma is the Hermitian part of c[1:, 1:], whose
    distance from Hermitian is reported; real (A, beta) make c Hermitian
    up to rounding.
    """
    if not mats.general:
        raise ValueError("mats was built without the general-mode blocks")
    n, N = mats.n, mats.N
    A = np.asarray(A, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if A.shape != (n, n) or beta.shape != (n,):
        raise ValueError(
            f"expected A of shape {(n, n)} and beta of shape {(n,)}, "
            f"got {A.shape} and {beta.shape}"
        )
    theta, g = _invert(mats.G, A, beta)
    gamma = 0.5 * (g + g.conj().T)
    A_chk, beta_chk = _forward(mats, theta, gamma)
    values, _ = _m_singular_values(N)
    return RecoveredParams(
        status="full",
        theta=theta,
        gamma=gamma,
        residual_A=float(np.linalg.norm(A_chk - A)),
        residual_beta=float(np.linalg.norm(beta_chk - beta)),
        kappa=float(values.max() / values.min()),
        hermiticity_defect=float(np.linalg.norm(g - g.conj().T) / 2.0),
    )


def reconstruct_symmetric(A, mats, range_tol=1e-8):
    """Recover (theta, gamma) with real symmetric gamma from A alone.

    Inverts M with beta = 0 through the process matrix (module docstring).
    gamma always reproduces the symmetric part of A; theta is kept only
    when the forward residual of the antisymmetric (Hamiltonian) part of A
    is within range_tol (1 + its norm), else the status is 'gamma-only'.
    """
    if not mats.symmetric:
        raise ValueError("mats was built without the symmetric-mode block")
    A = np.asarray(A, dtype=float)
    theta, g = _invert(mats.G, A, np.zeros(mats.n))
    gamma = 0.5 * (g.real + g.real.T)
    A_chk, _ = _forward(mats, theta, gamma)
    A_l = 0.5 * (A - A.T)
    resid_l = np.linalg.norm(0.5 * (A_chk - A_chk.T) - A_l)
    if resid_l > range_tol * (1.0 + np.linalg.norm(A_l)):
        return RecoveredParams(
            status="gamma-only",
            gamma=gamma,
            hermiticity_defect=0.0,
            notes=["antisymmetric part outside the range of T1"],
        )
    return RecoveredParams(
        status="full",
        theta=theta,
        gamma=gamma,
        residual_A=float(np.linalg.norm(A_chk - A)),
        hermiticity_defect=0.0,
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
    if not mats.general:
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
