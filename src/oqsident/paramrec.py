"""Recovery of Hamiltonian and Kossakowski parameters from drift matrices.

The coherence-vector drift depends linearly on the generator parameters,

    vec(A)  = T1 theta + T2 vec(gamma)
    beta    = -(i/N) T1^T vec(gamma)

with row-major vectorization vec(A)[(j, k)] = A[j, k] at row j*n + k and

    T1[(j, k), c]       = -f_jkc
    T2[(j, k), (l, m)]  = -D^{(j,k)}_{lm}
    D^{(j,k)}_lm        = (1/4) sum_p (z_lpk f_jmp + conj(z_mpk) f_jlp)

so the stacked map M = [[T1, T2], [0, -(i/N) T1^T]] sends (theta,
vec(gamma)) to (vec(A), beta).  The sign of the lower-right block is
fixed by the round-trip identity beta_j = (i/N) sum_kl gamma_kl f_jkl
together with the total antisymmetry of f; the test suite pins it
against the independently assembled system matrices.  Recovery inverts
this map; the residual checks of recovered parameters evaluate it
forward through `gksl.drift`, its one implementation.

For real symmetric gamma the dissipative block simplifies to

    (A_d)_jk = -sum_lm gamma_lm Dt^{(j,k)}_lm,
    Dt^{(j,k)}_lm = (1/2) sum_p f_jmp f_klp,

beta vanishes, and A splits as A_l = (A - A^T)/2, A_d = (A + A^T)/2.
Merging the columns of the Dt-based matrix over symmetric index pairs
yields T3 of shape (n^2, n(n+1)/2), acting on the packed upper triangle
of gamma (row-major pair order (0,0), (0,1), ..., (1,1), ...).

Recovery tries the richest route available and degrades explicitly:
general mode solves the full M system when it is well conditioned, else
falls back to a minimum-norm gamma from beta alone; symmetric mode works
from A only, with the beta fallback as a last resort for gamma.  Every
result names its branch; nothing is silently approximated.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .gksl import drift


@dataclass
class GammaIndexMap:
    """Row-major index maps between matrix pairs and vector positions."""

    n: int

    def pair(self, r):
        """Full vectorization: row r -> (j, k) with r = j*n + k."""
        return divmod(r, self.n)

    def index(self, j, k):
        return j * self.n + k

    def sym_pairs(self):
        """Upper-triangle pairs in row-major order."""
        return [(int(j), int(k)) for j, k in zip(*np.triu_indices(self.n))]

    def sym_index(self, j, k):
        if j > k:
            j, k = k, j
        # offset of row j in the packed upper triangle
        return j * self.n - j * (j - 1) // 2 + (k - j)

    def pack_sym(self, mat):
        return np.asarray(mat)[np.triu_indices(self.n)]

    def expand_sym(self, vec):
        rows, cols = np.triu_indices(self.n)
        out = np.zeros((self.n, self.n))
        out[rows, cols] = vec
        out[cols, rows] = vec
        return out


@dataclass
class ReconstructionMatrices:
    """Linear maps from generator parameters to drift data.

    T2 and M are built for general (Hermitian gamma) recovery, T3 for the
    real-symmetric route; unused blocks stay None.  T2 is a view of M's
    upper-right block, not a copy.  The structure tensors are kept for
    residual evaluation.  The factors of M depend only on the basis; each
    is computed on first use and kept, so M must not be replaced afterwards.
    """

    n: int
    N: int
    T1: np.ndarray
    tensors: object
    T2: np.ndarray = None
    M: np.ndarray = None
    T3: np.ndarray = None

    @cached_property
    def M_singular_values(self):
        """Singular values of M, largest first."""
        return np.linalg.svd(self.M, compute_uv=False)

    @cached_property
    def M_lu(self):
        """LU factorization of M as returned by scipy.linalg.lu_factor."""
        return lu_factor(self.M)


def build_reconstruction_matrices(tensors, dim, general=True, symmetric=True):
    """Assemble T1 and, per mode, T2/M and T3 from structure constants.

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
        # T2 is M's upper-right block, written in place: its rows split as
        # (j, k) and its columns as (l, m), so the 4-index reshape is a view.
        mats.M = M = np.zeros((n * n + n, n + n * n), dtype=complex)
        mats.T2 = M[: n * n, n:]
        T2 = mats.T2.reshape((n,) * 4)
        # X[j, k, l, m] = sum_p z_lpk f_jmp; f is real, so the conj(z) term
        # of D^{(j,k)}_lm is conj(X) with l and m swapped.
        X = np.tensordot(f, tensors.z_dense(), axes=([2], [1])).transpose(0, 3, 2, 1)
        np.conjugate(X.swapaxes(2, 3), out=T2)
        T2 += X
        T2 *= -0.25
        M[: n * n, :n] = T1
        M[n * n :, n:] = -(1j / dim) * T1.T

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
    'theta-and-beta-gamma', 'not-recoverable'.  Residuals are reassembly
    errors of the recovered parameters against the given drift data;
    kappa is the 2-norm condition number of M, computed once per
    ReconstructionMatrices and reported by every general-mode attempt;
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


def reconstruct_general(A, beta, mats, cond_cap=1e12, range_tol=1e-8):
    """Recover (theta, gamma) with Hermitian gamma from (A, beta).

    Solves the stacked system through M when cond(M) stays below
    cond_cap.  Otherwise attempts the degraded route: gamma alone from
    beta (minimum-norm), provided beta lies in the range of the beta
    block.  The raw gamma solution is projected onto Hermitian matrices
    and the projection distance reported.
    """
    if mats.M is None:
        raise ValueError("mats was built without the general-mode blocks")
    n = mats.n
    A = np.asarray(A, dtype=float)
    beta = np.asarray(beta, dtype=float)
    rhs = np.concatenate([A.reshape(-1), beta]).astype(complex)

    s = mats.M_singular_values
    kappa = float(s[0] / s[-1])
    if np.isfinite(kappa) and kappa < cond_cap:
        y = lu_solve(mats.M_lu, rhs)
        theta_raw = y[:n]
        theta = theta_raw.real
        g = y[n:].reshape(n, n)
        defect = float(np.linalg.norm(g - g.conj().T) / 2.0)
        gamma = 0.5 * (g + g.conj().T)
        A_l_chk, A_d_chk, beta_chk = drift(mats.tensors, mats.N, theta, gamma)
        notes = []
        im = float(np.max(np.abs(theta_raw.imag)))
        if im > range_tol:
            notes.append(f"theta solution had imaginary residue {im:.3e}")
        return RecoveredParams(
            status="full",
            theta=theta,
            gamma=gamma,
            residual_A=float(np.linalg.norm(A_l_chk + A_d_chk.real - A)),
            residual_beta=float(np.linalg.norm(beta_chk.real - beta)),
            kappa=kappa,
            hermiticity_defect=defect,
            notes=notes,
        )

    notes = [f"M condition number {kappa:.3e} exceeds cap {cond_cap:.1e}"]
    if np.linalg.matrix_rank(mats.T1) == n:
        gamma, resid = _gamma_from_beta(mats, beta, range_tol)
        if gamma is not None:
            beta_chk = drift(mats.tensors, mats.N, np.zeros(n), gamma)[2].real
            notes.append("gamma is the minimum-norm solution from beta alone")
            return RecoveredParams(
                status="gamma-only",
                gamma=gamma,
                residual_beta=float(np.linalg.norm(beta_chk - beta)),
                kappa=kappa,
                notes=notes,
            )
        notes.append(f"beta outside the recoverable range (residual {resid:.3e})")
    else:
        notes.append("T1 is rank deficient")
    return RecoveredParams(status="not-recoverable", kappa=kappa, notes=notes)


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
    idx = GammaIndexMap(n)
    A = np.asarray(A, dtype=float)
    A_d = 0.5 * (A + A.T)
    A_l = 0.5 * (A - A.T)

    gamma = None
    vec_d = A_d.reshape(-1)
    sol, _, rank, _ = np.linalg.lstsq(mats.T3, vec_d, rcond=None)
    if rank == mats.T3.shape[1]:
        resid_d = np.linalg.norm(mats.T3 @ sol - vec_d)
        if resid_d <= range_tol * (1.0 + np.linalg.norm(vec_d)):
            gamma = idx.expand_sym(sol)

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
    is returned.
    """
    if mats.M is None:
        raise ValueError("mats was built without the general-mode blocks")
    n = mats.n
    A = np.asarray(A, dtype=float)
    if beta is None:
        beta = np.zeros(n)
    rhs_norm = np.linalg.norm(np.concatenate([A.reshape(-1), np.asarray(beta)]))

    s = mats.M_singular_values
    norm_M = s[0]
    inv_norm = 1.0 / s[-1]
    kappa = norm_M * inv_norm

    if delta_M_norm == 0:
        return inv_norm * delta_A_norm
    ratio = kappa * delta_M_norm / norm_M
    if ratio >= 1.0:
        return float("inf")
    first = (inv_norm / (1.0 - ratio)) * delta_A_norm
    second = (kappa / (norm_M / delta_M_norm - kappa)) * inv_norm * rhs_norm
    return float(first + second)
