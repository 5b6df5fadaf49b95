"""GKSL master equations as linear/bilinear coherence-vector dynamics.

A master equation

    drho/dt = -i [H, rho]
              + sum_jk gamma_jk (F_j rho F_k - (1/2) {F_k F_j, rho})

with H = sum_j theta_j F_j over a trace-orthonormal basis (see `liealg`)
is equivalent to an affine system for the coherence vector
x_j = Tr(F_j rho):

    dx/dt = (A_l + A_d) x + beta + sum_j u_j N_j x

with

    (A_l)_jk = - sum_l  theta_l  f_jkl
    (A_d)_jk = - sum_lm gamma_lm D^{(j,k)}_lm
    beta_j   = (i/N) sum_kl gamma_kl f_jkl
    (N_c)_jk = - f_cjk
    D^{(j,k)}_lm = (1/4) sum_p (z_lpk f_jmp + conj(z_mpk) f_jlp),
    z_jkl = f_jkl + i g_jkl.

`drift` is the one implementation of this forward map; `assemble_system`
and the residual checks of `paramrec` both call it.

For real symmetric gamma the offset beta vanishes and A_d is symmetric,
which is what makes the Toeplitz-style split A = A_l + A_d recoverable
from A alone (antisymmetric and symmetric parts).

The module also provides the superoperator route: the Liouvillian acting
on column-stacked density matrices, vec(A X B) = (B^T kron A) vec(X).
The two routes are independent implementations of the same generator and
are cross-checked against each other in the test suite.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class GkslParams:
    """Hamiltonian and Kossakowski parameters in a fixed basis.

    Attributes
    ----------
    theta : ndarray, shape (n,)
        Real Hamiltonian coefficients, H = sum_j theta_j F_j.
    gamma : ndarray, shape (n, n)
        Kossakowski matrix.  Hermitian in general; real symmetric when
        `symmetric` is set.
    symmetric : bool
        Declares the real-symmetric special case used by the symmetric
        reconstruction route.
    """

    theta: np.ndarray
    gamma: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=complex)

    @property
    def n(self):
        return self.theta.shape[0]

    def validate(self, tol=1e-12, physical=False):
        """Check shape and symmetry contracts.

        Raises ValueError for a non-Hermitian gamma (or non-real-symmetric
        gamma when the symmetric flag is set).  With physical=True a
        Kossakowski matrix whose smallest eigenvalue is below -1e-10 only
        draws a warning: non-Markovian snapshots are legitimate inputs.
        """
        n = self.n
        if self.gamma.shape != (n, n):
            raise ValueError("gamma must be square with side len(theta)")
        herm = np.max(np.abs(self.gamma - self.gamma.conj().T))
        if herm > tol:
            raise ValueError(f"gamma not Hermitian (residual {herm:.3e})")
        if self.symmetric:
            asym = np.max(np.abs(self.gamma.imag))
            if asym > tol:
                raise ValueError(
                    f"symmetric flag set but gamma has imaginary part {asym:.3e}"
                )
        if physical:
            lo = np.linalg.eigvalsh((self.gamma + self.gamma.conj().T) / 2).min()
            if lo < -1e-10:
                warnings.warn(
                    f"gamma has negative eigenvalue {lo:.3e}; "
                    "dynamics is not CP-divisible",
                    stacklevel=2,
                )
        return True


@dataclass
class CoherenceSystem:
    """Affine bilinear dynamics of the coherence vector.

    dx/dt = (A_l + A_d) x + beta + sum_c u_c N_list[c] x,   y = C x.
    """

    n: int
    A_l: np.ndarray
    A_d: np.ndarray
    beta: np.ndarray
    N_list: np.ndarray  # shape (n, n, n); N_list[c] is the c-th control matrix
    C: np.ndarray
    x0: np.ndarray = None

    def __post_init__(self):
        if self.x0 is None:
            self.x0 = np.zeros(self.n)

    @property
    def A(self):
        return self.A_l + self.A_d


@dataclass
class EmbeddedSystem:
    """Standard-form embedding that absorbs the affine offset.

    The state is x_emb = [x; 1], the drift is [[A, beta], [0, 0]], each
    control matrix is zero-padded by one row and column, and the output
    map gains a zero column.  The last state coordinate stays exactly 1
    along trajectories.
    """

    n: int  # original state dimension; the embedded state has n + 1 entries
    A_emb: np.ndarray
    N_list_emb: np.ndarray
    C_emb: np.ndarray
    x0_emb: np.ndarray


def drift(tensors, dim, theta, gamma):
    """The forward map (theta, gamma) -> (A_l, A_d, beta).

    Each contraction is a matrix product of reshaped structure tensors,
    O(n^4) in all.  A_d and beta are returned complex; for Hermitian
    gamma their imaginary parts are rounding residue.
    """
    n = tensors.n
    f = tensors.f_dense()
    Z = tensors.z_dense().reshape(n, n * n)
    A_l = -(f.reshape(n * n, n) @ theta).reshape(n, n)
    # (gamma^T Z)[m, (p, k)] = sum_l gamma_lm z_lpk, contracted with f_jmp
    W = (gamma.T @ Z + gamma @ Z.conj()).reshape(n * n, n)
    A_d = -0.25 * (f.reshape(n, n * n) @ W)
    beta = (1j / dim) * (f.reshape(n, n * n) @ gamma.reshape(-1))
    return A_l, A_d, beta


def assemble_system(basis, tensors, params, observables=None):
    """Build the coherence-vector system matrices from GKSL data.

    Parameters
    ----------
    basis : liealg.LieBasis
        Must be the normalized basis; the coefficient formulas assume
        trace orthonormality.
    tensors : liealg.StructureTensors
        Structure constants of `basis`.
    params : GkslParams
    observables : list of ndarray, optional
        Hermitian (N, N) matrices defining the output rows
        C[j, k] = Tr(F_k O_j).  Defaults to C = identity (full state
        readout).  Identity components of the observables do not appear
        in y = C x and draw a warning.

    Returns
    -------
    CoherenceSystem
    """
    if not basis.normalized:
        raise ValueError("assemble_system requires the trace-orthonormal basis")
    params.validate()
    n = basis.n
    if params.n != n:
        raise ValueError(f"params dimension {params.n} does not match basis n={n}")
    if tensors.n != n:
        raise ValueError("structure tensors do not match basis dimension")

    N = basis.dim
    A_l, A_d, beta = drift(tensors, N, params.theta, params.gamma)
    res = np.max(np.abs(A_d.imag))
    if res >= 1e-10:
        raise ValueError(f"dissipative block has imaginary residue {res:.3e}")
    A_d = A_d.real

    res = np.max(np.abs(beta.imag))
    if res >= 1e-10:
        raise ValueError(f"offset vector has imaginary residue {res:.3e}")
    beta = beta.real

    N_list = -tensors.f_dense()  # N_list[c][j, k] = -f_cjk

    if observables is None:
        C = np.eye(n)
    else:
        F = basis.generators
        rows = []
        for idx, O in enumerate(observables):
            O = np.asarray(O, dtype=complex)
            if O.shape != (N, N):
                raise ValueError(f"observable {idx} has shape {O.shape}, expected {(N, N)}")
            if np.max(np.abs(O - O.conj().T)) > 1e-10:
                raise ValueError(f"observable {idx} is not Hermitian")
            if abs(np.trace(O)) > 1e-10:
                warnings.warn(
                    f"observable {idx} has nonzero trace; the identity part "
                    "does not enter y = C x",
                    stacklevel=2,
                )
            row = np.einsum("kab,ba->k", F, O)
            if np.max(np.abs(row.imag)) >= 1e-10:
                raise ValueError(f"observable {idx} produced complex output row")
            rows.append(row.real)
        C = np.array(rows)

    return CoherenceSystem(n=n, A_l=A_l, A_d=A_d, beta=beta, N_list=N_list, C=C)


def embed_standard_form(sys):
    """Embed an affine CoherenceSystem into homogeneous standard form."""
    n = sys.n
    A_emb = np.zeros((n + 1, n + 1))
    A_emb[:n, :n] = sys.A
    A_emb[:n, n] = sys.beta
    N_emb = np.zeros((n, n + 1, n + 1))
    N_emb[:, :n, :n] = sys.N_list
    C_emb = np.hstack([sys.C, np.zeros((sys.C.shape[0], 1))])
    x0_emb = np.concatenate([sys.x0, [1.0]])
    return EmbeddedSystem(n=n, A_emb=A_emb, N_list_emb=N_emb, C_emb=C_emb, x0_emb=x0_emb)


def liouvillian_superoperator(basis, params, u=None):
    """Liouvillian on column-stacked density matrices.

    Uses vec(A X B) = (B^T kron A) vec(X), i.e. numpy reshape with
    order='F' on the density matrix.  Controls enter as an extra
    Hamiltonian sum_c u_c F_c at a frozen instant; pass the momentary
    amplitude vector as `u`.

    Returns the (N^2, N^2) complex matrix L with d vec(rho)/dt = L vec(rho).
    """
    params.validate()
    F = basis.generators
    N = basis.dim
    coeff = params.theta if u is None else params.theta + np.asarray(u, dtype=float)
    H = np.einsum("j,jab->ab", coeff, F)

    eye = np.eye(N, dtype=complex)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))

    gamma = params.gamma
    # sum_jk gamma_jk kron(F_k^T, F_j), assembled index-wise
    jump = np.einsum("jk,kqp,jab->paqb", gamma, F, F).reshape(N * N, N * N)
    K = np.einsum("jk,kab,jbc->ac", gamma, F, F)  # sum gamma_jk F_k F_j
    L += jump - 0.5 * np.kron(eye, K) - 0.5 * np.kron(K.T, eye)
    return L


def rho_to_coherence(rho, basis):
    """Coherence vector x_j = Tr(F_j rho) of a unit-trace Hermitian rho."""
    if not basis.normalized:
        raise ValueError("coherence coordinates are defined for the normalized basis")
    rho = np.asarray(rho, dtype=complex)
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"rho has trace {tr}; expected 1 within 1e-10")
    x = np.einsum("jab,ba->j", basis.generators, rho)
    res = np.max(np.abs(x.imag))
    if res >= 1e-10:
        raise ValueError(f"coherence vector has imaginary residue {res:.3e}")
    return x.real


def coherence_to_rho(x, basis):
    """Inverse of rho_to_coherence: rho = I/N + sum_j x_j F_j."""
    if not basis.normalized:
        raise ValueError("coherence coordinates are defined for the normalized basis")
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise ValueError(f"x must have shape ({basis.n},)")
    N = basis.dim
    return np.eye(N, dtype=complex) / N + np.einsum("j,jab->ab", x, basis.generators)
