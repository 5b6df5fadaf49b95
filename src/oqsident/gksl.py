"""GKSL master equations as linear/bilinear coherence-vector dynamics.

A master equation

    drho/dt = L(rho) = -i [H, rho]
                       + sum_jk gamma_jk (F_j rho F_k - (1/2) {F_k F_j, rho})

with H = sum_j theta_j F_j over a trace-orthonormal basis (see `liealg`)
is equivalent to an affine system for the coherence vector
x_j = Tr(F_j rho):

    dx/dt = (A_l + A_d) x + beta + sum_j u_j N_j x

with

    (A_l)_jk = - sum_l theta_l f_jkl,    (N_c)_jk = - f_cjk,
    beta_j   = - (1/N) sum_kl f_klj Im(gamma_kl),
    (A_d)_jk = Tr(F_j D(F_k)),  D the dissipative part of L.

`drift` is the one implementation of this forward map; `assemble_system`
and the residual checks of `paramrec` both call it.  A_l, beta and N_c
are scattered from the sparse structure constants.  A_d goes through the
process matrix (Wolf, Eisert, Cubitt & Cirac, PRL 101, 150402, 2008):
with the generator stack reshaped to the (n, N^2) matrix Fm, the jumps
are a reshuffle of Fm^T gamma Fm, the anticommutator with
K = sum_jk gamma_jk F_k F_j is added on two diagonals, and A_d is
Fm X Fm^T; O(N^6), against O(N^8) for the f/z contraction that the tests
keep as the oracle.  For real symmetric gamma beta vanishes and A_d is
symmetric, so A = A_l + A_d splits into its antisymmetric and symmetric
parts.

`liouvillian_superoperator` returns L on column-stacked density
matrices, vec(A X B) = (B^T kron A) vec(X), built by the same reshuffle.
"""

import warnings
from dataclasses import dataclass

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


def _generator(F, gamma, H=None):
    """L of (H, gamma) as an (N, N, N, N) array X[q, p, r, s] =
    d L(rho)[p, q] / d rho[r, s] (H = 0 when None); a view of a new array."""
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


def drift(F, f_ind, f_val, theta, gamma):
    """The forward map (theta, gamma) -> (A_l, A_d, beta) on the (n, N, N)
    generator stack F and the sparse structure constants (f_ind, f_val).

    beta holds only Im(gamma), so it is exactly zero for real gamma.  A_d
    is returned complex; for Hermitian gamma its imaginary part is
    rounding residue.
    """
    n, N = F.shape[0], F.shape[1]
    j, k, l = f_ind.T
    A_l = np.zeros((n, n))
    A_l[j, k] = -f_val * theta[l]
    beta = np.bincount(l, weights=f_val * gamma[j, k].imag, minlength=n) / -N
    Fm = F.reshape(n, N * N)
    A_d = Fm @ (_generator(F, gamma).reshape(N * N, N * N) @ Fm.T)
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
    F, f_ind, f_val = basis.generators, tensors.f_ind, tensors.f_val
    A_l, A_d, beta = drift(F, f_ind, f_val, params.theta, params.gamma)
    res = np.max(np.abs(A_d.imag))
    if res >= 1e-10:
        raise ValueError(f"dissipative block has imaginary residue {res:.3e}")
    A_d = A_d.real

    res = np.max(np.abs(beta.imag))
    if res >= 1e-10:
        raise ValueError(f"offset vector has imaginary residue {res:.3e}")
    beta = beta.real

    N_list = np.zeros((n, n, n))  # N_list[c][j, k] = -f_cjk
    N_list[tuple(f_ind.T)] = -f_val

    if observables is None:
        C = np.eye(n)
    else:
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


def embed_standard_form(sys, channels=None):
    """Embed an affine CoherenceSystem into homogeneous standard form.

    `channels`, a sequence of control indices, keeps only those control
    maps, in that order; the default keeps all of them."""
    n = sys.n
    A_emb = np.zeros((n + 1, n + 1))
    A_emb[:n, :n] = sys.A
    A_emb[:n, n] = sys.beta
    N_list = sys.N_list if channels is None else sys.N_list[list(channels)]
    N_emb = np.zeros((len(N_list), n + 1, n + 1))
    N_emb[:, :n, :n] = N_list
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
    H = np.tensordot(coeff, F, axes=1)
    # X[q, p, r, s] is L at row p + N q and column r + N s
    return _generator(F, params.gamma, H).transpose(0, 1, 3, 2).reshape(N * N, N * N)


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
