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
and the residual checks of `paramrec` both call it.  A_l and beta are
scattered from, and the N_c kept as, the sparse f.  A_d goes through the
process matrix (Wolf, Eisert, Cubitt & Cirac, PRL 101, 150402, 2008) and
the Walsh-Hadamard tables of `liealg.pauli_transform`: the jumps
sum_jk gamma_jk F_j rho F_k become the superoperator array P by one
gather, two real GEMMs of the N x N Hadamard matrix and one gather; the
anticommutator with K = sum_jk gamma_jk F_k F_j (a trace of P) is added
on two diagonals of P; and A_d is read off P's Pauli transfer matrix by
the same four steps in reverse.  That is O(N^5), against O(N^6) for the
dense products with the (N^2, N^2) word stack and O(N^8) for the f/z
contraction; the tests keep both as oracles.  For real symmetric gamma
beta vanishes and A_d is symmetric, so A = A_l + A_d splits into its
antisymmetric and symmetric parts.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .liealg import pauli_transform

_SYMMETRY_TOL = 1e-12  # Hermiticity and realness rounding, per unit of max|gamma|


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

    def validate(self, physical=False):
        """Check shape, finiteness and symmetry contracts.

        Raises ValueError, naming theta or gamma, for a theta that is not
        1-D or not finite, a non-finite or non-Hermitian gamma (or
        non-real-symmetric gamma when the symmetric flag is set).  With
        physical=True a Kossakowski matrix whose smallest eigenvalue is
        below -1e-10 only draws a warning: non-Markovian snapshots are
        legitimate inputs.
        """
        if self.theta.ndim != 1:
            raise ValueError(f"theta must be 1-D, got shape {self.theta.shape}")
        if not np.isfinite(self.theta).all():
            raise ValueError("theta has non-finite entries")
        n = self.n
        if self.gamma.shape != (n, n):
            raise ValueError("gamma must be square with side len(theta)")
        # a nan or inf anywhere in gamma makes the residual nan or inf
        with np.errstate(invalid="ignore", over="ignore"):
            herm = np.max(np.abs(self.gamma - self.gamma.conj().T))
        if not np.isfinite(herm) and not np.isfinite(self.gamma).all():
            raise ValueError("gamma has non-finite entries")
        asym = np.max(np.abs(self.gamma.imag)) if self.symmetric else 0.0
        # rounding in gamma is relative to its largest entry; residuals
        # within the tolerance at scale 1 pass without forming that max
        tol = _SYMMETRY_TOL
        if max(herm, asym) > tol:
            tol *= max(1.0, np.max(np.abs(self.gamma)))
        if herm > tol:
            raise ValueError(f"gamma not Hermitian (residual {herm:.3e})")
        if asym > tol:
            raise ValueError(f"symmetric flag set but gamma has imaginary part {asym:.3e}")
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

    dx/dt = (A_l + A_d) x + beta + sum_{c<m} u_c N_c x,   y = C x,  with
    (N_c)_jk the sum of N_val[i] over the rows N_ind[i] = (c, j, k), which
    may come in any order.
    """

    n: int
    A_l: np.ndarray
    A_d: np.ndarray
    beta: np.ndarray
    N_ind: np.ndarray  # (nnz, 3) int
    N_val: np.ndarray  # (nnz,)
    m: int  # number of control channels
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

    The state is x_emb = [x; 1], the drift is [[A, beta], [0, 0]], the
    control maps are the system's sparse rows (zero-padded at dim n + 1),
    and the output map gains a zero column.  The last state coordinate
    stays exactly 1 along trajectories.
    """

    n: int  # original state dimension; the embedded state has n + 1 entries
    A_emb: np.ndarray
    N_ind: np.ndarray
    N_val: np.ndarray
    m: int
    C_emb: np.ndarray
    x0_emb: np.ndarray


def _generator(transform, gamma):
    """Dissipator of gamma as its (N, N, N, N) superoperator array P with
    D(rho)[p, q] = sum_rs P[p, r, s, q] rho[r, s]."""
    N = transform.N
    c = np.zeros((N * N, N * N), dtype=complex)
    c[1:, 1:] = gamma
    P = transform.superop(c)  # sum_jk gamma_jk F_j rho F_k
    half = -0.5 * np.trace(P, axis1=0, axis2=3).T  # D(rho) = half rho + rho half + jumps
    P.reshape(N, N, N * N)[:, :, :: N + 1] += half[:, :, None]  # P[p, r, q, q] += half[p, r]
    P.reshape(N * N, N, N)[:: N + 1] += half  # P[p, p, s, q] += half[s, q]
    return P


def drift(transform, f_ind, f_val, theta, gamma):
    """The forward map (theta, gamma) -> (A_l, A_d, beta) through the
    `liealg.PauliTransform` of the basis and its sparse structure
    constants (f_ind, f_val).

    beta holds only Im(gamma), so it is exactly zero for real gamma.  A_d
    is returned complex; for Hermitian gamma its imaginary part is
    rounding residue.
    """
    n, N = len(theta), transform.N
    jk = f_ind[:, 0] * n + f_ind[:, 1]
    l = f_ind[:, 2]
    A_l = np.zeros(n * n)
    A_l[jk] = -f_val * theta[l]
    beta = np.bincount(l, weights=f_val * gamma.reshape(-1)[jk].imag, minlength=n) / -N
    A_d = transform.transfer(_generator(transform, gamma))[1:, 1:]
    return A_l.reshape(n, n), A_d, beta


def assemble_system(basis, tensors, params, observables=None):
    """Build the coherence-vector system matrices from GKSL data.

    Parameters
    ----------
    basis : liealg.LieBasis
        Must be the normalized Pauli word basis, as `build_basis` returns
        it; the coefficient formulas assume trace orthonormality and A_d
        uses the word tables of `liealg.pauli_transform`.
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

    N, f_ind, f_val = basis.dim, tensors.f_ind, tensors.f_val
    A_l, A_d, beta = drift(
        pauli_transform(basis.num_qubits), f_ind, f_val, params.theta, params.gamma
    )
    res = np.max(np.abs(A_d.imag))
    if res >= 1e-10:
        raise ValueError(f"dissipative block has imaginary residue {res:.3e}")
    A_d = A_d.real

    res = np.max(np.abs(beta.imag))
    if res >= 1e-10:
        raise ValueError(f"offset vector has imaginary residue {res:.3e}")
    beta = beta.real

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
            row = np.einsum("kab,ba->k", basis.generators, O)
            if np.max(np.abs(row.imag)) >= 1e-10:
                raise ValueError(f"observable {idx} produced complex output row")
            rows.append(row.real)
        C = np.array(rows)

    return CoherenceSystem(n, A_l, A_d, beta, N_ind=f_ind, N_val=-f_val, m=n, C=C)


def control_maps(sys, channels):
    """Dense (len(channels), dim, dim) control maps of the listed channels:
    dim is n for a CoherenceSystem and n + 1, zero-padded, for its
    EmbeddedSystem."""
    dim = sys.n + 1 if isinstance(sys, EmbeddedSystem) else sys.n
    out = np.zeros((len(channels), dim, dim))
    for N_c, c in zip(out, channels):
        rows = sys.N_ind[:, 0] == c
        np.add.at(N_c, (sys.N_ind[rows, 1], sys.N_ind[rows, 2]), sys.N_val[rows])
    return out


def embed_standard_form(sys):
    """Embed an affine CoherenceSystem into homogeneous standard form."""
    n = sys.n
    A_emb = np.zeros((n + 1, n + 1))
    A_emb[:n, :n] = sys.A
    A_emb[:n, n] = sys.beta
    C_emb = np.hstack([sys.C, np.zeros((sys.C.shape[0], 1))])
    x0_emb = np.concatenate([sys.x0, [1.0]])
    return EmbeddedSystem(n, A_emb, sys.N_ind, sys.N_val, sys.m, C_emb, x0_emb)


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
