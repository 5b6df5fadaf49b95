"""Generalized Pauli bases of su(2^q) and their structure constants.

Conventions used throughout the package:

* The Hilbert space dimension is N = 2**num_qubits and n = N**2 - 1 is the
  number of traceless generators.
* Generators are normalized Pauli words F_j = (Pauli word) / sqrt(N), ordered
  lexicographically over the single-qubit symbols with I < x < y < z and with
  the all-identity word excluded.  The identity component F_0 = I / sqrt(N)
  is stored separately.  With this scaling Tr(F_m F_n) = delta_mn.
* Structure constants are defined through

      [F_j, F_k]  = i * sum_l f_jkl F_l
      {F_j, F_k}  = (2/N) delta_jk I + sum_l g_jkl F_l

  and extracted by trace projection,

      f_jkl = -i Tr([F_j, F_k] F_l) / Tr(F_l F_l)
      g_jkl =    Tr({F_j, F_k} F_l) / Tr(F_l F_l).

  The division by Tr(F_l F_l) makes the extraction valid for the
  unnormalized helper basis as well (plain Pauli words, Tr(F_l F_l) = N).
* f is real and totally antisymmetric, g is real and symmetric in its first
  two indices with g_jjl = 0.  For a Pauli word basis both tensors are very
  sparse: for fixed (j, k) at most one l carries a nonzero f and at most one
  l carries a nonzero g.

All indices in the Python API are 0-based.  The JSON interchange layer
converts to 1-based records.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Lexicographic symbol order fixing the generator index map.
_SYMBOLS = ("I", "x", "y", "z")


def pauli_words(num_qubits):
    """Return the n = 4**q - 1 Pauli word labels in lexicographic order.

    The all-identity word is excluded.  For two qubits the sequence starts
    Ix, Iy, Iz, xI, xx, ...
    """
    words = ["".join(w) for w in itertools.product(_SYMBOLS, repeat=num_qubits)]
    return words[1:]


def _word_matrix(word):
    out = _PAULI[word[0]]
    for ch in word[1:]:
        out = np.kron(out, _PAULI[ch])
    return out


@dataclass
class LieBasis:
    """Ordered basis of su(2^q) as a stack of Hermitian traceless matrices.

    Attributes
    ----------
    num_qubits : int
    dim : int
        Hilbert space dimension N = 2**num_qubits.
    n : int
        Number of traceless generators, N**2 - 1.
    words : list of str
        Pauli word labels, index-aligned with `generators`.
    generators : ndarray, shape (n, N, N)
        The matrices F_1 .. F_n (0-based as generators[0..n-1]).
    identity : ndarray, shape (N, N)
        The separately stored identity component.  I / sqrt(N) when
        normalized, plain I otherwise.
    normalized : bool
        True for the trace-orthonormal scaling 1/sqrt(N), False for the
        raw Pauli word helper used in scale cross-checks.
    """

    num_qubits: int
    dim: int
    n: int
    words: list
    generators: np.ndarray
    identity: np.ndarray
    normalized: bool = True

    def validate(self, tol=1e-12):
        """Check the basis invariants, raising ValueError on failure.

        Every generator must be Hermitian and traceless.  For a normalized
        basis the stack must in addition be trace-orthonormal, including
        the identity component.
        """
        F = self.generators
        if F.shape != (self.n, self.dim, self.dim):
            raise ValueError("generator stack has wrong shape")
        herm = np.max(np.abs(F - F.conj().transpose(0, 2, 1)))
        if herm > tol:
            raise ValueError(f"generators not Hermitian (residual {herm:.3e})")
        tr = np.max(np.abs(np.trace(F, axis1=1, axis2=2)))
        if tr > tol:
            raise ValueError(f"generators not traceless (residual {tr:.3e})")
        if self.normalized:
            gram = np.einsum("mab,nba->mn", F, F)
            err = np.max(np.abs(gram - np.eye(self.n)))
            if err > 1e-10:
                raise ValueError(f"basis not trace-orthonormal (residual {err:.3e})")
            id_norm = abs(np.trace(self.identity @ self.identity) - 1.0)
            if id_norm > 1e-10:
                raise ValueError("identity component not normalized")
        return True


def build_basis(num_qubits, normalized=True):
    """Construct the generalized Pauli basis of su(2^q).

    Parameters
    ----------
    num_qubits : int
        Number of qubits, 1 <= num_qubits <= 4.
    normalized : bool
        If True (default) scale each word by 1/sqrt(N) so that
        Tr(F_m F_n) = delta_mn.  If False return plain Pauli words; this
        variant exists for scale cross-checks of the structure constants
        (e.g. f = 2*epsilon for one qubit).

    Returns
    -------
    LieBasis
    """
    if not 1 <= num_qubits <= 4:
        raise ValueError("num_qubits must be between 1 and 4")
    N = 2**num_qubits
    words = pauli_words(num_qubits)
    scale = 1.0 / np.sqrt(N) if normalized else 1.0
    gens = np.stack([_word_matrix(w) for w in words]).astype(complex) * scale
    ident = np.eye(N, dtype=complex) * scale
    basis = LieBasis(
        num_qubits=num_qubits,
        dim=N,
        n=len(words),
        words=words,
        generators=gens,
        identity=ident,
        normalized=normalized,
    )
    basis.validate()
    return basis


@dataclass
class StructureTensors:
    """Sparse structure constants of a LieBasis.

    Entries with |value| <= cutoff are dropped.  The COO index arrays are
    0-based and sorted lexicographically by (j, k, l).

    Attributes
    ----------
    n : int
    f_ind : ndarray, shape (nnz_f, 3), int
        Indices (j, k, l) of nonzero antisymmetric constants.
    f_val : ndarray, shape (nnz_f,), float
    g_ind, g_val : ndarray
        Same layout for the symmetric constants.
    cutoff : float
        Magnitude threshold used during extraction.
    """

    n: int
    f_ind: np.ndarray
    f_val: np.ndarray
    g_ind: np.ndarray
    g_val: np.ndarray
    cutoff: float = 1e-12
    _f_dense: np.ndarray = field(default=None, repr=False, compare=False)
    _g_dense: np.ndarray = field(default=None, repr=False, compare=False)

    def f_dense(self):
        """Dense (n, n, n) tensor with f_dense[j, k, l] = f_jkl."""
        if self._f_dense is None:
            t = np.zeros((self.n,) * 3)
            if len(self.f_val):
                t[self.f_ind[:, 0], self.f_ind[:, 1], self.f_ind[:, 2]] = self.f_val
            self._f_dense = t
        return self._f_dense

    def g_dense(self):
        """Dense (n, n, n) tensor with g_dense[j, k, l] = g_jkl."""
        if self._g_dense is None:
            t = np.zeros((self.n,) * 3)
            if len(self.g_val):
                t[self.g_ind[:, 0], self.g_ind[:, 1], self.g_ind[:, 2]] = self.g_val
            self._g_dense = t
        return self._g_dense

    def z_dense(self):
        """Combined tensor z_jkl = f_jkl + i g_jkl used in dissipator assembly."""
        return self.f_dense() + 1j * self.g_dense()

    def f_lookup(self):
        """Dict mapping (j, k) to a list of (l, f_jkl) pairs."""
        table = {}
        for (j, k, l), v in zip(map(tuple, self.f_ind), self.f_val):
            table.setdefault((j, k), []).append((l, v))
        return table


def structure_constants(basis, cutoff=1e-12):
    """Extract structure constants of a basis by trace projection.

    Parameters
    ----------
    basis : LieBasis
    cutoff : float
        Entries with absolute value <= cutoff are treated as exact zeros.

    Returns
    -------
    StructureTensors

    Raises
    ------
    ValueError
        If any extracted constant has an imaginary part >= 1e-10, which
        indicates a broken basis (non-Hermitian or non-closed).
    """
    F = basis.generators
    # Projection denominators; all equal, but computing them keeps the
    # extraction correct for the unnormalized helper basis.
    denom = np.einsum("lab,lba->l", F, F).real
    prod = np.einsum("jab,kbc->jkac", F, F)
    prod_t = prod.transpose(1, 0, 2, 3)  # F_k F_j as (j, k) array
    # f_jkl = -i Tr([F_j, F_k] F_l) / denom_l, g analogous without the -i.
    f_all = -1j * np.einsum("jkab,lba->jkl", prod - prod_t, F) / denom
    g_all = np.einsum("jkab,lba->jkl", prod + prod_t, F) / denom

    def _sparse(name, t):
        imag_res = np.max(np.abs(t.imag))
        if imag_res >= 1e-10:
            raise ValueError(
                f"{name} constants have imaginary residue {imag_res:.3e}; "
                "basis is not a valid Hermitian generator set"
            )
        ind = np.argwhere(np.abs(t.real) > cutoff)  # sorted by (j, k, l)
        return ind, t.real[tuple(ind.T)]

    fi, fv = _sparse("f", f_all)
    gi, gv = _sparse("g", g_all)
    return StructureTensors(n=basis.n, f_ind=fi, f_val=fv, g_ind=gi, g_val=gv, cutoff=cutoff)


@dataclass
class SparsityReport:
    """Per-pair fill counts of the structure tensors.

    max_f / max_g give the largest number of distinct l indices attached to
    any single (j, k) pair.  For a Pauli word basis both maxima are at most
    one.
    """

    n: int
    max_f: int
    max_g: int
    f_pair_count: int
    g_pair_count: int

    @property
    def one_per_pair(self):
        return self.max_f <= 1 and self.max_g <= 1


def verify_sparsity(tensors):
    """Count nonzero l entries per (j, k) pair in both tensors.

    Returns a SparsityReport; the caller decides what counts as a pass.
    The scan is an honest count over the stored entries, not a shortcut
    through any assumed Pauli algebra.
    """

    def _max_per_pair(ind):
        if len(ind) == 0:
            return 0, 0
        keys = ind[:, 0] * tensors.n + ind[:, 1]
        _, counts = np.unique(keys, return_counts=True)
        return int(counts.max()), len(counts)

    max_f, pairs_f = _max_per_pair(tensors.f_ind)
    max_g, pairs_g = _max_per_pair(tensors.g_ind)
    return SparsityReport(
        n=tensors.n,
        max_f=max_f,
        max_g=max_g,
        f_pair_count=pairs_f,
        g_pair_count=pairs_g,
    )
