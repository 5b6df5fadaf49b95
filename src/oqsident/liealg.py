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
      {F_j, F_k}  = (2/N) delta_jk I + sum_l g_jkl F_l,

  equivalently by the trace formulas

      f_jkl = -i Tr([F_j, F_k] F_l) / Tr(F_l F_l)
      g_jkl =    Tr({F_j, F_k} F_l) / Tr(F_l F_l),

  which hold for the unnormalized helper basis as well (plain Pauli words,
  Tr(F_l F_l) = N).  `structure_constants` computes them in closed form by
  the Pauli product rule, not by projection.
* f is real and totally antisymmetric, g is real and symmetric in its first
  two indices with g_jjl = 0.  For a Pauli word basis both tensors are very
  sparse: for fixed (j, k) at most one l carries a nonzero f and at most one
  l carries a nonzero g.
* Word a, the identity included, is w_a Z^z_a X^x_a: bit strings x_a, z_a
  and w_a a power of -i.  These codes from `pauli_transform` are the one
  source of the stack G_a[p, p ^ x_a] = w_a H[z_a, p] / sqrt(N) (H the
  Walsh-Hadamard matrix), of f and g, and of the O(N^5) transforms between
  process, superoperator and transfer matrices.  A `LieBasis` holds only
  its qubit count and scale; `jsonio.read_basis` checks a file's stack.

All indices in the Python API are 0-based.  The JSON interchange layer
converts to 1-based records.
"""

import functools
import itertools
from dataclasses import dataclass

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


def _word_stack(t, normalized):
    """(N^2, N, N) stack of all words, identity first, scattered from the
    codes of the `PauliTransform` t and scaled by 1/sqrt(N) if normalized."""
    N, p = t.N, np.arange(t.N)
    G = np.zeros((N * N, N, N), dtype=complex)
    G[np.arange(N * N)[:, None], p, p ^ t.x[:, None]] = t.w[:, None] * t.H[t.z]
    return G / np.sqrt(N) if normalized else G


@dataclass(frozen=True)
class LieBasis:
    """The Pauli word basis of su(2^q), held as its qubit count and scale.
    The rest follows from the word codes, the dense stack (read-only) when
    it is first read.

    Attributes
    ----------
    num_qubits : int
        1 to 4.
    normalized : bool
        True for the trace-orthonormal scaling 1/sqrt(N), False for the
        raw Pauli words (see `build_basis`).
    dim : int
        Hilbert space dimension N = 2**num_qubits.
    n : int
        Number of traceless generators, N**2 - 1.
    words : list of str
        Pauli word labels, index-aligned with `generators`.
    generators : ndarray, shape (n, N, N)
        The matrices F_1 .. F_n (0-based as generators[0..n-1]).
    identity : ndarray, shape (N, N)
        The identity component, I / sqrt(N) when normalized, plain I
        otherwise.
    """

    num_qubits: int
    normalized: bool = True

    def __post_init__(self):
        q = self.num_qubits
        if not (isinstance(q, (int, np.integer)) and 1 <= q <= 4):
            raise ValueError(f"num_qubits: {q!r} is not an integer from 1 to 4")

    @property
    def dim(self):
        return 2**self.num_qubits

    @property
    def n(self):
        return 4**self.num_qubits - 1

    @property
    def words(self):
        return pauli_words(self.num_qubits)

    @functools.cached_property
    def _stack(self):
        G = _word_stack(pauli_transform(self.num_qubits), self.normalized)
        G.flags.writeable = False
        return G

    @property
    def identity(self):
        return self._stack[0]

    @property
    def generators(self):
        return self._stack[1:]


def build_basis(num_qubits, normalized=True):
    """The `LieBasis` of su(2^q), q = num_qubits from 1 to 4: words scaled
    by 1/sqrt(N), so that Tr(F_m F_n) = delta_mn, or, with normalized=False,
    plain Pauli words for scale cross-checks of the structure constants
    (e.g. f = 2*epsilon for one qubit)."""
    return LieBasis(num_qubits, normalized)


@dataclass
class StructureTensors:
    """Sparse structure constants of a LieBasis.

    Only nonzero entries are stored.  The COO index arrays are 0-based
    and sorted lexicographically by (j, k, l).

    Attributes
    ----------
    n : int
    f_ind : ndarray, shape (nnz_f, 3), int
        Indices (j, k, l) of nonzero antisymmetric constants.
    f_val : ndarray, shape (nnz_f,), float
    g_ind, g_val : ndarray
        Same layout for the symmetric constants.
    """

    n: int
    f_ind: np.ndarray
    f_val: np.ndarray
    g_ind: np.ndarray
    g_val: np.ndarray


def structure_constants(basis):
    """Structure constants of a Pauli word basis by the Pauli product rule.

    With the word codes (x, z, w) of `pauli_transform`, w Z^z X^x times
    w' Z^z' X^x' is w w' (-1)^popcount(x & z') Z^(z ^ z') X^(x ^ x'), so
    F_j F_k = s phase_jk F_l with F_l the word of (z_j ^ z_k, x_j ^ x_k)
    (the identity for j = k), the word scale s (1/sqrt(N) or 1) and
    phase_jk = w_j w_k H[x_j, z_k] / w_l.  Hence f_jkl = 2 s Im(phase_jk)
    and, for l not the identity, g_jkl = 2 s Re(phase_jk).

    Parameters
    ----------
    basis : LieBasis
        Normalized or raw.

    Returns
    -------
    StructureTensors
    """
    t = pauli_transform(basis.num_qubits)
    scale = 1.0 / np.sqrt(t.N) if basis.normalized else 1.0
    x, z, w = t.x[1:, None], t.z[1:, None], t.w[1:, None]
    word = t.word[z ^ z.T, x ^ x.T] - 1  # -1 is the identity
    phase = w * w.T * t.H[x, z.T] * t.w[word + 1].conj()  # 1/w is conj(w)
    f = 2 * scale * phase.imag
    g = 2 * scale * phase.real
    g[word < 0] = 0.0  # the identity part of {F_j, F_j} is not in g

    def _coo(t):
        j, k = np.nonzero(t)  # row-major, so sorted by (j, k, l)
        return np.stack([j, k, word[j, k]], axis=1), t[j, k]

    fi, fv = _coo(f)
    gi, gv = _coo(g)
    return StructureTensors(n=basis.n, f_ind=fi, f_val=fv, g_ind=gi, g_val=gv)


@dataclass(frozen=True)
class PauliTransform:
    """Walsh-Hadamard tables of the q-qubit normalized word stack
    G_0 = I/sqrt(N), G_1 .. G_n (identity first, `pauli_words` order).

    `superop` and `transfer` are the dense products Gm^T c Gm and
    Gm X Gm^T with the (N^2, N^2) reshaped stack Gm, each factored as a
    gather, two real GEMMs of H against an (N, 2N^3) array and a gather:
    O(N^5) against O(N^6).  Between the gathers a word pair (a, b) sits at
    (z_a, z_b, x_a, x_b), the Hadamard layout, so that both GEMMs contract
    a leading axis.  Every table is shaped as the array it produces.

    Attributes
    ----------
    N : int
    x, z : ndarray, shape (N^2,), int
        Bit strings of each word w_a Z^z_a X^x_a, qubit 0 most significant.
    w : ndarray, shape (N^2,), complex
        Phase of each word, a power of -i.
    word : ndarray, shape (N, N), int
        word[z, x] is the index of the word with codes z and x.
    H : ndarray, shape (N, N)
        Sylvester Walsh-Hadamard matrix, H[z, p] = (-1)^popcount(z & p).
    words : ndarray, shape (N, N^3)
        Flat index of the word pair at each Hadamard-layout position.
    phases : ndarray, shape (N, N^3)
        w_a w_b / N at each Hadamard-layout position: a power of i over N,
        exact, where two factors of 1/sqrt(N) would each be rounded.
    pairs : ndarray, shape (N^2, N^2)
        Hadamard-layout position of each word pair; the inverse of `words`.
    superop_index : ndarray, shape (N, N, N, N)
        Position (p, s, p ^ r, s ^ q) of the superoperator entry [p, r, s, q].
    transfer_index : ndarray, shape (N, N^3)
        Superoperator entry [q ^ x_a, r, r ^ x_b, q] at position (q, r, x_a, x_b).
    """

    N: int
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    word: np.ndarray
    H: np.ndarray
    words: np.ndarray
    phases: np.ndarray
    pairs: np.ndarray
    superop_index: np.ndarray
    transfer_index: np.ndarray

    def _hadamard(self, A):
        """Contract the first two of the four N-long axes of the complex
        (N, N^3) array A with H, as two real GEMMs on its float view."""
        N, H = self.N, self.H
        A = (H @ A.view(float)).reshape(N, N, -1)
        return np.matmul(H, A).reshape(N, -1).view(complex)

    def superop(self, c):
        """(N, N, N, N) array P[p, r, s, q] = sum_ab c_ab G_a[p, r] G_b[s, q]
        of the (N^2, N^2) matrix c, so that L(rho) = sum_ab c_ab G_a rho G_b
        is L(rho)[p, q] = sum_rs P[p, r, s, q] rho[r, s]."""
        A = self._hadamard(c.reshape(-1)[self.words] * self.phases)
        return A.reshape(-1)[self.superop_index]

    def transfer(self, P):
        """(N^2, N^2) matrix R[j, k] = Tr(G_j L(G_k)), the Pauli transfer
        matrix of the superoperator L(rho)[p, q] = sum_rs P[p, r, s, q]
        rho[r, s] given by the complex array P.  transfer(superop(.)) is an
        involution: it maps a process matrix to its transfer matrix and
        back."""
        A = self._hadamard(P.reshape(-1)[self.transfer_index]) * self.phases
        return A.reshape(-1)[self.pairs]


@functools.lru_cache(maxsize=None)
def pauli_transform(num_qubits):
    """The `PauliTransform` of `num_qubits` qubits, built once and cached.

    Each symbol is w Z^z X^x with (x, z, w) read off `_PAULI` (sigma_y =
    -i Z X); a word's x, z and w are the bit strings and the product of its
    symbols' values, qubit 0 most significant.  The tables are read-only.
    """
    N = 2**num_qubits
    sym = []
    for s in _SYMBOLS:
        x = int(np.argmax(np.abs(_PAULI[s][0])))
        w = _PAULI[s][0, x]
        sym.append((x, int(_PAULI[s][1, 1 ^ x] == -w), w))
    xs, zs, ws = (np.array(v) for v in zip(*sym))
    x, z, w = np.zeros(1, int), np.zeros(1, int), np.ones(1, complex)
    H = np.ones((1, 1))
    for _ in range(num_qubits):
        x = (2 * x[:, None] + xs).ravel()
        z = (2 * z[:, None] + zs).ravel()
        w = (w[:, None] * ws).ravel()
        H = np.kron(H, [[1.0, 1.0], [1.0, -1.0]])
    word = np.empty((N, N), dtype=int)
    word[z, x] = np.arange(N * N)
    a, b, c, d = np.ix_(*[np.arange(N)] * 4)
    words = (word[a, c] * N * N + word[b, d]).reshape(N, -1)
    pairs = np.empty(N**4, dtype=int)
    pairs[words.reshape(-1)] = np.arange(N**4)
    tables = dict(
        x=x, z=z, w=w, word=word,
        H=H,
        words=words,
        phases=(w[word[a, c]] * w[word[b, d]] / N).reshape(N, -1),
        pairs=pairs.reshape(N * N, -1),
        superop_index=((a * N + c) * N + (a ^ b)) * N + (c ^ d),
        transfer_index=((((a ^ c) * N + b) * N + (b ^ d)) * N + a).reshape(N, -1),
    )
    for v in tables.values():
        v.flags.writeable = False
    return PauliTransform(N=N, **tables)


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
