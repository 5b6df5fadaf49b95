"""Identifiability diagnostics for sampled linear and bilinear systems.

Four ingredient checks feed one report:

* Kalman-style observability/controllability ranks for linear systems.
* Word-span ranks for bilinear systems: the controllable span collects
  products A_{i1} ... A_{ik} b with each factor drawn from {A} union the
  control matrices and word length k <= n - 1 (k = 0 keeps b itself); the
  observable span applies transposed factors to the rows of C.  With no
  control matrices both spans reduce exactly to the linear Kalman ranks.
  The controlled report takes only the control matrices of the channels
  its pulses drive.
* A rationality scan of sampling increment ratios.  Equal increments make
  eigenvalue aliases indistinguishable, so a rational ratio is a failure;
  irrationality of a float cannot be certified, only declared, so the
  scan looks for small-denominator rational fits and otherwise reports a
  warning-grade verdict.
* A pulse family check: rectangular pulses of common nonzero amplitude
  and at least two distinct widths.

The word-span computation expands only directions that are new at each
length (a Krylov-style closure), so it is polynomial even though the
word count it accounts for is combinatorial.  A seed block that is
already full rank, such as B = I or C = I in the autonomous report, is
decided from its singular values alone, without singular vectors.  Each
length applies every operator to the new directions in one product of
the stacked operators, and the closure stops as soon as the span is
full.  A hard cap on enumerated words guards pathological inputs;
hitting the cap yields an explicit inconclusive status, never a silent
truncation.  The rank tests take A as (n, n), each control as (n, n),
seeds b as (n,) or (n, m) and C as (p, n) or (n,); any other shape
raises ValueError naming both shapes.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gksl import embed_standard_form

_EPS = np.finfo(float).eps


@dataclass
class LinearRankResult:
    n: int
    rank_obs: int
    rank_ctrl: int

    @property
    def observable(self):
        return self.rank_obs == self.n

    @property
    def controllable(self):
        return self.rank_ctrl == self.n


def linear_rank_test(A, B, C):
    """Kalman ranks of (A, B, C).

    The ranks of [B, AB, ..., A^{n-1} B] and [C; CA; ...; C A^{n-1}],
    computed as the word spans of `bilinear_span_test` with no control
    matrices.  The span normalizes each new direction before deciding its
    rank, so the growth of A^k with k cannot push true directions below
    the rank cutoff.  B may be given as (n, m), (m, n) or (n,); a shape
    that is none of these raises ValueError, as `bilinear_span_test` does
    for A and C.
    """
    A = _square(A)
    n = A.shape[0]
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.ndim == 2 and B.shape[0] != n and B.shape[1] == n:
        B = B.T
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError(f"B must be ({n}, m) or (m, {n}), got shape {B.shape}")
    span = bilinear_span_test(A, [], B, C)
    return LinearRankResult(n=n, rank_obs=span.rank_obs, rank_ctrl=span.rank_ctrl)


def _square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    return A


def _normalize_columns(V):
    norms = np.linalg.norm(V, axis=0)
    keep = norms > 1e-300
    return V[:, keep] / norms[keep]


def _word_span(ops, seeds, dim, word_cap):
    """Rank of the span of words op_{i1} ... op_{ik} s, k <= dim - 1.

    Returns (rank, status, words_applied).  Status is one of
    'full-rank', 'closed', 'depth-exhausted', 'inconclusive-below-cap';
    only the last is non-conclusive.  A seed block with at least dim
    columns is first ranked from its singular values alone, and returns
    at once when that rank is dim; a narrower block, or a wide one short
    of full rank, takes one SVD with vectors for its basis.  The closure
    stops as soon as the rank reaches dim, before orthogonalizing that
    level's images.  Each level applies every operator in one product of
    the (k dim, dim) operator stack, formed only once the seeds fall
    short of full rank.
    """
    seeds = _normalize_columns(np.atleast_2d(seeds))
    if seeds.shape[1] == 0:
        return 0, "closed", 0
    if seeds.shape[1] >= dim:
        s = np.linalg.svd(seeds, compute_uv=False)
        if np.sum(s > max(seeds.shape) * _EPS * s[0]) == dim:
            return dim, "full-rank", 0
    U, s, _ = np.linalg.svd(seeds, full_matrices=False)
    r = int(np.sum(s > max(seeds.shape) * _EPS * s[0]))
    if r == dim:
        return dim, "full-rank", 0
    basis = U[:, :r]
    frontier = basis
    words = 0
    k = len(ops)
    stack = np.concatenate(ops)

    for _ in range(dim - 1):
        cost = k * frontier.shape[1]
        if words + cost > word_cap:
            return basis.shape[1], "inconclusive-below-cap", words
        words += cost
        # operator-major columns: op_0 frontier, op_1 frontier, ...
        images = (stack @ frontier).reshape(k, dim, -1).transpose(1, 0, 2)
        images = _normalize_columns(images.reshape(dim, -1))
        if images.shape[1] == 0:
            return basis.shape[1], "closed", words
        # the rank increment is decided on the stacked matrix with the
        # standard matrix_rank cutoff; thresholding residual singular
        # values in isolation lets rounding noise through and the basis
        # can then outgrow the space
        new = int(np.linalg.matrix_rank(np.hstack([basis, images]))) - basis.shape[1]
        if new <= 0:
            return basis.shape[1], "closed", words
        if basis.shape[1] + new == dim:
            return dim, "full-rank", words
        resid = images - basis @ (basis.T @ images)
        Ur, _, _ = np.linalg.svd(resid, full_matrices=False)
        fresh = Ur[:, :new]
        # one re-orthogonalization pass against accumulated rounding
        fresh = fresh - basis @ (basis.T @ fresh)
        fresh = _normalize_columns(fresh)
        basis = np.hstack([basis, fresh])
        frontier = fresh

    return basis.shape[1], "depth-exhausted", words


@dataclass
class BilinearSpanResult:
    dim: int
    rank_ctrl: int
    status_ctrl: str
    words_ctrl: int
    rank_obs: int
    status_obs: str
    words_obs: int

    @property
    def full(self):
        return self.rank_ctrl == self.dim and self.rank_obs == self.dim

    @property
    def conclusive(self):
        return "inconclusive-below-cap" not in (self.status_ctrl, self.status_obs)


def bilinear_span_test(A, N_list, b, C, word_cap=None):
    """Word-span ranks of a bilinear system dx/dt = A x + sum u_c N_c x.

    Parameters
    ----------
    A : ndarray, (n, n)
    N_list : sequence of ndarray, each (n, n)
        Control matrices; an empty sequence reduces the test to the
        linear Kalman ranks of (A, b, C).
    b : ndarray, (n,) or (n, m)
        Seed vector or matrix of seed columns for the controllable span.
    C : ndarray, (p, n) or (n,)
        Output matrix; its rows seed the observable span.
    word_cap : int, optional
        Cap on enumerated operator applications per span, default 10 n^2.

    Each span stops once its rank reaches n.  Raises ValueError, naming
    the expected and actual shapes, when A is not square or a control
    matrix, b or C does not match A.
    """
    A = _square(A)
    dim = A.shape[0]
    if word_cap is None:
        word_cap = 10 * dim * dim
    ops = [A] + [np.asarray(Nc, dtype=float) for Nc in N_list]
    for c, op in enumerate(ops[1:]):
        if op.shape != (dim, dim):
            raise ValueError(f"control {c} must be ({dim}, {dim}), got shape {op.shape}")
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != dim:
        raise ValueError(f"b must be ({dim},) or ({dim}, m), got shape {b.shape}")
    C = np.asarray(C, dtype=float)
    if C.ndim not in (1, 2) or C.shape[-1] != dim:
        raise ValueError(f"C must be (p, {dim}) or ({dim},), got shape {C.shape}")
    C = np.atleast_2d(C)
    rank_c, st_c, w_c = _word_span(ops, b.reshape(dim, -1), dim, word_cap)
    rank_o, st_o, w_o = _word_span([op.T for op in ops], C.T, dim, word_cap)
    return BilinearSpanResult(
        dim=dim,
        rank_ctrl=rank_c,
        status_ctrl=st_c,
        words_ctrl=w_c,
        rank_obs=rank_o,
        status_obs=st_o,
        words_obs=w_o,
    )


@dataclass
class PairVerdict:
    """Rationality verdict for one pair of sampling increments."""

    i: int
    j: int
    ratio: float
    verdict: str
    p: int = None
    q: int = None


@dataclass
class SamplingPolicyReport:
    pairs: list
    ok: bool
    declared: bool


def sampling_policy_check(schedule, max_denominator=10**6, rel_tol=1e-13):
    """Scan increment ratios of a schedule for small-denominator rationals.

    A declared-irrational schedule skips the scan.  Otherwise each ratio
    tau_i / tau_j is fit by the best rational with denominator up to
    `max_denominator`; a relative fit error below `rel_tol` is classified
    as rational and fails.  Anything else gets the warning-grade verdict
    'no small denominator found': floats cannot certify irrationality.

    The tolerance is deliberately tighter than the best q <= 1e6
    approximations of the golden ratio or sqrt(2) (relative error around
    4e-13), so genuinely irrational constructions do not false-positive.
    """
    taus = schedule.taus
    pairs = []
    if schedule.declared_irrational:
        verdict = "irrational by construction" if schedule.note else "declared irrational"
        for i in range(len(taus)):
            for j in range(i + 1, len(taus)):
                pairs.append(PairVerdict(i=i, j=j, ratio=taus[i] / taus[j], verdict=verdict))
        return SamplingPolicyReport(pairs=pairs, ok=True, declared=True)

    ok = True
    for i in range(len(taus)):
        for j in range(i + 1, len(taus)):
            r = taus[i] / taus[j]
            frac = Fraction(r).limit_denominator(max_denominator)
            err = abs(r - float(frac))
            if err <= rel_tol * abs(r):
                pairs.append(
                    PairVerdict(
                        i=i,
                        j=j,
                        ratio=r,
                        verdict="rational",
                        p=frac.numerator,
                        q=frac.denominator,
                    )
                )
                ok = False
            else:
                pairs.append(
                    PairVerdict(i=i, j=j, ratio=r, verdict="no small denominator found")
                )
    return SamplingPolicyReport(pairs=pairs, ok=ok, declared=False)


def hankel_matrix(u, L):
    """Block Hankel matrix of depth L: column j holds u(j) ... u(j+L-1)."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    T, m = u.shape
    cols = T - L + 1
    if cols < 1:
        raise ValueError("sample length must be at least L")
    H = np.empty((L * m, cols))
    for i in range(L):
        H[i * m : (i + 1) * m, :] = u[i : i + cols].T
    return H


def persistency_check(samples, L=None, kind="input"):
    """Persistency of excitation test.

    kind='input': samples is the input sequence u(0..T-1) (1-D or (T, m));
    the block Hankel matrix of depth L must have full row rank L*m.
    Requires T - L + 1 >= L columns.

    kind='state': samples holds state snapshots as columns, at least n of
    them (n = state dimension); the matrix of all the snapshots must have
    rank n.

    Returns a plain bool.
    """
    if kind == "input":
        if L is None:
            raise ValueError("L is required for the input-sequence test")
        u = np.asarray(samples, dtype=float)
        T = u.shape[0]
        if T - L + 1 < L:
            raise ValueError(f"need T - L + 1 >= L columns, got T={T}, L={L}")
        H = hankel_matrix(u, L)
        return bool(np.linalg.matrix_rank(H) == H.shape[0])
    if kind == "state":
        X = np.atleast_2d(np.asarray(samples, dtype=float))
        n = X.shape[0]
        if X.shape[1] < n:
            raise ValueError(f"need at least n={n} state snapshots, got {X.shape[1]}")
        return bool(np.linalg.matrix_rank(X) == n)
    raise ValueError("kind must be 'input' or 'state'")


@dataclass
class AccessibleSet:
    """Closure of measured generator indices under commutators with the
    dynamical algebra, computed on the structure constants."""

    n: int
    indices: tuple
    iterations: int

    def selector_matrix(self):
        """0/1 output matrix selecting the accessible coherence entries."""
        C = np.zeros((len(self.indices), self.n))
        for row, idx in enumerate(self.indices):
            C[row, idx] = 1.0
        return C


def accessible_set(tensors, measured, delta):
    """Iteratively grow the measured index set by commutator reachability.

    An index l joins the set when f_ghl is nonzero for some already
    accessible g and some h in the dynamical set delta.  Terminates at a
    fixed point; the number of growth iterations is recorded.
    """
    n = tensors.n
    measured = set(int(i) for i in measured)
    delta = set(int(i) for i in delta)
    for name, s in (("measured", measured), ("delta", delta)):
        bad = [i for i in s if not 0 <= i < n]
        if bad:
            raise ValueError(f"{name} indices out of range: {bad}")
    j, k, l = tensors.f_ind.T
    in_delta = np.isin(k, list(delta))
    current = set(measured)
    iterations = 0
    while True:
        additions = set(l[in_delta & np.isin(j, list(current))].tolist()) - current
        if not additions:
            break
        current |= additions
        iterations += 1
    return AccessibleSet(n=n, indices=tuple(sorted(current)), iterations=iterations)


def pulse_family_check(pulses):
    """Validate a rectangular pulse family for identification use.

    The family must be non-empty, share one nonzero amplitude, and offer
    at least two distinct widths (a single width cannot sweep the family
    parameter).  Returns (ok, notes) where notes lists every violated
    clause; violations are all phrased as 'pulse family degenerate'.
    """
    notes = []
    pulses = list(pulses)
    if not pulses:
        return False, ["pulse family degenerate (empty)"]
    alphas = {p.alpha for p in pulses}
    if len(alphas) > 1:
        notes.append("pulse family degenerate (mixed amplitudes)")
    if 0.0 in alphas:
        notes.append("pulse family degenerate (zero amplitude)")
    widths = {p.tau for p in pulses}
    if len(widths) < 2:
        notes.append("pulse family degenerate (fewer than two distinct widths)")
    return not notes, notes


@dataclass
class IdentifiabilityReport:
    mode: str
    verdict: bool
    inconclusive: bool
    required_rank: int
    rank_obs: int
    rank_ctrl: int
    sampling: SamplingPolicyReport = None
    pulses_ok: bool = None
    clauses: list = field(default_factory=list)
    channels: tuple = None  # controlled mode: the driven control channels


def _affine_seed(b, n):
    """Embedded seed: an (n,) or (n, m) b gains a last row of ones, an
    (n + 1,) or (n + 1, m) b is already embedded."""
    if b.ndim not in (1, 2) or b.shape[0] not in (n, n + 1):
        raise ValueError(
            f"b must be ({n},), ({n}, m), ({n + 1},) or ({n + 1}, m) on an affine "
            f"system, got shape {b.shape}"
        )
    return b if b.shape[0] == n + 1 else np.concatenate([b, np.ones((1,) + b.shape[1:])])


def identifiability_report(
    system, mode="autonomous", schedule=None, pulses=None, b=None, word_cap=None
):
    """Combined identifiability verdict for a coherence-vector system.

    mode='autonomous': Kalman ranks of (A, I, C) plus the sampling-ratio
    scan of the schedule.  Taking B = I encodes a freely preparable
    initial state, which is the regime where the linear test applies.

    mode='controlled': pulse family check plus the bilinear word-span
    ranks of A and the control maps of the channels the pulses drive,
    `channels` in the report; a pulse channel out of range raises
    ValueError.  When the system has a nonzero affine offset the spans are
    evaluated on the standard-form embedding with seed [x0; 1]; otherwise
    on the bare system with seed b (default x0).

    The verdict is True only when every applicable clause passes; failing
    clauses are listed verbatim in `clauses`.  An inconclusive span
    (word cap hit) yields verdict False with `inconclusive` set.
    """
    if mode == "autonomous":
        if schedule is None:
            raise ValueError("autonomous mode requires a schedule")
        lr = linear_rank_test(system.A, np.eye(system.n), system.C)
        samp = sampling_policy_check(schedule)
        clauses = []
        if not lr.observable:
            clauses.append(f"observability rank deficient ({lr.rank_obs}/{lr.n})")
        if not lr.controllable:
            clauses.append(f"controllability rank deficient ({lr.rank_ctrl}/{lr.n})")
        if not samp.ok:
            bad = [(p.i, p.j) for p in samp.pairs if p.verdict == "rational"]
            clauses.append(f"sampling ratios rational (increment pairs {bad})")
        return IdentifiabilityReport(
            mode=mode,
            verdict=not clauses,
            inconclusive=False,
            required_rank=lr.n,
            rank_obs=lr.rank_obs,
            rank_ctrl=lr.rank_ctrl,
            sampling=samp,
            clauses=clauses,
        )

    if mode == "controlled":
        if pulses is None:
            raise ValueError("controlled mode requires a pulse family")
        pulses = list(pulses)
        channels = tuple(sorted({int(p.channel) for p in pulses}))
        bad = [c for c in channels if not 0 <= c < len(system.N_list)]
        if bad:
            raise ValueError(
                f"pulse channels {bad} out of range for {len(system.N_list)} control maps"
            )
        pulses_ok, clauses = pulse_family_check(pulses)
        if np.linalg.norm(system.beta) > 1e-12:
            emb = embed_standard_form(system, channels)
            A, N_list, C = emb.A_emb, emb.N_list_emb, emb.C_emb
            if b is None:
                seed = emb.x0_emb
            else:
                seed = _affine_seed(np.asarray(b, dtype=float), system.n)
        else:
            A, N_list, C = system.A, system.N_list[list(channels)], system.C
            seed = system.x0 if b is None else np.asarray(b, dtype=float)
        if np.linalg.norm(seed) == 0:
            clauses.append("seed state is zero")
        span = bilinear_span_test(A, N_list, seed, C, word_cap=word_cap)
        if span.rank_ctrl < span.dim:
            clauses.append(
                f"controllable span rank deficient ({span.rank_ctrl}/{span.dim},"
                f" status {span.status_ctrl}, channels {list(channels)})"
            )
        if span.rank_obs < span.dim:
            clauses.append(
                f"observable span rank deficient ({span.rank_obs}/{span.dim},"
                f" status {span.status_obs}, channels {list(channels)})"
            )
        inconclusive = not span.conclusive
        if inconclusive:
            clauses.append("word span inconclusive below cap")
        return IdentifiabilityReport(
            mode=mode,
            verdict=pulses_ok and span.full and span.conclusive,
            inconclusive=inconclusive,
            required_rank=span.dim,
            rank_obs=span.rank_obs,
            rank_ctrl=span.rank_ctrl,
            pulses_ok=pulses_ok,
            clauses=clauses,
            channels=channels,
        )

    raise ValueError("mode must be 'autonomous' or 'controlled'")
