"""Multirate discrete models and continuous-time reconstruction.

A frame of length T is subdivided by offsets t_0 = 0 < ... < t_{l+1} = T.
Sampling x(kT + t_i) of dx/dt = A x + B u gives one discrete-time model
per offset, all sharing the frame map G = exp(A T):

    G_i     = exp(A t_i)
    F_tau_i = (integral_0^{tau_i} exp(A s) ds) B
    F_i     = exp(A (T - t_i)) F_tau_i

From the family of per-offset models one extracts single-rate transition
matrices G_tau_i = exp(A tau_i) = G_{i-1}^{-1} G_i (the offset maps
telescope), and from those the continuous pair (A, B): eigenvalues of A
are found as the intersection of the matrix-logarithm branch sets of the
G_tau_i over all rates, which is a single point per eigenvalue exactly
when the increment ratios avoid resonant (rational) alignment; the
eigenvectors are taken from the first rate and sharpened by one step of
inverse iteration on the frame map, and the eigenvalues corrected on it;
the input matrix follows from F_tau by inverting the exponential
integral (computed by the augmented-block trick: expm([[A, I], [0, 0]]
tau) carries the integral in its upper-right block).

Branch search is windowed: only candidates with |Im mu| <= pi / min(tau)
are considered, the resolution limit of the fastest rate.  Zero
survivors or more than one survivor raise, naming the cause; silent
aliasing is reserved for the genuinely unresolvable single-rate case.
"""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.linalg import expm

_TWO_PI = 2.0 * math.pi
_COND_CAP = 1e12  # eigenvector condition above which a rate counts as defective


@dataclass
class DiscreteMultirateModel:
    """Discrete-time models of one multirate sampling pattern.

    G_offsets[i] holds exp(A t_i) (fitted or exact) for i = 0 .. l+1, so
    G_offsets[0] is the identity and G_offsets[-1] equals G.  F holds the
    frame-tail input maps F_1 .. F_{l+1} when inputs were modeled, else
    None.
    """

    order: int
    T: float
    times: np.ndarray
    G: np.ndarray
    G_offsets: list
    C: np.ndarray
    F: list = None


@dataclass
class SingleRateFamily:
    """Per-increment transition matrices G_tau_i = exp(A tau_i)."""

    order: int
    taus: np.ndarray
    G_taus: list
    F_taus: list = None


@dataclass
class ContinuousModel:
    """Continuous drift A, input matrix B, and the eigenvalues of A: the
    matched branch of each mode, corrected on the frame map."""

    A: np.ndarray
    B: np.ndarray = None
    eigenvalues: np.ndarray = None
    window: float = None
    residuals: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def van_loan_integral(A, tau):
    """integral_0^tau exp(A s) ds via the augmented block exponential."""
    n = A.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = A
    blk[:n, n:] = np.eye(n)
    return expm(blk * tau)[:n, n:]


def exact_multirate_model(A, B, C, schedule):
    """Analytic multirate model of dx/dt = A x + B u sampled on `schedule`.

    This is the oracle-mode constructor used when the continuous system
    is known; fitting from records goes through fit_multirate.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    times = schedule.times
    T = schedule.T
    l = schedule.l

    G_offsets = [expm(A * t) for t in times]
    G = G_offsets[-1]
    F = []
    for i in range(1, l + 2):
        F_tau = van_loan_integral(A, times[i] - times[i - 1]) @ B
        F.append(expm(A * (T - times[i])) @ F_tau)
    return DiscreteMultirateModel(
        order=n, T=T, times=times.copy(), G=G, G_offsets=G_offsets, C=C, F=F
    )


def _states_from_record(record, order, C):
    if C is not None:
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if C.ndim != 2 or C.shape[1] != order:
            raise ValueError(
                f"output matrix C has shape {C.shape}; order {order} needs (p, {order})"
            )
    if record.x is not None:
        X = np.asarray(record.x, dtype=float)
        if X.shape[1] != order:
            raise ValueError(
                f"recorded states have dimension {X.shape[1]}, expected order {order}"
            )
        return X, np.eye(order) if C is None else C
    if C is None:
        raise ValueError("outputs-only fitting requires the output matrix C")
    # lstsq's rank uses matrix_rank's cutoff, eps max(p, order) sigma_max
    X, _, rank, _ = np.linalg.lstsq(C, record.y.T, rcond=None)
    if rank < order:
        raise ValueError(
            "output matrix does not have full column rank; states are not "
            "recoverable sample-by-sample"
        )
    return X.T, C


def _frame_weights(record, X0, C):
    """Weights w_k = 1 / hypot(eps |x(kT)|, sigma_x) of the frame equations.

    Rounding in a state is relative to its norm, and output noise of the
    stated record.meta["noise_sigma"] reaches a state recovered from y = C x
    as sigma_x = sigma |C^+|_2 (0 for snapshots).  Without a stated
    noise_sigma, and for a zero scale, the weight is 1.  Dividing by the
    largest weight makes uniform weights exactly 1.
    """
    sigma = record.meta.get("noise_sigma")
    if sigma is None:
        return np.ones(X0.shape[1])
    sigma_x = 0.0
    if record.x is None and sigma > 0:
        sigma_x = sigma * np.linalg.norm(np.linalg.pinv(C), 2)
    scale = np.hypot(np.finfo(float).eps * np.linalg.norm(X0, axis=0), sigma_x)
    w = np.divide(1.0, scale, out=np.ones_like(scale), where=scale > 0)
    return w / w.max()


def fit_multirate(record, schedule, order, C=None):
    """Weighted least-squares fit of per-offset transition matrices.

    Regresses x(kT + t_i) = G_i x(kT) over frames k for every offset i,
    and x((k+1)T) = G x(kT) for the frame map, frame k's equations scaled
    by the weight of `_frame_weights`.  All maps share the regressor X0
    of frame-start states, so they are one least-squares solve with the
    targets stacked; X0 must have full numerical rank, unweighted.
    States are taken from snapshots when the record carries them,
    otherwise recovered per sample from y = C x, which needs C of full
    column rank.  A C given with other than `order` columns raises
    ValueError naming its shape.

    The record must cover every offset of every frame (the layout the
    simulator produces).  Input maps F are not fit here; autonomous
    records carry no input information, so F stays None.
    """
    times = schedule.times
    M = schedule.frames
    l = schedule.l
    X, C_used = _states_from_record(record, order, C)

    # sample index of (frame k, offset i), -1 where the record has none;
    # frame k ends at (k + 1, 0), and the last frame at (M - 1, l + 1)
    frame = np.asarray(record.frame, dtype=int)
    offset = np.asarray(record.offset_index, dtype=int)
    inside = (frame >= 0) & (frame < M) & (offset >= 0) & (offset <= l + 1)
    at = np.full((M, l + 2), -1)
    at[frame[inside], offset[inside]] = np.flatnonzero(inside)
    missing = np.argwhere(at[:, : l + 1].T < 0)
    if len(missing):
        i, k = missing[0]
        raise ValueError(f"record is missing frame {k}, offset {i}")
    if at[M - 1, l + 1] < 0:
        raise ValueError(f"record is missing the frame-end state for frame {M - 1}")
    ends = np.append(at[1:, 0], at[M - 1, l + 1])
    X0 = X[at[:, 0]]  # (M, order)
    targets = np.concatenate([X[at[:, 1 : l + 1]], X[ends][:, None]], axis=1)

    rank0 = np.linalg.matrix_rank(X0)
    if rank0 < order:
        raise ValueError(
            f"rank-deficient regression: frame-start states span {rank0} of "
            f"{order} directions; more frames or a richer initial state needed"
        )

    # solve (W X0) K = W targets for every map at once, W = diag(w): one
    # factorization of W X0, and G_i = K_i^T for the i-th block of columns
    w = _frame_weights(record, X0.T, C_used)[:, None]
    K = np.linalg.lstsq(X0 * w, targets.reshape(M, -1) * w, rcond=None)[0]
    G_offsets = [np.eye(order)] + list(K.reshape(order, l + 1, order).transpose(1, 2, 0))
    G = G_offsets[-1]

    return DiscreteMultirateModel(
        order=order,
        T=schedule.T,
        times=times.copy(),
        G=G,
        G_offsets=G_offsets,
        C=C_used,
        F=None,
    )


def single_rate_models(model):
    """Extract G_tau_i = exp(A tau_i) from a multirate model.

    The offset maps telescope: G_offsets[i] = exp(A t_i), so
    G_tau_i = G_offsets[i-1]^{-1} G_offsets[i], one n x n solve per rate.
    A singular offset map raises a ValueError naming the offset.
    """
    n = model.order
    times = model.times
    G_taus = []
    for i in range(1, len(times)):
        try:
            G_taus.append(np.linalg.solve(model.G_offsets[i - 1], model.G_offsets[i]))
        except np.linalg.LinAlgError:
            raise ValueError(
                f"offset map {i - 1} is singular; single-rate extraction not possible"
            ) from None

    F_taus = None
    if model.F is not None:
        F_taus = []
        last = len(times) - 1
        for i in range(1, last):
            F_taus.append(np.linalg.solve(model.G, model.G_offsets[i] @ model.F[i - 1]))
        F_taus.append(model.F[last - 1])
    taus = np.diff(times)
    return SingleRateFamily(order=n, taus=taus, G_taus=G_taus, F_taus=F_taus)


def reconstruct_continuous(family, match_tol=1e-6):
    """Continuous (A, B) from single-rate transition matrices.

    Every G_tau_i equals exp(A tau_i), so each continuous eigenvalue must
    appear in the log-branch set of every rate.  Candidates are generated
    from the first rate inside the window |Im mu| <= pi / min(tau) and
    kept only if every other rate has a branch within `match_tol`; the
    candidates of all modes are matched at once, one (modes, branches)
    array against each other rate's branch set.  Exactly one survivor per
    eigenvalue is required; the first mode without one raises.

    Eigenvectors are taken from the first rate (all G_tau_i share them),
    requiring diagonalizability; a defective transition matrix raises.
    Each is then sharpened by one inverse-iteration step on the frame map
    P = prod G_tau_i = exp(A T), shifted by exp(mu_m T) for its chosen
    eigenvalue mu_m: v_m <- (P - exp(mu_m T) I)^{-1} v_m, normalised.
    Starting from the first rate keeps modes apart that alias on the
    frame (equal exp(mu T)); if the shifted solve is singular or not
    finite, which only exact data produce, the first-rate basis is kept.
    Each mu_m is then corrected on the frame map, whose whole length T
    measures it better than the shortest rate: mu_m += log(lam_m
    exp(-mu_m T)) / T with lam = diag(V^-1 P V), the principal log of a
    ratio near 1.  A real mode keeps the real part of its correction, and
    the second of a conjugate pair the conjugate of the first's, so the
    spectrum stays closed under conjugation.
    A singular transition matrix, zero or several branch survivors for a
    mode, and an imaginary residue in A raise ValueError.

    B is recovered from F_tau of the first rate by inverting the
    exponential integral, when input maps are present; otherwise B is
    None.

    Returns a ContinuousModel with per-rate relative residuals
    ||expm(A tau_i) - G_tau_i|| / ||G_tau_i|| for self-diagnosis, each
    expm(A tau_i) = V diag(exp(mu tau_i)) V^{-1} taken in the eigenbasis
    that A = V diag(mu) V^{-1} is built from.
    """
    taus = np.asarray(family.taus, dtype=float)
    G_list = family.G_taus
    n = family.order
    window = math.pi / taus.min()
    slack = 10 * match_tol

    lam0, V = np.linalg.eig(G_list[0])
    if np.min(np.abs(lam0)) < 1e-300:
        raise ValueError("transition matrix is singular; no matrix logarithm")
    if np.linalg.cond(V) > _COND_CAP:
        raise ValueError(
            "transition matrix is not reliably diagonalizable; defective "
            "(shared Jordan block) reconstruction is not supported"
        )

    def branches(lams, tau):
        # (modes, 2K+1) log branches of one rate and their in-window mask
        K = math.ceil(window * tau / _TWO_PI) + 2
        ks = np.arange(-K, K + 1)
        mus = (np.log(lams)[:, None] + 1j * _TWO_PI * ks[None, :]) / tau
        return mus, np.abs(mus.imag) <= window + slack

    cands, keep = branches(lam0, taus[0])
    for G, tau in zip(G_list[1:], taus[1:]):
        mus, inside = branches(np.linalg.eigvals(G), tau)
        o = mus[inside]
        keep &= np.min(np.abs(cands[:, :, None] - o), axis=2) <= match_tol

    counts = keep.sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        m, count = bad[0], counts[bad[0]]
        if count == 0:
            raise ValueError(
                f"no continuous eigenvalue consistent across rates for mode {m}; "
                "the fitted single-rate models disagree"
            )
        raise ValueError(
            f"branch ambiguity unresolved for mode {m}: {count} "
            "candidates survive; the sampling schedule cannot separate aliases"
        )
    mu = cands[keep]  # one survivor per mode, in mode order

    # one inverse-iteration step per mode on the frame map P = exp(A T)
    P = reduce(np.matmul, G_list)
    T = taus.sum()
    shifted = P - np.exp(mu * T)[:, None, None] * np.eye(n)
    try:
        W = np.linalg.solve(shifted, V.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:  # exact data: a shift hits P's spectrum
        W = V
    if np.all(np.isfinite(W)):
        V = W / np.linalg.norm(W, axis=0)

    Vinv = np.linalg.inv(V)
    # the frame's eigenvalues exp(mu T) in the sharpened basis correct mu;
    # real modes stay real and each conjugate pair, listed positive
    # imaginary part first, stays conjugate
    lam_P = np.einsum("ij,ji->i", Vinv, P @ V)
    corr = np.log(lam_P * np.exp(-mu * T)) / T
    real = lam0.imag == 0
    corr[real] = corr[real].real
    pos = np.flatnonzero(lam0.imag > 0)
    corr[pos + 1] = corr[pos].conj()
    mu = mu + corr
    A = V @ np.diag(mu) @ Vinv
    imag_res = np.max(np.abs(A.imag))
    if imag_res > 1e-6 * (1.0 + np.max(np.abs(A.real))):
        raise ValueError(
            f"reconstructed A has imaginary residue {imag_res:.3e}; "
            "input models are inconsistent"
        )
    A = A.real

    residuals = []
    for G, tau in zip(G_list, taus):
        G_fit = ((V * np.exp(mu * tau)) @ Vinv).real
        residuals.append(float(np.linalg.norm(G_fit - G) / max(np.linalg.norm(G), 1e-300)))

    B = None
    notes = []
    if family.F_taus is not None:
        J = van_loan_integral(A, taus[0])
        B, *_ = np.linalg.lstsq(J, family.F_taus[0], rcond=None)
    else:
        notes.append("no input maps in the family; B not recovered")

    return ContinuousModel(
        A=A, B=B, eigenvalues=mu, window=window, residuals=residuals, notes=notes
    )
