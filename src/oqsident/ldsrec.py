"""Multirate discrete models and continuous-time reconstruction.

A frame of length T is subdivided by offsets t_0 = 0 < ... < t_{l+1} = T.
Sampling x(kT + t_i) of dx/dt = A x + B u gives one discrete-time model
per offset, all sharing the frame map G = exp(A T):

    G_i     = exp(A t_i)
    F_tau_i = (integral_0^{tau_i} exp(A s) ds) B
    F_i     = exp(A (T - t_i)) F_tau_i
    Gamma   = [C; C G_1; ...; C G_l]     (stacked readout block, file only)

From the family of per-offset models one extracts single-rate transition
matrices G_tau_i = exp(A tau_i) = G_{i-1}^{-1} G_i (the offset maps
telescope), and from those the continuous pair (A, B): eigenvalues of A
are found as the intersection of the matrix-logarithm branch sets of the
G_tau_i over all rates, which is a single point per eigenvalue exactly
when the increment ratios avoid resonant (rational) alignment; the
eigenvectors are taken from the first rate and sharpened by one step of
inverse iteration on the frame map; the input matrix follows from F_tau
by inverting the exponential integral (computed by the augmented-block
trick: expm([[A, I], [0, 0]] tau) carries the integral in its
upper-right block).

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


@dataclass
class DiscreteMultirateModel:
    """Discrete-time models of one multirate sampling pattern.

    G_offsets[i] holds exp(A t_i) (fitted or exact) for i = 0 .. l+1, so
    G_offsets[0] is the identity and G_offsets[-1] equals G.  F holds the
    frame-tail input maps F_1 .. F_{l+1} when inputs were modeled, else
    None.  Gamma is kept only for the `model` file schema; no
    reconstruction step reads it.
    """

    order: int
    T: float
    times: np.ndarray
    G: np.ndarray
    G_offsets: list
    Gamma: np.ndarray
    C: np.ndarray
    F: list = None


@dataclass
class SingleRateFamily:
    """Per-increment transition matrices G_tau_i = exp(A tau_i)."""

    order: int
    taus: np.ndarray
    G_taus: list
    C: np.ndarray
    F_taus: list = None


@dataclass
class ContinuousModel:
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
    Gamma = np.vstack([C @ G_offsets[i] for i in range(l + 1)])
    return DiscreteMultirateModel(
        order=n, T=T, times=times.copy(), G=G, G_offsets=G_offsets, Gamma=Gamma, C=C, F=F
    )


def _states_from_record(record, order, C):
    if record.x is not None:
        X = np.asarray(record.x, dtype=float)
        if X.shape[1] != order:
            raise ValueError(
                f"recorded states have dimension {X.shape[1]}, expected order {order}"
            )
        return X, np.eye(order) if C is None else np.atleast_2d(C)
    if C is None:
        raise ValueError("outputs-only fitting requires the output matrix C")
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if np.linalg.matrix_rank(C) < order:
        raise ValueError(
            "output matrix does not have full column rank; states are not "
            "recoverable sample-by-sample"
        )
    X, *_ = np.linalg.lstsq(C, record.y.T, rcond=None)
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

    Regresses x(kT + t_i) = G_i x(kT) over frames k, offset by offset,
    and x((k+1)T) = G x(kT) for the frame map, frame k's equations scaled
    by the weight of `_frame_weights`.  States are taken from snapshots
    when the record carries them, otherwise recovered per sample from
    y = C x, which needs C of full column rank.

    The record must cover every offset of every frame (the layout the
    simulator produces).  Input maps F are not fit here; autonomous
    records carry no input information, so F stays None.
    """
    times = schedule.times
    M = schedule.frames
    l = schedule.l
    X, C_used = _states_from_record(record, order, C)

    by_key = {}
    for s in range(len(record.t)):
        by_key[(int(record.frame[s]), int(record.offset_index[s]))] = X[s]

    def column_block(offset):
        cols = []
        for k in range(M):
            key = (k, offset)
            if key not in by_key:
                raise ValueError(f"record is missing frame {k}, offset {offset}")
            cols.append(by_key[key])
        return np.array(cols).T  # (order, M)

    X0 = column_block(0)
    rank0 = np.linalg.matrix_rank(X0)
    if rank0 < order:
        raise ValueError(
            f"rank-deficient regression: frame-start states span {rank0} of "
            f"{order} directions; more frames or a richer initial state needed"
        )

    w = _frame_weights(record, X0, C_used)

    def regress(target):
        # solve K (X0 W) = target W for K, W = diag(w)
        K, *_ = np.linalg.lstsq((X0 * w).T, (target * w).T, rcond=None)
        return K.T

    G_offsets = [np.eye(order)]
    for i in range(1, l + 1):
        G_offsets.append(regress(column_block(i)))

    nxt = []
    for k in range(M):
        key = (k + 1, 0) if k + 1 < M else (M - 1, l + 1)
        if key not in by_key:
            raise ValueError(f"record is missing the frame-end state for frame {k}")
        nxt.append(by_key[key])
    G = regress(np.array(nxt).T)
    G_offsets.append(G)

    Gamma = np.vstack([C_used @ G_offsets[i] for i in range(l + 1)])
    return DiscreteMultirateModel(
        order=order,
        T=schedule.T,
        times=times.copy(),
        G=G,
        G_offsets=G_offsets,
        Gamma=Gamma,
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
    return SingleRateFamily(order=n, taus=taus, G_taus=G_taus, C=model.C, F_taus=F_taus)


def reconstruct_continuous(family, match_tol=1e-6, cond_cap=1e12):
    """Continuous (A, B) from single-rate transition matrices.

    Every G_tau_i equals exp(A tau_i), so each continuous eigenvalue must
    appear in the log-branch set of every rate.  Candidates are generated
    from the first rate inside the window |Im mu| <= pi / min(tau) and
    kept only if every other rate has a branch within `match_tol`.
    Exactly one survivor per eigenvalue is required.

    Eigenvectors are taken from the first rate (all G_tau_i share them),
    requiring diagonalizability; a defective transition matrix raises.
    Each is then sharpened by one inverse-iteration step on the frame map
    P = prod G_tau_i = exp(A T), shifted by exp(mu_m T) for its chosen
    eigenvalue mu_m: v_m <- (P - exp(mu_m T) I)^{-1} v_m, normalised.
    Starting from the first rate keeps modes apart that alias on the
    frame (equal exp(mu T)); if the shifted solve is singular or not
    finite, which only exact data produce, the first-rate basis is kept.
    A singular transition matrix, zero or several branch survivors for a
    mode, and an imaginary residue in A raise ValueError.

    B is recovered from F_tau of the first rate by inverting the
    exponential integral, when input maps are present; otherwise B is
    None.

    Returns a ContinuousModel with per-rate relative residuals
    ||expm(A tau_i) - G_tau_i|| / ||G_tau_i|| for self-diagnosis.
    """
    taus = np.asarray(family.taus, dtype=float)
    G_list = family.G_taus
    n = family.order
    window = math.pi / taus.min()
    slack = 10 * match_tol

    lam0, V = np.linalg.eig(G_list[0])
    if np.min(np.abs(lam0)) < 1e-300:
        raise ValueError("transition matrix is singular; no matrix logarithm")
    if np.linalg.cond(V) > cond_cap:
        raise ValueError(
            "transition matrix is not reliably diagonalizable; defective "
            "(shared Jordan block) reconstruction is not supported"
        )

    def branch_set(lams, tau):
        K = math.ceil(window * tau / _TWO_PI) + 2
        ks = np.arange(-K, K + 1)
        mus = (np.log(lams)[:, None] + 1j * _TWO_PI * ks[None, :]) / tau
        mus = mus.reshape(-1)
        return mus[np.abs(mus.imag) <= window + slack]

    others = [branch_set(np.linalg.eigvals(G), tau) for G, tau in zip(G_list[1:], taus[1:])]

    mu = np.empty(n, dtype=complex)
    for m in range(n):
        cands = branch_set(np.array([lam0[m]]), taus[0])
        survivors = [
            c for c in cands if all(np.min(np.abs(c - o)) <= match_tol for o in others)
        ]
        if len(survivors) == 0:
            raise ValueError(
                f"no continuous eigenvalue consistent across rates for mode {m}; "
                "the fitted single-rate models disagree"
            )
        if len(survivors) > 1:
            raise ValueError(
                f"branch ambiguity unresolved for mode {m}: {len(survivors)} "
                "candidates survive; the sampling schedule cannot separate aliases"
            )
        mu[m] = survivors[0]

    # one inverse-iteration step per mode on the frame map P = exp(A T)
    P = reduce(np.matmul, G_list)
    shifted = P - np.exp(mu * taus.sum())[:, None, None] * np.eye(n)
    try:
        W = np.linalg.solve(shifted, V.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:  # exact data: a shift hits P's spectrum
        W = V
    if np.all(np.isfinite(W)):
        V = W / np.linalg.norm(W, axis=0)

    A = V @ np.diag(mu) @ np.linalg.inv(V)
    imag_res = np.max(np.abs(A.imag))
    if imag_res > 1e-6 * (1.0 + np.max(np.abs(A.real))):
        raise ValueError(
            f"reconstructed A has imaginary residue {imag_res:.3e}; "
            "input models are inconsistent"
        )
    A = A.real

    residuals = []
    for G, tau in zip(G_list, taus):
        residuals.append(
            float(np.linalg.norm(expm(A * tau) - G) / max(np.linalg.norm(G), 1e-300))
        )

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
