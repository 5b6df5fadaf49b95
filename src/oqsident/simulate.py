"""Simulation of coherence-vector dynamics under pulsed controls.

Segments run between events: every pulse edge and every sample stamp, so
the piecewise-constant control never changes inside one.  On a segment
the drift is constant, and the state z = [x; 1] advances by one matrix,
formed once per distinct segment width and input and reused by every
segment that repeats them.  By default that matrix is the exact flow,
the matrix exponential of the segment's affine generator (Van Loan's
augmented block); all distinct segments go through one batched `expm`.
An integer `steps_per_interval` selects classical RK4 instead, its equal
steps applied at once as a power of the one-step propagator.

Sampling follows a multirate pattern: a frame of length T is subdivided by
offsets t_0 = 0 < t_1 < ... < t_{l+1} = T and the pattern repeats for a
number of frames.  Outputs y = C x are recorded at every frame offset
t_0 .. t_l of every frame plus the final time, tagged with frame index
and offset index so downstream regression can group them.

Control pulses are rectangular: u(t) = alpha for 0 <= t < tau on one
channel, zero afterwards, with t measured from the start of the
simulation.  A pulse of zero width is the zero input; it is kept in the
metadata so callers can tell a degenerate family from an empty one.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .gksl import CoherenceSystem, EmbeddedSystem, control_maps

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass
class Pulse:
    """Rectangular pulse u(t) = alpha on [0, tau) applied to one channel."""

    tau: float
    alpha: float
    channel: int

    def __post_init__(self):
        if not isinstance(self.channel, (int, np.integer)):
            raise ValueError(f"pulse channel must be an integer, got {self.channel!r}")
        if self.tau < 0:
            raise ValueError("pulse width tau must be nonnegative")


def make_pulse_family(alpha, taus, channel=0):
    """Family of rectangular pulses sharing one amplitude and channel.

    Widths are sorted and deduplicated.  A zero amplitude is allowed here
    (the family is then the zero input for every width) but it fails the
    identifiability pulse check downstream.
    """
    taus = sorted(set(float(t) for t in taus))
    if not taus:
        raise ValueError("need at least one pulse width")
    if alpha == 0:
        warnings.warn("pulse family with alpha = 0 is degenerate", stacklevel=2)
    return [Pulse(tau=t, alpha=alpha, channel=channel) for t in taus]


@dataclass
class SamplingSchedule:
    """Multirate sampling pattern over repeated frames of length T.

    Attributes
    ----------
    T : float
        Frame length.
    times : ndarray
        Offsets t_0 = 0 < t_1 < ... < t_{l+1} = T within one frame.
    frames : int
        Number of repeated frames.
    declared_irrational : bool
        Set when the increment ratios are irrational by construction or by
        the caller's declaration; the rationality scan is skipped then.
    note : str
        Free-form provenance of the declaration.
    """

    T: float
    times: np.ndarray
    frames: int = 1
    declared_irrational: bool = False
    note: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if not isinstance(self.T, (int, float, np.integer, np.floating)):
            raise ValueError(f"frame length T must be a real number, got {self.T!r}")
        if not isinstance(self.frames, (int, np.integer)):
            raise ValueError(f"frames must be an integer, got {self.frames!r}")
        if self.T <= 0:
            raise ValueError("frame length T must be positive")
        if self.frames < 1:
            raise ValueError("frames must be at least 1")
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("times must contain at least the endpoints 0 and T")
        if abs(self.times[0]) > 1e-12 * max(1.0, self.T):
            raise ValueError("first offset must be 0")
        if abs(self.times[-1] - self.T) > 1e-12 * max(1.0, self.T):
            raise ValueError("last offset must equal T")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("offsets must be strictly increasing")

    @property
    def taus(self):
        """Increments tau_i = t_i - t_{i-1}, i = 1 .. l+1."""
        return np.diff(self.times)

    @property
    def l(self):
        return len(self.times) - 2


def golden_schedule(T, l, frames=1):
    """Schedule whose increments are proportional to powers of the golden
    ratio, making every increment ratio irrational by construction."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    w = _PHI ** np.arange(l + 1)
    taus = T * w / w.sum()
    times = np.concatenate([[0.0], np.cumsum(taus)])
    times[-1] = T
    return SamplingSchedule(
        T=T,
        times=times,
        frames=frames,
        declared_irrational=True,
        note="increments proportional to powers of the golden ratio",
    )


@dataclass
class MeasurementRecord:
    """Sampled outputs of one simulation run.

    Arrays are index-aligned.  `pulse_id` holds the index of the pulse
    active at the stamp, or -1 when none is.  `x` carries full state
    snapshots when the run was made with record_states=True (oracle mode
    for regression tests); it is None otherwise.
    """

    t: np.ndarray
    y: np.ndarray
    frame: np.ndarray
    offset_index: np.ndarray
    pulse_id: np.ndarray
    x: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)


def simulate(
    sys,
    schedule,
    pulses=(),
    x0=None,
    noise_sigma=0.0,
    seed=None,
    record_states=False,
    steps_per_interval=None,
):
    """Propagate dx/dt = A x + beta + sum_c u_c N_c x and sample y = C x.

    Parameters
    ----------
    sys : CoherenceSystem or EmbeddedSystem
    schedule : SamplingSchedule
    pulses : iterable of Pulse
        Rectangular inputs, all referenced to simulation start.  Pulses on
        the same channel add while simultaneously active.  A channel
        outside the system's m raises ValueError.
    x0 : ndarray, optional
        Initial state; defaults to the system's stored x0.
    noise_sigma : float
        Standard deviation of iid Gaussian noise added to every output
        sample; finite and nonnegative.  Zero gives the noiseless record.
    seed : int, optional
        Seed for the noise generator; runs are reproducible given a seed.
    record_states : bool
        Also store exact state snapshots at the stamps (oracle mode).
    steps_per_interval : int, optional
        None (the default) propagates each segment by the exact flow, the
        matrix exponential of its affine generator.  A positive integer
        selects RK4 instead, its step never exceeding min(tau_i) divided
        by this.

    Returns
    -------
    MeasurementRecord
    """
    if steps_per_interval is not None and not (
        isinstance(steps_per_interval, (int, np.integer)) and steps_per_interval >= 1
    ):
        raise ValueError(
            f"steps_per_interval must be None or a positive integer, got {steps_per_interval!r}"
        )
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and nonnegative, got {noise_sigma!r}")
    if isinstance(sys, EmbeddedSystem):
        A, beta, C, x_default = sys.A_emb, np.zeros(sys.n + 1), sys.C_emb, sys.x0_emb
    elif isinstance(sys, CoherenceSystem):
        A, beta, C, x_default = sys.A, sys.beta, sys.C, sys.x0
    else:
        raise TypeError("sys must be a CoherenceSystem or EmbeddedSystem")
    dim = A.shape[0]
    x = np.array(x_default if x0 is None else x0, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},)")

    pulses = list(pulses)  # read below more than once; a generator would be spent
    zero_width = []
    for idx, p in enumerate(pulses):
        if not 0 <= p.channel < sys.m:
            raise ValueError(f"pulse {idx} channel {p.channel} out of range for {sys.m} channels")
        if p.tau == 0:
            zero_width.append(idx)
    channels = sorted({p.channel for p in pulses})
    N_list = control_maps(sys, channels)

    T = schedule.T
    times = schedule.times
    M = schedule.frames
    l = schedule.l

    # Sample stamps, one canonical arithmetic so event times match exactly.
    frame = np.append(np.repeat(np.arange(M), l + 1), M - 1)
    offset = np.append(np.tile(np.arange(l + 1), M), l + 1)
    stamp_times = frame * T + times[offset]
    t_end = stamp_times[-1]

    edges = [p.tau for p in pulses if 0.0 < p.tau < t_end]
    events = np.unique(np.concatenate([stamp_times, np.array(edges), [0.0, t_end]]))
    starts = events[:-1]

    # Inputs per segment and pulsed channel, and the pulse active at each
    # stamp (the first listed); a pulse is on while t < tau, so zero widths never are.
    U = np.zeros((len(starts), len(channels)))
    pulse_id = np.full(len(stamp_times), -1)
    for idx, p in enumerate(pulses):
        U[starts < p.tau, channels.index(p.channel)] += p.alpha
        pulse_id[(stamp_times < p.tau) & (pulse_id < 0)] = idx
    # segments share a propagator when their width and input bytes agree
    keys = np.column_stack([np.diff(events), U])
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, segment_key = np.unique(rows, return_index=True, return_inverse=True)

    # One propagator of z = [x; 1] per distinct segment width and input,
    # from H = h [[A + sum_c u_c N_c, beta], [0, 0]].  Exactly it is expm(H)
    # with h the width, all distinct segments in one batched call.  One RK4
    # step of size h is exactly P = I + H + H^2/2 + H^3/6 + H^4/24, so
    # nstep equal steps are P^nstep.  A zero row of H (the trailing 1, and
    # an embedded state's last entry) is an identity row of the flow, set
    # exactly so that entry stays 1.
    h_max = None if steps_per_interval is None else schedule.taus.min() / steps_per_interval
    eye = np.eye(dim + 1)
    H = np.zeros((len(first), dim + 1, dim + 1))  # last rows stay zero
    props = []
    for H_k, (width, *u) in zip(H, keys[first]):
        Mseg = A.copy()
        for c in np.nonzero(u)[0]:
            Mseg = Mseg + u[c] * N_list[c]
        nstep = 1 if h_max is None else max(1, math.ceil(width / h_max))
        h = width / nstep
        H_k[:dim, :dim] = h * Mseg
        H_k[:dim, dim] = h * beta
        if h_max is not None:
            # Horner form: P = I + H (I + H (I + H (I + H/4) / 3) / 2)
            P = eye + H_k / 4.0
            for d in (3.0, 2.0, 1.0):
                P = eye + (H_k @ P) / d
            props.append(np.linalg.matrix_power(P, nstep))
    if h_max is None:
        props = expm(H)
        fixed = np.nonzero(~H.any(axis=2))
        props[fixed] = eye[fixed[1]]

    Z = np.empty((len(events), dim + 1))
    Z[0, :dim] = x
    Z[0, dim] = 1.0
    for j, k in enumerate(segment_key):
        np.matmul(props[k], Z[j], out=Z[j + 1])

    X = Z[np.searchsorted(events, stamp_times), :dim]
    y = X @ C.T
    if noise_sigma > 0:
        y += noise_sigma * np.random.default_rng(seed).standard_normal(y.shape)

    return MeasurementRecord(
        t=stamp_times,
        y=y,
        frame=frame,
        offset_index=offset,
        pulse_id=pulse_id,
        x=X if record_states else None,
        meta={
            "noise_sigma": noise_sigma,
            "seed": seed,
            "steps_per_interval": steps_per_interval,
            "zero_width_pulses": zero_width,
        },
    )
