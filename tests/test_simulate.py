"""Propagators, schedules, and pulse bookkeeping.

The oracle for trajectory checks is the matrix exponential of the
embedded drift, evaluated piecewise over the constant-input segments;
`simulate` follows that exact flow by default.  The step-by-step RK4
loop is kept here as the reference for the propagator powers `simulate`
takes over each segment when given `steps_per_interval`, and
`oracles.simulate_reference`, which forms that power afresh for every
segment, as the bit-for-bit reference for reusing it.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oqsident import (
    GkslParams,
    MeasurementRecord,
    Pulse,
    SamplingSchedule,
    assemble_system,
    build_basis,
    embed_standard_form,
    golden_schedule,
    make_pulse_family,
    rho_to_coherence,
    simulate,
    structure_constants,
)
from oqsident.gksl import CoherenceSystem
from oracles import dense_controls, f_dense, segment_drifts, simulate_reference, sparse_controls

# the package exports the function `simulate` under the module's name
simulate_module = importlib.import_module("oqsident.simulate")
PHI = (1.0 + np.sqrt(5.0)) / 2.0


def toy_system(A, beta=None, N_list=None, C=None, x0=None):
    n = A.shape[0]
    return CoherenceSystem(
        n=n,
        A_l=A,
        A_d=np.zeros((n, n)),
        beta=np.zeros(n) if beta is None else beta,
        **sparse_controls(np.zeros((n, n, n)) if N_list is None else N_list),
        C=np.eye(n) if C is None else C,
        x0=x0,
    )


def flow(A, beta, x, dt):
    """Exact affine flow via the (n+1)-dimensional embedding."""
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = beta
    out = expm(M * dt) @ np.concatenate([x, [1.0]])
    return out[:n]


def test_golden_schedule_shape():
    sched = golden_schedule(T=1.0, l=2, frames=3)
    assert sched.times[0] == 0.0
    assert sched.times[-1] == 1.0
    assert sched.l == 2
    assert sched.frames == 3
    assert sched.declared_irrational
    taus = sched.taus
    assert np.allclose(taus[1:] / taus[:-1], PHI, atol=1e-12)
    assert abs(taus.sum() - 1.0) < 1e-12


def test_schedule_validation():
    with pytest.raises(ValueError):
        SamplingSchedule(T=0.0, times=[0.0, 0.0])
    with pytest.raises(ValueError):
        SamplingSchedule(T=1.0, times=[0.1, 1.0])
    with pytest.raises(ValueError):
        SamplingSchedule(T=1.0, times=[0.0, 0.5])
    with pytest.raises(ValueError):
        SamplingSchedule(T=1.0, times=[0.0, 0.6, 0.5, 1.0])
    with pytest.raises(ValueError):
        SamplingSchedule(T=1.0, times=[0.0, 1.0], frames=0)


def test_pulse_validation():
    with pytest.raises(ValueError):
        Pulse(tau=-0.1, alpha=1.0, channel=0)
    fam = make_pulse_family(0.7, [0.3, 0.1, 0.3])
    assert [p.tau for p in fam] == [0.1, 0.3]
    with pytest.warns(UserWarning):
        make_pulse_family(0.0, [0.1])


@pytest.mark.parametrize(
    "kwargs, field",
    [({"frames": 2.5}, "frames"), ({"frames": "2"}, "frames"), ({"T": "0.5"}, "T"),
     ({"T": None}, "T")],
)
def test_schedule_refuses_non_numbers(kwargs, field):
    # a float frame count used to pass and fail later inside simulate, a
    # string T with a TypeError from the comparison with 0
    args = {"T": 0.5, "times": [0.0, 0.2, 0.5], **kwargs}
    with pytest.raises(ValueError, match=rf"\b{field} must be"):
        SamplingSchedule(**args)


def test_schedule_takes_numpy_numbers():
    sched = SamplingSchedule(T=np.float64(0.5), times=[0.0, 0.2, 0.5], frames=np.int64(2))
    assert sched.frames == 2 and sched.T == 0.5


@pytest.mark.parametrize("channel", [0.5, 1.0, "0", None])
def test_pulse_refuses_non_integer_channel(channel):
    # channel 0.5 drove nothing in simulate, while the report counted it
    # as channel 0
    with pytest.raises(ValueError, match=r"pulse channel must be an integer"):
        Pulse(tau=0.6, alpha=2.0, channel=channel)
    assert Pulse(tau=0.6, alpha=2.0, channel=np.int64(1)).channel == 1


def test_stamp_layout():
    sched = SamplingSchedule(T=0.3, times=[0.0, 0.1, 0.3], frames=2)
    sys = toy_system(np.zeros((2, 2)))
    rec = simulate(sys, sched, x0=np.array([1.0, 0.0]))
    assert len(rec) == 2 * 2 + 1
    assert np.allclose(rec.t, [0.0, 0.1, 0.3, 0.4, 0.6], atol=1e-12)
    assert list(rec.frame) == [0, 0, 1, 1, 1]
    assert list(rec.offset_index) == [0, 1, 0, 1, 2]
    assert list(rec.pulse_id) == [-1] * 5


def test_autonomous_matches_expm():
    rng = np.random.default_rng(3)
    A = np.array([[0.0, 1.5], [-1.5, -0.2]])
    beta = np.array([0.1, -0.3])
    x0 = rng.normal(size=2)
    sched = golden_schedule(T=0.8, l=2, frames=2)
    sys = toy_system(A, beta=beta)
    rec = simulate(sys, sched, x0=x0, record_states=True)
    for t, x in zip(rec.t, rec.x):
        assert np.allclose(x, flow(A, beta, x0, t), atol=1e-9)
    # outputs are C x with C = identity here
    assert np.allclose(rec.y, rec.x, atol=0.0)


def test_pulse_segments_match_expm():
    # two overlapping pulses on one channel must add while both active
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Nc = np.zeros((1, 2, 2))
    Nc[0] = np.array([[0.0, 0.5], [0.5, 0.0]])
    sys = toy_system(A, N_list=Nc)
    x0 = np.array([1.0, 0.0])
    pulses = [
        Pulse(tau=0.2, alpha=0.5, channel=0),
        Pulse(tau=0.1, alpha=0.5, channel=0),
    ]
    sched = SamplingSchedule(T=0.3, times=[0.0, 0.05, 0.15, 0.3])
    rec = simulate(sys, sched, pulses=pulses, x0=x0, record_states=True)
    beta = np.zeros(2)
    segments = [(0.0, 0.1, 1.0), (0.1, 0.2, 0.5), (0.2, 0.3, 0.0)]

    def oracle(t):
        x = x0.copy()
        for a, b, lvl in segments:
            if t <= a:
                break
            dt = min(t, b) - a
            x = flow(A + lvl * Nc[0], beta, x, dt)
            if t <= b:
                break
        return x

    for t, x in zip(rec.t, rec.x):
        assert np.allclose(x, oracle(t), atol=1e-9), f"mismatch at t={t}"


def test_pulse_id_tags():
    A = np.zeros((2, 2))
    Nc = np.zeros((1, 2, 2))
    sys = toy_system(A, N_list=Nc)
    pulses = [Pulse(tau=0.12, alpha=1.0, channel=0)]
    sched = SamplingSchedule(T=0.2, times=[0.0, 0.1, 0.15, 0.2])
    rec = simulate(sys, sched, pulses=pulses, x0=np.zeros(2))
    # active on [0, 0.12): stamps at 0 and 0.1 only
    assert list(rec.pulse_id) == [0, 0, -1, -1]


def test_pulse_generator_reads_as_its_list():
    # simulate walks the pulses more than once, which a generator allows
    # only if it is read into a list first
    basis = build_basis(1)
    params = GkslParams(theta=[0.3, -0.2, 0.5], gamma=0.1 * np.eye(3), symmetric=True)
    sys = assemble_system(basis, structure_constants(basis), params)
    sched = golden_schedule(T=0.5, l=2, frames=3)
    family = make_pulse_family(0.8, [0.3, 0.7], channel=1)
    x0 = np.array([0.1, 0.2, 0.3])
    listed = simulate(sys, sched, pulses=family, x0=x0)
    generated = simulate(sys, sched, pulses=(p for p in family), x0=x0)
    for name in ("t", "y", "frame", "offset_index", "pulse_id"):
        assert np.array_equal(getattr(generated, name), getattr(listed, name))
    assert (listed.pulse_id >= 0).any()


def test_zero_width_pulse_is_zero_input():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Nc = np.ones((1, 2, 2))
    sys = toy_system(A, N_list=Nc)
    sched = golden_schedule(T=0.5, l=1)
    x0 = np.array([0.3, -0.7])
    quiet = simulate(sys, sched, x0=x0, record_states=True)
    poked = simulate(
        sys, sched, pulses=[Pulse(tau=0.0, alpha=5.0, channel=0)], x0=x0,
        record_states=True,
    )
    assert np.array_equal(quiet.x, poked.x)
    assert poked.meta["zero_width_pulses"] == [0]
    assert quiet.meta["zero_width_pulses"] == []


def test_pulse_channel_out_of_range():
    sys = toy_system(np.zeros((2, 2)), N_list=np.zeros((1, 2, 2)))
    sched = golden_schedule(T=0.5, l=1)
    with pytest.raises(ValueError):
        simulate(sys, sched, pulses=[Pulse(tau=0.1, alpha=1.0, channel=3)])


def test_noise_reproducible_and_unbiased():
    A = np.zeros((2, 2))
    sys = toy_system(A)
    sched = SamplingSchedule(T=1.0, times=np.linspace(0.0, 1.0, 6), frames=20)
    x0 = np.array([1.0, -1.0])
    a = simulate(sys, sched, x0=x0, noise_sigma=0.05, seed=11)
    b = simulate(sys, sched, x0=x0, noise_sigma=0.05, seed=11)
    c = simulate(sys, sched, x0=x0, noise_sigma=0.05, seed=12)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    clean = simulate(sys, sched, x0=x0)
    assert np.array_equal(clean.y[0], x0)
    # static system: noise sample mean should sit near the true state
    dev = a.y.mean(axis=0) - x0
    assert np.max(np.abs(dev)) < 0.05


def test_rk4_step_refinement():
    # halving the step should cut the error by about 2^4
    A = np.array([[0.0, 4.0], [-4.0, -0.5]])
    sys = toy_system(A)
    x0 = np.array([1.0, 0.0])
    sched = SamplingSchedule(T=1.0, times=[0.0, 0.5, 1.0])
    exact = flow(A, np.zeros(2), x0, 1.0)

    def err(spi):
        rec = simulate(sys, sched, x0=x0, steps_per_interval=spi,
                       record_states=True)
        return np.linalg.norm(rec.x[-1] - exact)

    e1, e2 = err(4), err(8)
    assert e2 < e1
    assert 8.0 < e1 / e2 < 32.0


def test_record_len_and_meta():
    sys = toy_system(np.zeros((3, 3)))
    sched = golden_schedule(T=0.4, l=2, frames=3)
    rec = simulate(sys, sched, x0=np.zeros(3), seed=5, steps_per_interval=50)
    assert isinstance(rec, MeasurementRecord)
    assert len(rec) == 3 * 3 + 1
    assert rec.x is None
    assert rec.meta["seed"] == 5
    assert rec.meta["steps_per_interval"] == 50


def test_exact_record_len_and_meta():
    # the default is the exact flow, stated as steps_per_interval None
    sys = toy_system(np.array([[0.0, 4.0], [-4.0, -0.5]]))
    sched = golden_schedule(T=0.4, l=2, frames=3)
    rec = simulate(sys, sched, x0=np.array([1.0, 0.0]), seed=5, record_states=True)
    assert len(rec) == 3 * 3 + 1
    assert rec.meta["seed"] == 5
    assert rec.meta["steps_per_interval"] is None
    exact = exact_states(sys, sched, [], np.array([1.0, 0.0]))
    assert np.linalg.norm(rec.x - exact) <= 1e-13


@pytest.mark.parametrize(
    "name, value",
    [
        ("steps_per_interval", -5),
        ("steps_per_interval", 0),
        ("steps_per_interval", 2.5),
        ("noise_sigma", -1.0),
        ("noise_sigma", float("nan")),
        ("noise_sigma", float("inf")),
    ],
)
def test_invalid_resolution_or_noise_rejected(name, value):
    sys = toy_system(np.zeros((2, 2)))
    sched = golden_schedule(T=0.5, l=1)
    with pytest.raises(ValueError, match=name):
        simulate(sys, sched, x0=np.zeros(2), **{name: value})


def rk4_reference(sys, schedule, pulses, x0, steps_per_interval):
    """States at the stamps from the stepwise classical RK4 loop."""
    stamps, segments = segment_drifts(sys.A, dense_controls(sys), schedule, pulses)
    h_max = schedule.taus.min() / steps_per_interval
    beta = sys.beta
    x = np.array(x0, dtype=float)
    states = {0.0: x}
    for a, b, Mseg in segments:
        nstep = max(1, math.ceil((b - a) / h_max))
        h = (b - a) / nstep
        for _ in range(nstep):
            k1 = Mseg @ x + beta
            k2 = Mseg @ (x + 0.5 * h * k1) + beta
            k3 = Mseg @ (x + 0.5 * h * k2) + beta
            k4 = Mseg @ (x + h * k3) + beta
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[b] = x
    return np.array([states[t] for t in stamps])


def exact_states(sys, schedule, pulses, x0):
    """States at the stamps from the piecewise exact affine flow."""
    stamps, segments = segment_drifts(sys.A, dense_controls(sys), schedule, pulses)
    x = np.array(x0, dtype=float)
    states = {0.0: x}
    for a, b, Mseg in segments:
        x = flow(Mseg, sys.beta, x, b - a)
        states[b] = x
    return np.array([states[t] for t in stamps])


_BASIS_1Q = build_basis(1)
_TENSORS_1Q = structure_constants(_BASIS_1Q)
_unit = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    gamma_re=st.lists(_unit, min_size=9, max_size=9),
    gamma_im=st.lists(_unit, min_size=9, max_size=9),
    x0=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    pulses=st.lists(
        st.tuples(st.floats(0.0, 2.5), st.floats(-2.0, 2.0), st.integers(0, 2)),
        max_size=4,
    ),
    T=st.floats(0.3, 1.2),
    l=st.integers(0, 2),
    frames=st.integers(1, 3),
    steps_per_interval=st.integers(1, 60),
)
def test_segment_propagator_matches_stepwise_rk4(
    theta, gamma_re, gamma_im, x0, pulses, T, l, frames, steps_per_interval
):
    # a physical 1-qubit generator with Hermitian PSD gamma, so beta != 0
    # in general, under random overlapping pulses
    m = np.reshape(gamma_re, (3, 3)) + 1j * np.reshape(gamma_im, (3, 3))
    gamma = 0.5 * (m @ m.conj().T)
    params = GkslParams(theta=np.array(theta), gamma=gamma)
    sys = assemble_system(_BASIS_1Q, _TENSORS_1Q, params)
    pulses = [Pulse(tau=tau, alpha=alpha, channel=c) for tau, alpha, c in pulses]
    sched = golden_schedule(T=T, l=l, frames=frames)
    x0 = np.array(x0)

    ref = rk4_reference(sys, sched, pulses, x0, steps_per_interval)
    scale = np.linalg.norm(ref)
    affine = simulate(sys, sched, pulses=pulses, x0=x0, record_states=True,
                      steps_per_interval=steps_per_interval)
    embedded = simulate(embed_standard_form(sys), sched, pulses=pulses,
                        x0=np.append(x0, 1.0), record_states=True,
                        steps_per_interval=steps_per_interval)
    assert np.linalg.norm(affine.x - ref) <= 1e-12 * scale
    assert np.linalg.norm(embedded.x[:, :3] - ref) <= 1e-12 * scale
    assert np.array_equal(embedded.x[:, 3], np.ones(len(embedded)))


_BASES = {q: build_basis(q) for q in (1, 2, 3)}
_TENSORS = {q: structure_constants(b) for q, b in _BASES.items()}


@settings(max_examples=40, deadline=None)
@given(
    qubits=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    pulses=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(-2.0, 2.0), st.integers(0, 62)),
        max_size=4,
    ),
    T=st.floats(0.3, 1.2),
    l=st.integers(0, 3),
    frames=st.integers(1, 3),
    embedded=st.booleans(),
    noise_sigma=st.sampled_from([0.0, 1e-3]),
)
def test_default_matches_piecewise_expm(qubits, seed, pulses, T, l, frames, embedded,
                                        noise_sigma):
    # a physical generator with Hermitian PSD gamma (so beta != 0 in
    # general) from a random mixed state, under pulses on several
    # channels whose edges fall inside the sampling intervals
    basis = _BASES[qubits]
    n = basis.n
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    params = GkslParams(theta=rng.normal(size=n), gamma=0.5 * m @ m.conj().T / n)
    sys = assemble_system(basis, _TENSORS[qubits], params)
    v = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
    x0 = rho_to_coherence(v @ v.conj().T / np.trace(v @ v.conj().T), basis)
    sched = golden_schedule(T=T, l=l, frames=frames)
    pulses = [Pulse(tau=f * frames * T, alpha=a, channel=c % n) for f, a, c in pulses]

    target = embed_standard_form(sys) if embedded else sys
    start = np.append(x0, 1.0) if embedded else x0
    rec = simulate(target, sched, pulses=pulses, x0=start, record_states=True,
                   noise_sigma=noise_sigma, seed=seed)
    exact = exact_states(sys, sched, pulses, x0)
    scale = 1e-13 * np.linalg.norm(x0)
    assert np.linalg.norm(rec.x[:, :n] - exact) <= scale
    if embedded:
        assert np.array_equal(rec.x[:, n], np.ones(len(rec)))
    # outputs are C x plus the noise drawn stamp by stamp
    C = target.C_emb if embedded else sys.C
    draws = np.random.default_rng(seed)
    noise = np.array([noise_sigma * draws.standard_normal(len(C)) for _ in rec.t])
    assert np.linalg.norm(rec.y - rec.x @ C.T - noise) <= scale * np.linalg.norm(C)


@pytest.mark.parametrize("embedded", [False, True])
def test_one_step_per_interval_is_rk4_not_expm(embedded):
    # with one step per shortest interval the propagator power must still
    # reproduce RK4, whose truncation error here is far above rounding
    rng = np.random.default_rng(41)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    params = GkslParams(theta=np.array([1.5, -0.8, 1.1]), gamma=0.3 * m @ m.conj().T)
    sys = assemble_system(_BASIS_1Q, _TENSORS_1Q, params)
    pulses = [Pulse(tau=0.7, alpha=1.2, channel=1), Pulse(tau=0.45, alpha=-0.6, channel=1)]
    sched = golden_schedule(T=1.0, l=2, frames=2)
    x0 = np.array([0.3, -0.2, 0.4])
    target = embed_standard_form(sys) if embedded else sys
    start = np.append(x0, 1.0) if embedded else x0
    rec = simulate(target, sched, pulses=pulses, x0=start, record_states=True,
                   steps_per_interval=1)
    got = rec.x[:, :3]
    ref = rk4_reference(sys, sched, pulses, x0, 1)
    exact = exact_states(sys, sched, pulses, x0)
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(got - ref) <= 1e-12 * scale
    assert np.linalg.norm(got - exact) > 1e-6 * scale


_SYS_1Q = assemble_system(_BASIS_1Q, _TENSORS_1Q, GkslParams(
    theta=np.array([1.5, -0.8, 1.1]),
    gamma=np.array([[0.5, 0.1 + 0.2j, 0.0], [0.1 - 0.2j, 0.4, 0.1j], [0.0, -0.1j, 0.3]]),
))
# pulses as (edge / simulated time, alpha, channel), embedded, noise_sigma
_PARITY_CASES = {
    "autonomous": ([], False, 0.0),
    "edges-inside": ([(0.37, 1.3, 0), (0.81, -0.7, 0)], False, 0.0),
    "two-channels": ([(0.6, 1.1, 0), (0.45, -0.9, 2)], False, 0.0),
    "zero-width": ([(0.0, 1.5, 1), (0.5, 0.8, 1)], False, 0.0),
    "embedded": ([(0.37, 1.3, 0), (0.6, -0.9, 2)], True, 0.0),
    "noise": ([(0.6, 1.1, 1)], False, 0.05),
}


@pytest.mark.parametrize("case", list(_PARITY_CASES))
@settings(max_examples=15, deadline=None)
@given(
    T=st.floats(0.3, 1.2),
    l=st.integers(0, 3),
    frames=st.integers(1, 6),
    steps_per_interval=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_reused_segment_powers_are_bit_identical(case, T, l, frames, steps_per_interval, seed):
    spec, embedded, noise_sigma = _PARITY_CASES[case]
    sched = golden_schedule(T=T, l=l, frames=frames)
    pulses = [Pulse(tau=f * frames * T, alpha=a, channel=c) for f, a, c in spec]
    x0 = np.array([0.3, -0.2, 0.4])
    target = embed_standard_form(_SYS_1Q) if embedded else _SYS_1Q
    start = np.append(x0, 1.0) if embedded else x0
    kwargs = dict(pulses=pulses, x0=start, noise_sigma=noise_sigma, seed=seed,
                  steps_per_interval=steps_per_interval)
    # the dense maps as the structure constants give them, (N_c)_jk = -f_cjk
    N_list = np.zeros((3, len(start), len(start)))
    N_list[:, :3, :3] = -f_dense(_TENSORS_1Q)
    y_ref, x_ref = simulate_reference(target, N_list, sched, **kwargs)
    rec = simulate(target, sched, record_states=True, **kwargs)
    assert np.array_equal(rec.y, y_ref)
    assert np.array_equal(rec.x, x_ref)
    assert np.array_equal(simulate(target, sched, **kwargs).y, y_ref)


@pytest.mark.parametrize("embedded", [False, True])
@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_pulsed_records_match_dense_reference(num_qubits, embedded):
    # simulate forms dense maps only for the pulsed channels; its records
    # are bit for bit those of the reference fed every map densely
    basis, n = _BASES[num_qubits], _BASES[num_qubits].n
    rng = np.random.default_rng(71 + num_qubits)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    params = GkslParams(theta=rng.normal(size=n), gamma=0.5 * m @ m.conj().T / n)
    sys = assemble_system(basis, _TENSORS[num_qubits], params)
    target = embed_standard_form(sys) if embedded else sys
    x0 = 0.1 * rng.normal(size=n)
    start = np.append(x0, 1.0) if embedded else x0
    N_list = np.zeros((n, len(start), len(start)))
    N_list[:, :n, :n] = -f_dense(_TENSORS[num_qubits])
    pulses = [Pulse(tau=0.37, alpha=1.3, channel=n - 1), Pulse(tau=0.6, alpha=-0.9, channel=0),
              Pulse(tau=0.81, alpha=0.5, channel=n - 1)]
    sched = golden_schedule(T=0.5, l=2, frames=3)
    kwargs = dict(pulses=pulses, x0=start, steps_per_interval=5)
    y_ref, x_ref = simulate_reference(target, N_list, sched, **kwargs)
    rec = simulate(target, sched, record_states=True, **kwargs)
    assert np.array_equal(rec.y, y_ref)
    assert np.array_equal(rec.x, x_ref)


def test_one_power_per_distinct_segment(monkeypatch):
    powers = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(
        np.linalg, "matrix_power", lambda P, k: powers.append(k) or matrix_power(P, k)
    )
    sched = golden_schedule(T=0.5, l=2, frames=17)
    pulses = [Pulse(tau=0.8, alpha=1.1, channel=0)]
    simulate(_SYS_1Q, sched, pulses=pulses, x0=np.array([0.3, -0.2, 0.4]),
             steps_per_interval=50)
    _, segments = segment_drifts(_SYS_1Q.A, dense_controls(_SYS_1Q), sched, pulses)
    distinct = {(b - a, a < 0.8) for a, b, _ in segments}
    assert len(powers) == len(distinct) < len(segments) // 4


def test_one_expm_per_distinct_segment(monkeypatch):
    # the exact default takes one batched expm, one matrix per distinct
    # (width, input) pair, and no RK4 power
    exponentiated = []
    batched = simulate_module.expm
    monkeypatch.setattr(
        simulate_module, "expm", lambda H: exponentiated.append(len(H)) or batched(H)
    )
    monkeypatch.setattr(np.linalg, "matrix_power", None)
    sched = golden_schedule(T=0.5, l=2, frames=17)
    pulses = [Pulse(tau=0.8, alpha=1.1, channel=0), Pulse(tau=1.3, alpha=-0.4, channel=2)]
    simulate(_SYS_1Q, sched, pulses=pulses, x0=np.array([0.3, -0.2, 0.4]))
    _, segments = segment_drifts(_SYS_1Q.A, dense_controls(_SYS_1Q), sched, pulses)
    distinct = {(b - a, a < 0.8, a < 1.3) for a, b, _ in segments}
    assert exponentiated == [len(distinct)]
    assert len(distinct) < len(segments) // 3
