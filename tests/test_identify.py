"""Rank tests, sampling policy, persistency, and the combined report.

The word-span checker is cross-validated against a brute-force
enumerator written here: it applies every operator word up to the depth
bound to the seed and takes a plain matrix rank. Slow but unarguable.
"""

import warnings

import numpy as np
import pytest

from oqsident import (
    GkslParams,
    accessible_set,
    assemble_system,
    bilinear_span_test,
    build_basis,
    golden_schedule,
    hankel_matrix,
    identifiability_report,
    linear_rank_test,
    make_pulse_family,
    persistency_check,
    pulse_family_check,
    sampling_policy_check,
    structure_constants,
)
from oqsident.simulate import Pulse, SamplingSchedule


def brute_span_rank(ops, seeds, dim):
    """Rank of {word(ops) applied to seed columns, word length <= dim-1}."""
    seeds = np.asarray(seeds, dtype=float).reshape(dim, -1)
    vecs = [seeds[:, i] for i in range(seeds.shape[1])]
    frontier = list(vecs)
    for _ in range(dim - 1):
        nxt = [op @ v for v in frontier for op in ops]
        vecs.extend(nxt)
        frontier = nxt
    return int(np.linalg.matrix_rank(np.array(vecs).T))


def test_linear_rank_known_system():
    A = np.diag([1.0, 2.0])
    C = np.array([[1.0, 0.0]])
    B = np.array([[1.0], [1.0]])
    res = linear_rank_test(A, B, C)
    assert res.rank_obs == 1 and not res.observable
    assert res.rank_ctrl == 2 and res.controllable


def test_linear_rank_rotation_full():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    res = linear_rank_test(A, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))
    assert res.observable and res.controllable


def test_linear_rank_wide_spectrum_full():
    # distinct eigenvalues -1..-15: controllable and observable from one
    # column / row, though A^14 is 15^14 times larger than A^0
    A = np.diag(-np.arange(1, 16.0))
    res = linear_rank_test(A, np.eye(15), np.eye(15))
    assert res.rank_obs == 15 and res.rank_ctrl == 15
    res = linear_rank_test(A, np.ones((15, 1)), np.ones((1, 15)))
    assert res.observable and res.controllable


def test_bilinear_span_agrees_with_brute_force():
    rng = np.random.default_rng(101)
    for dim in (2, 3, 4):
        for _ in range(10):
            A = rng.normal(size=(dim, dim))
            k = rng.integers(1, 3)
            N_list = rng.normal(size=(k, dim, dim))
            b = rng.normal(size=dim)
            C = rng.normal(size=(rng.integers(1, dim + 1), dim))
            res = bilinear_span_test(A, N_list, b, C)
            ops = [A] + list(N_list)
            assert res.rank_ctrl == brute_span_rank(ops, b, dim)
            assert res.rank_obs == brute_span_rank([o.T for o in ops], C.T, dim)
            assert res.conclusive


def test_bilinear_span_empty_controls_is_kalman():
    rng = np.random.default_rng(103)
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    C = rng.normal(size=(2, 4))
    res = bilinear_span_test(A, [], b, C)
    lin = linear_rank_test(A, b[:, None], C)
    assert res.rank_ctrl == lin.rank_ctrl
    assert res.rank_obs == lin.rank_obs


def test_bilinear_span_detects_invariant_subspace():
    # block-diagonal A and N leave the second block unreachable from a
    # seed supported on the first
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    N = np.zeros((1, 4, 4))
    N[0, 0, 1] = 1.0
    N[0, 1, 0] = -1.0
    b = np.array([1.0, 0.0, 0.0, 0.0])
    res = bilinear_span_test(A, N, b, np.eye(4))
    assert res.rank_ctrl == 2
    assert res.status_ctrl == "closed"
    assert not res.full


def test_bilinear_span_word_cap():
    rng = np.random.default_rng(107)
    A = rng.normal(size=(5, 5))
    N_list = rng.normal(size=(3, 5, 5))
    b = rng.normal(size=5)
    res = bilinear_span_test(A, N_list, b, np.eye(5), word_cap=3)
    assert res.status_ctrl == "inconclusive-below-cap"
    assert not res.conclusive


def test_depolarizing_embedded_span_is_rank_deficient():
    # isotropic contraction with one rotation control: the span never
    # reaches the affine coordinate, and a z-axis control also loses the
    # rotation plane complement
    basis = build_basis(1)
    tensors = structure_constants(basis)
    f = tensors.f_dense()
    A_emb = np.zeros((4, 4))
    A_emb[:3, :3] = -0.5 * np.eye(3)
    C_emb = np.hstack([np.eye(3), np.zeros((3, 1))])
    seed = np.array([0.0, 0.0, 1.0 / np.sqrt(2.0), 1.0])
    expected_ctrl = {0: 3, 1: 3, 2: 2}
    for c in (0, 1, 2):
        N_emb = np.zeros((1, 4, 4))
        N_emb[0, :3, :3] = -f[c]
        res = bilinear_span_test(A_emb, N_emb, seed, C_emb)
        assert res.rank_ctrl == expected_ctrl[c]
        assert res.rank_obs == 3
        assert res.status_ctrl == "closed"
        assert res.status_obs == "closed"
        assert not res.full
        ops = [A_emb, N_emb[0]]
        assert res.rank_ctrl == brute_span_rank(ops, seed, 4)
        assert res.rank_obs == brute_span_rank([o.T for o in ops], C_emb.T, 4)


def test_sampling_policy_uniform_is_rational():
    sched = SamplingSchedule(T=0.5, times=[0.0, 0.25, 0.5])
    rep = sampling_policy_check(sched)
    assert not rep.ok
    assert not rep.declared
    assert rep.pairs[0].verdict == "rational"
    assert (rep.pairs[0].p, rep.pairs[0].q) == (1, 1)


def test_sampling_policy_rational_mix():
    sched = SamplingSchedule(T=1.0, times=[0.0, 0.25, 0.5, 1.0])
    rep = sampling_policy_check(sched)
    assert not rep.ok
    got = [(p.i, p.j, p.p, p.q) for p in rep.pairs]
    assert got == [(0, 1, 1, 1), (0, 2, 1, 2), (1, 2, 1, 2)]


def test_sampling_policy_declared_skips_scan():
    sched = golden_schedule(T=1.0, l=2)
    rep = sampling_policy_check(sched)
    assert rep.ok and rep.declared
    assert all(p.verdict == "irrational by construction" for p in rep.pairs)
    assert len(rep.pairs) == 3


def test_sampling_policy_undeclared_irrational_passes():
    # same increments as a golden schedule but without the declaration:
    # the scan finds no small denominator (the best q <= 1e6 approximation
    # of the golden ratio misses by ~4e-13, above the 1e-13 gate)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    sched = SamplingSchedule(T=1.0, times=[0.0, 1.0 / phi, 1.0])
    rep = sampling_policy_check(sched)
    assert rep.ok
    assert not rep.declared
    assert rep.pairs[0].verdict == "no small denominator found"


def test_hankel_shape():
    u = np.arange(12.0).reshape(6, 2)
    H = hankel_matrix(u, 3)
    assert H.shape == (6, 4)
    assert np.array_equal(H[:2, 0], u[0])
    assert np.array_equal(H[4:6, 3], u[5])


def test_persistency_impulse_fails_shifted_passes():
    assert persistency_check(np.array([1.0, 0.0, 0.0, 0.0]), L=2) is False
    assert persistency_check(np.array([0.0, 1.0, 0.0, 0.0]), L=2) is True


def test_persistency_random_input():
    rng = np.random.default_rng(109)
    u = rng.normal(size=9)
    assert persistency_check(u, L=3) is True
    with pytest.raises(ValueError):
        persistency_check(u, L=6)  # 9 - 6 + 1 < 6
    with pytest.raises(ValueError):
        persistency_check(u)  # L required


def test_persistency_states():
    rng = np.random.default_rng(113)
    X = rng.normal(size=(3, 5))
    assert persistency_check(X, kind="state") is True
    X[2] = X[0] + X[1]
    assert persistency_check(X, kind="state") is False
    with pytest.raises(ValueError):
        persistency_check(X, kind="spectral")


def test_accessible_set_single_axis():
    tensors = structure_constants(build_basis(1))
    acc = accessible_set(tensors, measured={2}, delta={0})
    assert tuple(acc.indices) == (1, 2)
    assert acc.iterations == 1
    S = acc.selector_matrix()
    assert S.shape == (2, 3)
    assert np.array_equal(S, np.array([[0, 1, 0], [0, 0, 1]], dtype=float))


def test_accessible_set_two_axes_close_everything():
    tensors = structure_constants(build_basis(1))
    acc = accessible_set(tensors, measured={2}, delta={0, 1})
    assert tuple(acc.indices) == (0, 1, 2)
    with pytest.raises(ValueError):
        accessible_set(tensors, measured={7}, delta={0})


def test_accessible_set_matches_brute_force_two_qubits():
    tensors = structure_constants(build_basis(2))
    f = tensors.f_dense()
    n = tensors.n
    rng = np.random.default_rng(217)
    cases = [({2}, {0}), ({0}, {0, 4}), ({14}, set(range(n)))]
    cases += [
        (set(rng.choice(n, size=2, replace=False)), set(rng.choice(n, size=3, replace=False)))
        for _ in range(8)
    ]
    for measured, delta in cases:
        current, iterations = set(measured), 0
        while True:
            additions = {
                l for g in current for h in delta for l in range(n) if f[g, h, l] != 0
            } - current
            if not additions:
                break
            current |= additions
            iterations += 1
        acc = accessible_set(tensors, measured=measured, delta=delta)
        assert acc.indices == tuple(sorted(current))
        assert acc.iterations == iterations


def test_pulse_family_check_clauses():
    ok, notes = pulse_family_check([])
    assert not ok and notes == ["pulse family degenerate (empty)"]
    fam = [Pulse(tau=0.1, alpha=1.0, channel=0), Pulse(tau=0.2, alpha=0.5, channel=0)]
    ok, notes = pulse_family_check(fam)
    assert not ok and notes == ["pulse family degenerate (mixed amplitudes)"]
    ok, notes = pulse_family_check([Pulse(tau=0.1, alpha=1.0, channel=0)])
    assert not ok
    assert notes == ["pulse family degenerate (fewer than two distinct widths)"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam0 = make_pulse_family(0.0, [0.1, 0.2])
    ok, notes = pulse_family_check(fam0)
    assert not ok and notes == ["pulse family degenerate (zero amplitude)"]
    ok, notes = pulse_family_check(make_pulse_family(0.8, [0.1, 0.2]))
    assert ok and notes == []


def _one_qubit_system(gamma, theta=None):
    basis = build_basis(1)
    tensors = structure_constants(basis)
    params = GkslParams(
        theta=np.array([0.0, 0.0, 1.3]) if theta is None else theta,
        gamma=gamma,
        symmetric=bool(np.isrealobj(gamma) and np.allclose(gamma, gamma.T)),
    )
    sys = assemble_system(basis, tensors, params)
    sys.x0 = np.array([0.0, 0.0, 1.0 / np.sqrt(2.0)])
    return sys


def test_report_controlled_symmetric_passes():
    sys = _one_qubit_system(np.diag([0.5, 0.3, 0.2]))
    fam = make_pulse_family(0.8, [0.1, 0.25, 0.4], channel=0)
    rep = identifiability_report(sys, mode="controlled", pulses=fam)
    assert rep.verdict is True
    assert rep.clauses == []
    # beta = 0 here, so the spans run on the bare 3-dimensional system
    assert rep.required_rank == 3
    assert rep.rank_obs == 3 and rep.rank_ctrl == 3


def test_report_controlled_affine_runs_embedded():
    gamma = np.array(
        [[0.5, 0.2j, 0.0], [-0.2j, 0.4, 0.1j], [0.0, -0.1j, 0.3]]
    )
    sys = _one_qubit_system(gamma, theta=np.array([0.7, 0.0, 1.1]))
    assert np.linalg.norm(sys.beta) > 1e-3  # offset genuinely present
    fam = make_pulse_family(0.8, [0.1, 0.25, 0.4], channel=0)
    rep = identifiability_report(sys, mode="controlled", pulses=fam)
    assert rep.verdict is True
    assert rep.required_rank == 4
    assert rep.rank_obs == 4 and rep.rank_ctrl == 4


def test_report_controlled_zero_amplitude_fails():
    sys = _one_qubit_system(np.diag([0.5, 0.3, 0.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam = make_pulse_family(0.0, [0.1, 0.2])
    rep = identifiability_report(sys, mode="controlled", pulses=fam)
    assert rep.verdict is False
    assert rep.pulses_ok is False
    assert "pulse family degenerate (zero amplitude)" in rep.clauses


def test_report_autonomous_golden_passes():
    sys = _one_qubit_system(np.diag([0.5, 0.3, 0.2]))
    rep = identifiability_report(
        sys, mode="autonomous", schedule=golden_schedule(T=0.5, l=2)
    )
    assert rep.verdict is True
    assert rep.clauses == []


def test_report_autonomous_three_qubit_random_passes():
    basis = build_basis(3)
    n = basis.n
    rng = np.random.default_rng(5)
    m = rng.normal(size=(n, n))
    params = GkslParams(theta=rng.normal(size=n), gamma=0.5 * m @ m.T / n, symmetric=True)
    sys = assemble_system(basis, structure_constants(basis), params)
    rep = identifiability_report(
        sys, mode="autonomous", schedule=golden_schedule(T=0.5, l=2)
    )
    assert rep.verdict is True
    assert rep.rank_obs == n and rep.rank_ctrl == n


def test_report_autonomous_uniform_fails_with_clause():
    sys = _one_qubit_system(np.diag([0.5, 0.3, 0.2]))
    sched = SamplingSchedule(T=0.5, times=[0.0, 0.25, 0.5])
    rep = identifiability_report(sys, mode="autonomous", schedule=sched)
    assert rep.verdict is False
    assert rep.clauses == ["sampling ratios rational (increment pairs [(0, 1)])"]


def test_report_argument_guards():
    sys = _one_qubit_system(np.diag([0.5, 0.3, 0.2]))
    with pytest.raises(ValueError):
        identifiability_report(sys, mode="autonomous")
    with pytest.raises(ValueError):
        identifiability_report(sys, mode="controlled")
    with pytest.raises(ValueError):
        identifiability_report(sys, mode="adaptive")
