"""Discrete multirate models and continuous-time recovery.

Oracles here are closed forms: the affine/exponential integrals have
analytic values for invertible A, and every reconstruction claim is
checked against the matrices the model was generated from.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from oqsident import (
    GkslParams,
    assemble_system,
    build_basis,
    exact_multirate_model,
    fit_multirate,
    golden_schedule,
    reconstruct_continuous,
    rho_to_coherence,
    simulate,
    single_rate_models,
    structure_constants,
    van_loan_integral,
)
from oqsident.gksl import CoherenceSystem
from oqsident.ldsrec import SingleRateFamily, _frame_weights
from oqsident.simulate import MeasurementRecord, SamplingSchedule
from oracles import single_rate_reference


def rot(w):
    return np.array([[0.0, w], [-w, 0.0]])


def random_stable(rng, n, margin=0.3):
    A = rng.normal(size=(n, n))
    return A - (np.max(np.linalg.eigvals(A).real) + margin) * np.eye(n)


def linear_system(A, C=None):
    n = A.shape[0]
    return CoherenceSystem(
        n=n,
        A_l=A,
        A_d=np.zeros((n, n)),
        beta=np.zeros(n),
        N_list=np.zeros((0, n, n)),
        C=np.eye(n) if C is None else C,
    )


def test_van_loan_against_closed_form():
    rng = np.random.default_rng(211)
    A = random_stable(rng, 4)
    tau = 0.37
    J = van_loan_integral(A, tau)
    closed = np.linalg.solve(A, expm(A * tau) - np.eye(4))
    assert np.allclose(J, closed, atol=1e-12)
    assert np.allclose(van_loan_integral(np.zeros((3, 3)), 0.5), 0.5 * np.eye(3),
                       atol=1e-14)


def test_exact_model_structure():
    rng = np.random.default_rng(213)
    A = random_stable(rng, 3)
    B = rng.normal(size=(3, 2))
    C = rng.normal(size=(2, 3))
    sched = golden_schedule(T=0.9, l=2)
    model = exact_multirate_model(A, B, C, sched)
    assert np.array_equal(model.G_offsets[0], np.eye(3))
    assert np.allclose(model.G, expm(A * 0.9), atol=1e-12)
    for t, Gi in zip(sched.times, model.G_offsets):
        assert np.allclose(Gi, expm(A * t), atol=1e-12)
    assert model.Gamma.shape == (2 * 3, 3)
    assert np.allclose(model.Gamma[:2], C, atol=1e-14)
    assert len(model.F) == sched.l + 1


def test_exact_model_frame_recursion():
    # one frame of piecewise-constant input: x(T) = G x(0) + sum_i F_i u_i
    rng = np.random.default_rng(217)
    A = random_stable(rng, 3)
    B = rng.normal(size=(3, 1))
    sched = golden_schedule(T=0.7, l=2)
    model = exact_multirate_model(A, B, np.eye(3), sched)
    x = rng.normal(size=3)
    levels = rng.normal(size=sched.l + 1)
    x_direct = x.copy()
    for i in range(sched.l + 1):
        tau = sched.times[i + 1] - sched.times[i]
        x_direct = expm(A * tau) @ x_direct + (van_loan_integral(A, tau) @ B
                                               * levels[i]).ravel()
    x_model = model.G @ x
    for i, Fi in enumerate(model.F):
        x_model = x_model + (Fi * levels[i]).ravel()
    assert np.allclose(x_model, x_direct, atol=1e-12)


def test_single_rate_extraction_exact():
    rng = np.random.default_rng(219)
    A = random_stable(rng, 4)
    B = rng.normal(size=(4, 1))
    sched = golden_schedule(T=1.1, l=2)
    model = exact_multirate_model(A, B, np.eye(4), sched)
    family = single_rate_models(model)
    assert len(family.G_taus) == sched.l + 1
    for Gt, tau in zip(family.G_taus, family.taus):
        assert np.allclose(Gt, expm(A * tau), atol=1e-9)
    for Ft, tau in zip(family.F_taus, family.taus):
        assert np.allclose(Ft, van_loan_integral(A, tau) @ B, atol=1e-9)


def _relative_error(G, ref):
    return np.linalg.norm(G - ref) / np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    T=st.floats(0.3, 1.0),
    l=st.integers(1, 3),
    slowest=st.floats(0.5, 3.0),
)
def test_single_rate_matches_stacked_oracle(n, seed, T, l, slowest):
    # a symmetric stable A with decay rates spread over [0.1, slowest]:
    # with a full-rank C the telescoping solve equals the stacked
    # observability least squares; with one observable output row that
    # stack is a Krylov matrix and the telescoping solve is at least as
    # close to expm(A tau) (both at rounding level, or it is closer)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q @ np.diag(-np.linspace(0.1, slowest, n)) @ Q.T
    sched = golden_schedule(T=T, l=l)
    full = exact_multirate_model(A, np.zeros((n, 1)), rng.normal(size=(n + 1, n)), sched)
    for Gt, ref in zip(single_rate_models(full).G_taus, single_rate_reference(full)):
        assert _relative_error(Gt, ref) <= 1e-12
    one_row = exact_multirate_model(A, np.zeros((n, 1)), rng.normal(size=(1, n)), sched)
    refs = single_rate_reference(one_row)
    for Gt, ref, tau in zip(single_rate_models(one_row).G_taus, refs, sched.taus):
        exact = expm(A * tau)
        assert _relative_error(Gt, exact) <= max(_relative_error(ref, exact), 1e-13)


def test_single_rate_one_row_beats_krylov_stack():
    # eight decay rates from 0.2 to 3 seen through one output row: the
    # stacked solve's Krylov block loses five digits, the offset maps none
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    A = Q @ np.diag(-np.linspace(0.2, 3.0, 8)) @ Q.T
    sched = golden_schedule(T=1.0, l=2)
    model = exact_multirate_model(A, np.zeros((8, 1)), rng.normal(size=(1, 8)), sched)
    exact = [expm(A * tau) for tau in sched.taus]
    new = [_relative_error(G, E) for G, E in zip(single_rate_models(model).G_taus, exact)]
    old = [_relative_error(G, E) for G, E in zip(single_rate_reference(model), exact)]
    assert max(new) < 1e-13
    assert max(old) > 1e-11


def test_single_rate_unobservable_output():
    # C sees only the first block of a block-diagonal A: the stacked
    # observability blocks are rank deficient, the offset maps are not
    A = block_diag(rot(1.3) - 0.2 * np.eye(2), [[-0.7]])
    C = np.array([[1.0, 0.0, 0.0]])
    sched = golden_schedule(T=0.9, l=2)
    model = exact_multirate_model(A, np.zeros((3, 1)), C, sched)
    with pytest.raises(ValueError, match="rank deficient"):
        single_rate_reference(model)
    family = single_rate_models(model)
    for Gt, tau in zip(family.G_taus, family.taus):
        assert _relative_error(Gt, expm(A * tau)) <= 1e-13


def test_single_rate_singular_offset_raises():
    sched = golden_schedule(T=0.9, l=2)
    model = exact_multirate_model(-np.eye(2), np.zeros((2, 1)), np.eye(2), sched)
    model.G_offsets[1] = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="offset map 1 is singular"):
        single_rate_models(model)


def test_continuous_round_trip_with_inputs():
    rng = np.random.default_rng(223)
    for trial in range(5):
        n = int(rng.integers(2, 6))
        A = random_stable(rng, n)
        B = rng.normal(size=(n, max(1, n // 2)))
        sched = golden_schedule(T=0.8, l=2)
        model = exact_multirate_model(A, B, np.eye(n), sched)
        rec = reconstruct_continuous(single_rate_models(model))
        assert np.allclose(rec.A, A, atol=1e-8), f"trial {trial}"
        assert np.allclose(rec.B, B, atol=1e-7)
        assert max(rec.residuals) < 1e-9
        assert rec.window == pytest.approx(np.pi / sched.taus.min())


def test_continuous_round_trip_fast_rotation():
    # |Im lambda| T > pi: a uniform schedule would fold this mode, the
    # golden one keeps it inside the resolution window
    w = 7.0
    A = block_diag(rot(w), [[-0.4]])
    sched = golden_schedule(T=1.0, l=1)
    assert w * sched.T > np.pi
    assert w < np.pi / sched.taus.min()
    model = exact_multirate_model(A, np.zeros((3, 1)), np.eye(3), sched)
    rec = reconstruct_continuous(single_rate_models(model))
    assert np.allclose(rec.A, A, atol=1e-8)
    assert sorted(np.round(rec.eigenvalues.imag, 6)) == [-7.0, 0.0, 7.0]


def test_uniform_single_rate_aliases_silently():
    # equal increments cannot see past the folding frequency pi/tau; the
    # reconstruction is then a different A with identical sample maps,
    # not an error (no schedule can distinguish them)
    w = 7.0
    A = rot(w)
    sched = SamplingSchedule(T=1.0, times=[0.0, 0.5, 1.0])
    model = exact_multirate_model(A, np.zeros((2, 1)), np.eye(2), sched)
    rec = reconstruct_continuous(single_rate_models(model))
    assert not np.allclose(rec.A, A, atol=1e-3)
    assert max(rec.residuals) < 1e-10
    assert np.allclose(expm(rec.A * 0.5), expm(A * 0.5), atol=1e-10)
    folded = abs(w - 4.0 * np.pi)
    assert np.allclose(sorted(np.abs(rec.eigenvalues.imag)), [folded, folded],
                       atol=1e-8)


def test_branch_ambiguity_raises():
    # two rotation blocks a full 2 pi / T apart alias against each other:
    # both frequencies appear in every rate's branch set, so no schedule
    # decision is possible and the reconstruction must refuse
    A = block_diag(rot(1.0), rot(1.0 + 2.0 * np.pi))
    sched = SamplingSchedule(T=1.25, times=[0.0, 1.0, 1.25])
    model = exact_multirate_model(A, np.zeros((4, 1)), np.eye(4), sched)
    family = single_rate_models(model)
    with pytest.raises(ValueError, match="branch ambiguity unresolved"):
        reconstruct_continuous(family)


def test_frame_aliased_modes_recovered():
    # the two rotations are 2 pi / T apart, so they share one eigenvalue
    # pair of the frame map P = exp(A T) and eig(P) cannot tell their
    # eigenvectors apart; the first rate can, and the inverse-iteration
    # step on P keeps them apart
    A = block_diag(rot(1.0), rot(1.0 + 2.0 * np.pi)) - 0.1 * np.eye(4)
    sched = golden_schedule(T=1.0, l=2)
    model = exact_multirate_model(A, np.zeros((4, 1)), np.eye(4), sched)
    lam = np.linalg.eigvals(model.G)
    assert np.min(np.abs(lam[:, None] - lam[None, :]) + 10 * np.eye(4)) < 1e-12
    rec = reconstruct_continuous(single_rate_models(model))
    assert np.max(np.abs(rec.A - A)) <= 1e-12


def test_inconsistent_rates_raise():
    A1 = rot(1.0)
    A2 = rot(2.5)  # a different continuous system for the second rate
    taus = np.array([0.4, 0.6])
    family = SingleRateFamily(
        order=2,
        taus=taus,
        G_taus=[expm(A1 * taus[0]), expm(A2 * taus[1])],
        C=np.eye(2),
    )
    with pytest.raises(ValueError, match="no continuous eigenvalue consistent"):
        reconstruct_continuous(family)


def test_defective_transition_raises():
    family = SingleRateFamily(
        order=2,
        taus=np.array([0.5, 0.5 * (1 + np.sqrt(5)) / 2]),
        G_taus=[np.array([[0.5, 1.0], [0.0, 0.5]])] * 2,
        C=np.eye(2),
    )
    with pytest.raises(ValueError, match="not reliably diagonalizable"):
        reconstruct_continuous(family)


def test_singular_transition_raises():
    family = SingleRateFamily(
        order=2,
        taus=np.array([0.5, 0.8]),
        G_taus=[np.diag([1.0, 0.0]), np.diag([1.0, 0.0])],
        C=np.eye(2),
    )
    with pytest.raises(ValueError, match="singular"):
        reconstruct_continuous(family)


def test_fit_multirate_from_snapshots():
    rng = np.random.default_rng(227)
    A = random_stable(rng, 3)
    sys = linear_system(A)
    sched = golden_schedule(T=0.6, l=2, frames=8)
    x0 = rng.normal(size=3)
    rec = simulate(sys, sched, x0=x0, record_states=True,
                   steps_per_interval=200)
    model = fit_multirate(rec, sched, order=3)
    for t, Gi in zip(sched.times, model.G_offsets):
        assert np.allclose(Gi, expm(A * t), atol=1e-7)
    assert model.F is None
    cont = reconstruct_continuous(single_rate_models(model))
    assert np.allclose(cont.A, A, atol=1e-6)
    assert cont.B is None
    assert cont.notes == ["no input maps in the family; B not recovered"]


def test_fit_multirate_from_outputs():
    rng = np.random.default_rng(229)
    A = random_stable(rng, 2)
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # full column rank
    sys = linear_system(A, C=C)
    sched = golden_schedule(T=0.5, l=1, frames=6)
    rec = simulate(sys, sched, x0=rng.normal(size=2), steps_per_interval=200)
    model = fit_multirate(rec, sched, order=2, C=C)
    for t, Gi in zip(sched.times, model.G_offsets):
        assert np.allclose(Gi, expm(A * t), atol=1e-6)


def test_fit_multirate_guards():
    rng = np.random.default_rng(231)
    A = random_stable(rng, 3)
    sys = linear_system(A, C=np.array([[1.0, 0.0, 0.0]]))
    sched = golden_schedule(T=0.5, l=1, frames=6)
    rec = simulate(sys, sched, x0=rng.normal(size=3))
    with pytest.raises(ValueError, match="full column rank"):
        fit_multirate(rec, sched, order=3, C=np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="requires the output matrix"):
        fit_multirate(rec, sched, order=3)
    # a decayed-to-zero start state cannot span the space
    sys_full = linear_system(A)
    rec0 = simulate(sys_full, sched, x0=np.zeros(3), record_states=True)
    with pytest.raises(ValueError, match="rank-deficient regression"):
        fit_multirate(rec0, sched, order=3)


def test_fit_multirate_missing_stamp():
    rng = np.random.default_rng(233)
    A = random_stable(rng, 2)
    sys = linear_system(A)
    sched = golden_schedule(T=0.5, l=1, frames=4)
    rec = simulate(sys, sched, x0=rng.normal(size=2), record_states=True)
    rec.frame = rec.frame[:-1]
    rec.offset_index = rec.offset_index[:-1]
    rec.t = rec.t[:-1]
    rec.x = rec.x[:-1]
    rec.y = rec.y[:-1]
    with pytest.raises(ValueError, match="missing the frame-end state"):
        fit_multirate(rec, sched, order=2)


def _decaying_two_qubit_record(noise_sigma=0.0):
    # strongly dissipative generator: the frame-start states shrink by
    # orders of magnitude over the record (cond(X0) ~ 1e13)
    basis = build_basis(2)
    n = basis.n
    rng = np.random.default_rng(2)
    theta = rng.normal(size=n)
    m = rng.normal(size=(n, n))
    sys = assemble_system(
        basis,
        structure_constants(basis),
        GkslParams(theta=theta, gamma=m @ m.T / n, symmetric=True),
    )
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = v @ v.conj().T
    sched = golden_schedule(T=0.5, l=2, frames=n + 2)
    record = simulate(
        sys, sched, x0=rho_to_coherence(rho / np.trace(rho), basis), noise_sigma=noise_sigma,
        seed=7,
    )
    return sys, sched, record


def _unweighted(record):
    # a record that states no noise_sigma is fitted with uniform weights,
    # which is the unweighted regression
    plain = copy.copy(record)
    plain.meta = {k: v for k, v in record.meta.items() if k != "noise_sigma"}
    return plain


def test_fit_multirate_weights_decaying_frames():
    sys, sched, record = _decaying_two_qubit_record()
    errors = []
    for rec in (record, _unweighted(record)):
        model = fit_multirate(rec, sched, sys.n, C=sys.C)
        cont = reconstruct_continuous(single_rate_models(model))
        errors.append(np.max(np.abs(cont.A - sys.A)))
    weighted, uniform = errors
    # 1.6e-9 and 1.4e-8; 4.9e-9 without the frame-map eigenbasis step
    assert weighted < 3e-9
    assert 5 * weighted < uniform


def test_fit_multirate_uniform_under_stated_noise():
    sys, sched, record = _decaying_two_qubit_record(noise_sigma=1e-6)
    noisy = fit_multirate(record, sched, sys.n, C=sys.C)
    plain = fit_multirate(_unweighted(record), sched, sys.n, C=sys.C)
    for G_w, G_u in zip(noisy.G_offsets, plain.G_offsets):
        assert np.array_equal(G_w, G_u)


def test_frame_weights_zero_state_keeps_weight_one():
    X0 = np.zeros((3, 4))
    X0[:, 1] = [1e-3, 0.0, 0.0]
    X0[:, 2] = [0.0, 2.0, 0.0]
    record = MeasurementRecord(
        t=None, y=None, frame=None, offset_index=None, pulse_id=None, x=X0.T,
        meta={"noise_sigma": 0.0},
    )
    w = _frame_weights(record, X0, np.eye(3))
    assert np.all(np.isfinite(w))
    # 1/|x| for the nonzero states, scaled so the largest weight is 1; the
    # zero states keep weight 1 before the scaling
    eps = np.finfo(float).eps
    expected = np.array([1.0, 1.0 / (eps * 1e-3), 1.0 / (eps * 2.0), 1.0])
    assert np.allclose(w, expected / expected.max(), rtol=1e-15)
