"""Rank tests, sampling policy, persistency, and the combined report.

The word-span checker is cross-validated against a brute-force
enumerator written here: it applies every operator word up to the depth
bound to the seed and takes a plain matrix rank. Slow but unarguable.
Where that is too slow (dimension 16 and up), and for the exact
(rank, status, words) triple, it is checked against the level-by-level
closure kept in `oracles.word_span_reference`.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    rho_to_coherence,
    sampling_policy_check,
    structure_constants,
)
from oqsident.gksl import embed_standard_form
from oqsident.simulate import Pulse, SamplingSchedule
from oracles import f_dense, word_span_reference


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


@pytest.mark.parametrize("n", [15, 63])
def test_full_rank_seed_blocks_take_no_singular_vectors(n, monkeypatch):
    # B = I and C = I, as the autonomous report seeds them, are decided
    # from their singular values alone
    compute_uv = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        compute_uv.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    A = np.random.default_rng(n).normal(size=(n, n))
    res = linear_rank_test(A, np.eye(n), np.eye(n))
    assert res.rank_ctrl == res.rank_obs == n
    assert compute_uv == [False, False]


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


def reference_spans(A, N_list, b, C, word_cap=None):
    """(rank, status, words) of both spans from the reference closure."""
    dim = A.shape[0]
    cap = 10 * dim * dim if word_cap is None else word_cap
    ops = [A] + list(N_list)
    seeds = np.asarray(b, dtype=float).reshape(dim, -1)
    return (
        word_span_reference(ops, seeds, dim, cap),
        word_span_reference([o.T for o in ops], np.atleast_2d(C).T, dim, cap),
    )


def span_triples(res):
    return (
        (res.rank_ctrl, res.status_ctrl, res.words_ctrl),
        (res.rank_obs, res.status_obs, res.words_obs),
    )


def low_rank(rng, rows, cols, rank):
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    controls=st.integers(0, 3),
    block=st.booleans(),
    word_cap=st.one_of(st.none(), st.integers(1, 30)),
    data=st.data(),
)
def test_bilinear_span_matches_reference_closure(seed, dim, controls, block, word_cap, data):
    # seed blocks and readouts up to dim + 2 wide: wide blocks of full
    # rank return before any SVD with vectors, rank-deficient ones do not
    wide = st.integers(1, dim + 2)
    seed_cols, seed_rank, readout_rows, readout_rank = (data.draw(wide) for _ in range(4))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim))
    N_list = rng.normal(size=(controls, dim, dim))
    b = low_rank(rng, dim, seed_cols, min(seed_rank, seed_cols))
    C = low_rank(rng, readout_rows, dim, min(readout_rank, readout_rows))
    if block:
        # block-diagonal operators with seed and readout on the first
        # block: both spans close inside it, below full rank
        d1 = int(rng.integers(1, dim))
        for op in (A, *N_list):
            op[:d1, d1:] = 0.0
            op[d1:, :d1] = 0.0
        b[d1:] = 0.0
        C[:, d1:] = 0.0
    if seed_cols == 1:
        b = b[:, 0]
    res = bilinear_span_test(A, N_list, b, C, word_cap=word_cap)
    assert span_triples(res) == reference_spans(A, N_list, b, C, word_cap)
    if block:
        assert res.rank_ctrl <= d1 and res.rank_obs <= d1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 2),
    hermitian=st.booleans(),
    x0=st.sampled_from(["zero", "random", "axis"]),
)
def test_embedded_gksl_spans_match_reference_closure(seed, num_qubits, hermitian, x0):
    # the systems identifiability_report(mode="controlled") builds: the
    # standard-form embedding when beta != 0 (Hermitian gamma), else the
    # bare system (real symmetric gamma gives beta = 0)
    basis = build_basis(num_qubits)
    n = basis.n
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if hermitian else 0)
    gamma = 0.4 * m @ m.conj().T / n
    params = GkslParams(theta=rng.normal(size=n), gamma=gamma, symmetric=not hermitian)
    sys = assemble_system(basis, structure_constants(basis), params)
    if x0 == "random":
        sys.x0 = 0.1 * rng.normal(size=n)
    elif x0 == "axis":
        sys.x0 = np.eye(n)[rng.integers(n)]
    if np.linalg.norm(sys.beta) > 1e-12:
        emb = embed_standard_form(sys)
        A, N_list, b, C = emb.A_emb, emb.N_list_emb, emb.x0_emb, emb.C_emb
    else:  # a zero seed here spans nothing: rank 0, closed
        A, N_list, b, C = sys.A, sys.N_list, sys.x0, sys.C
    res = bilinear_span_test(A, N_list, b, C)
    assert span_triples(res) == reference_spans(A, N_list, b, C)


_SPAN_SHAPE_CASES = {
    "A-not-square": (dict(A=np.ones((4, 5))), r"A must be square, got shape \(4, 5\)"),
    "control": (
        dict(N_list=[np.ones((4, 4)), np.eye(3)]),
        r"control 1 must be \(4, 4\), got shape \(3, 3\)",
    ),
    # a length-2n b must not pass as two interleaved seed columns
    "b-length-2n": (dict(b=np.ones(8)), r"b must be \(4,\) or \(4, m\), got shape \(8,\)"),
    "b-rows": (dict(b=np.ones((2, 4))), r"b must be .*got shape \(2, 4\)"),
    "C-columns": (
        dict(C=np.ones((2, 3))),
        r"C must be \(p, 4\) or \(4,\), got shape \(2, 3\)",
    ),
    "C-vector": (dict(C=np.ones(5)), r"C must be .*got shape \(5,\)"),
}


@pytest.mark.parametrize("case", sorted(_SPAN_SHAPE_CASES))
def test_bilinear_span_rejects_wrong_shape(case):
    args = dict(A=np.eye(4), N_list=np.ones((1, 4, 4)), b=np.ones(4), C=np.eye(4))
    override, message = _SPAN_SHAPE_CASES[case]
    args.update(override)
    with pytest.raises(ValueError, match=message):
        bilinear_span_test(**args)


_LINEAR_SHAPE_CASES = {
    "A-not-square": (dict(A=np.ones((4, 3))), r"A must be square, got shape \(4, 3\)"),
    "B": (dict(B=np.ones((3, 8))), r"B must be \(4, m\) or \(m, 4\), got shape \(3, 8\)"),
    "C-columns": (
        dict(C=np.eye(4, 3)),
        r"C must be \(p, 4\) or \(4,\), got shape \(4, 3\)",
    ),
}


@pytest.mark.parametrize("case", sorted(_LINEAR_SHAPE_CASES))
def test_linear_rank_rejects_wrong_shape(case):
    args = dict(A=np.diag([1.0, 2.0, 3.0, 4.0]), B=np.ones((4, 1)), C=np.eye(4))
    override, message = _LINEAR_SHAPE_CASES[case]
    args.update(override)
    with pytest.raises(ValueError, match=message):
        linear_rank_test(**args)


def test_rank_tests_accept_documented_shapes():
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    # B given as (n, m), (m, n) or (n,) reads as the same columns
    col = linear_rank_test(A, np.ones((4, 1)), np.eye(4))
    assert linear_rank_test(A, np.ones((1, 4)), np.eye(4)) == col
    assert linear_rank_test(A, np.ones(4), np.eye(4)) == col
    assert col.rank_ctrl == 4
    # seed columns (n, m) and a single readout row (n,)
    res = bilinear_span_test(A, [], np.eye(4)[:, :2], np.ones(4))
    assert res.dim == 4 and res.rank_obs == 4


def test_depolarizing_embedded_span_is_rank_deficient():
    # isotropic contraction with one rotation control: the span never
    # reaches the affine coordinate, and a z-axis control also loses the
    # rotation plane complement
    basis = build_basis(1)
    tensors = structure_constants(basis)
    f = f_dense(tensors)
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
    # the first n snapshots are dependent, all of them still span
    X[:, 2] = X[:, 0] - X[:, 1]
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
    f = f_dense(tensors)
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


def _affine_one_qubit():
    gamma = np.array(
        [[0.5, 0.2j, 0.0], [-0.2j, 0.4, 0.1j], [0.0, -0.1j, 0.3]]
    )
    return _one_qubit_system(gamma, theta=np.array([0.7, 0.0, 1.1]))


@pytest.mark.parametrize(
    "b, seed",
    [
        # an (n,) b gains the affine coordinate 1
        ([0.0, 0.0, 0.5], [0.0, 0.0, 0.5, 1.0]),
        # an (n, m) b gains a row of ones
        ([[0.0, 0.3], [0.0, 0.0], [0.5, 0.0]], [[0.0, 0.3], [0.0, 0.0], [0.5, 0.0], [1.0, 1.0]]),
        # (n + 1,) and (n + 1, m) are already embedded and pass unchanged
        ([0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.0]),
        ([[0.0], [0.0], [0.5], [0.0]], [[0.0], [0.0], [0.5], [0.0]]),
    ],
    ids=["n", "n-by-m", "n+1", "n+1-by-m"],
)
def test_report_controlled_affine_seed_shapes(b, seed):
    sys = _affine_one_qubit()
    fam = make_pulse_family(0.8, [0.1, 0.25, 0.4], channel=0)
    rep = identifiability_report(sys, mode="controlled", pulses=fam, b=b)
    emb = embed_standard_form(sys)
    span = bilinear_span_test(emb.A_emb, emb.N_list_emb, np.array(seed), emb.C_emb)
    assert (rep.rank_ctrl, rep.rank_obs) == (span.rank_ctrl, span.rank_obs)
    assert rep.required_rank == 4


@pytest.mark.parametrize(
    "b", [np.zeros(2), np.zeros((2, 2)), np.zeros(5), np.zeros((3, 2, 1))],
    ids=["n-1", "n-1-by-m", "n+2", "three-dim"],
)
def test_report_controlled_affine_seed_rejects_wrong_shape(b):
    sys = _affine_one_qubit()
    fam = make_pulse_family(0.8, [0.1, 0.25, 0.4], channel=0)
    expected = re.escape(f"(3,), (3, m), (4,) or (4, m) on an affine system, got shape {b.shape}")
    with pytest.raises(ValueError, match=expected):
        identifiability_report(sys, mode="controlled", pulses=fam, b=b)


def test_report_controlled_zero_amplitude_fails():
    sys = _one_qubit_system(np.diag([0.5, 0.3, 0.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam = make_pulse_family(0.0, [0.1, 0.2])
    rep = identifiability_report(sys, mode="controlled", pulses=fam)
    assert rep.verdict is False
    assert rep.pulses_ok is False
    assert "pulse family degenerate (zero amplitude)" in rep.clauses


def _random_hermitian_system(num_qubits, seed):
    basis = build_basis(num_qubits)
    n = basis.n
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    params = GkslParams(theta=rng.normal(size=n), gamma=0.4 * m @ m.conj().T / n)
    return assemble_system(basis, structure_constants(basis), params)


@pytest.mark.parametrize("num_qubits", [2, 3, 4])
def test_report_controlled_multi_qubit_full(num_qubits):
    sys = _random_hermitian_system(num_qubits, seed=40 + num_qubits)
    assert np.linalg.norm(sys.beta) > 1e-3
    fam = make_pulse_family(0.8, [0.1, 0.25, 0.4], channel=0)
    rep = identifiability_report(sys, mode="controlled", pulses=fam)
    dim = sys.n + 1  # embedded: 16 at 2 qubits, 64 at 3, 256 at 4
    assert rep.required_rank == dim == 4**num_qubits
    assert rep.rank_ctrl == dim and rep.rank_obs == dim
    assert rep.verdict is True and not rep.inconclusive
    assert rep.clauses == []


def test_controlled_two_qubit_first_qubit_span_closes():
    # drift and controls act on the first qubit only (words xI, yI, zI):
    # the coherence vector splits into the affine block {xI, yI, zI, 1}
    # and three copies of the first-qubit representation (second symbol
    # x, y or z); a generic seed spans 4 + 3 * 3 = 13 of 16 directions
    basis = build_basis(2)
    n = basis.n
    first = [3, 7, 11]
    assert [basis.words[i] for i in first] == ["xI", "yI", "zI"]
    rng = np.random.default_rng(7)
    theta = np.zeros(n)
    theta[first] = rng.normal(size=3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gamma = np.zeros((n, n), dtype=complex)
    gamma[np.ix_(first, first)] = 0.4 * m @ m.conj().T / 3
    sys = assemble_system(basis, structure_constants(basis), GkslParams(theta=theta, gamma=gamma))
    sys.x0 = 0.1 * rng.normal(size=n)
    emb = embed_standard_form(sys)
    N_list = emb.N_list_emb[first]
    res = bilinear_span_test(emb.A_emb, N_list, emb.x0_emb, emb.C_emb)
    assert span_triples(res) == reference_spans(emb.A_emb, N_list, emb.x0_emb, emb.C_emb)
    assert (res.rank_ctrl, res.status_ctrl) == (13, "closed")
    assert (res.rank_obs, res.status_obs) == (16, "full-rank")
    assert not res.full and res.conclusive


def _idle_two_qubit_system():
    # zero drift, x0 from |00><00|
    basis = build_basis(2)
    n = basis.n
    params = GkslParams(theta=np.zeros(n), gamma=np.zeros((n, n)), symmetric=True)
    sys = assemble_system(basis, structure_constants(basis), params)
    sys.x0 = rho_to_coherence(np.diag([1.0, 0.0, 0.0, 0.0]), basis)
    return sys


def test_report_controlled_spans_only_driven_channels():
    sys = _idle_two_qubit_system()
    fam = make_pulse_family(0.8, [0.1, 0.25, 0.4], channel=0)
    rep = identifiability_report(sys, mode="controlled", pulses=fam)
    # channel 0 alone rotates |00> within a 3-dimensional subspace
    assert rep.channels == (0,)
    assert rep.verdict is False and not rep.inconclusive
    assert (rep.rank_ctrl, rep.rank_obs, rep.required_rank) == (3, 15, 15)
    assert rep.clauses == [
        "controllable span rank deficient (3/15, status closed, channels [0])"
    ]
    # driving every channel reaches the whole space
    every = [Pulse(tau=t, alpha=0.8, channel=c) for c in range(sys.n) for t in (0.1, 0.25)]
    rep = identifiability_report(sys, mode="controlled", pulses=every)
    assert rep.channels == tuple(range(sys.n))
    assert rep.verdict is True and rep.rank_ctrl == 15


@pytest.mark.parametrize("channel", [15, -1])
def test_report_controlled_rejects_channel_out_of_range(channel):
    sys = _idle_two_qubit_system()
    fam = make_pulse_family(0.8, [0.1, 0.25], channel=channel)
    message = re.escape(f"pulse channels [{channel}] out of range for 15 control maps")
    with pytest.raises(ValueError, match=message):
        identifiability_report(sys, mode="controlled", pulses=fam)


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
