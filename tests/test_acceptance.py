"""Acceptance gate: eleven numbered criteria, one test each.

Each criterion is a single test function, so `pytest -v` prints exactly
one pass/fail line per criterion. Tolerances and instance counts are
stated in the docstrings; time-guarded criteria assert their own
runtime. Oracles are independent computations (direct master-equation
evaluation, matrix exponentials, brute-force word enumeration), never
the code path under test.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from oqsident import (
    GkslParams,
    assemble_system,
    bilinear_span_test,
    build_basis,
    build_reconstruction_matrices,
    coherence_to_rho,
    control_maps,
    error_bound,
    exact_multirate_model,
    golden_schedule,
    identifiability_report,
    make_pulse_family,
    reconstruct_continuous,
    reconstruct_general,
    reconstruct_symmetric,
    rho_to_coherence,
    simulate,
    single_rate_models,
    structure_constants,
    verify_sparsity,
)
from oqsident.cli import _two_qubit_demo_params
from oqsident.simulate import SamplingSchedule
from oracles import f_dense, stacked_map, t1_block, t3_block


def random_psd(rng, n, scale=0.4, complex_=True):
    if complex_:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    else:
        m = rng.normal(size=(n, n))
    return scale * (m @ (m.conj().T if complex_ else m.T)) / n


def random_state(rng, N):
    v = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def master_equation_rhs(basis, theta, gamma, rho, u=None):
    """Direct right-hand side evaluation; the independent oracle."""
    F = basis.generators
    th = theta if u is None else theta + u
    H = np.einsum("j,jab->ab", th, F)
    out = -1j * (H @ rho - rho @ H)
    n = basis.n
    for j in range(n):
        for k in range(n):
            if gamma[j, k] == 0.0:
                continue
            FkFj = F[k] @ F[j]
            out = out + gamma[j, k] * (
                F[j] @ rho @ F[k] - 0.5 * (FkFj @ rho + rho @ FkFj)
            )
    return out


def test_criterion_01_structure_constant_sparsity():
    """Exhaustive scan, one to three qubits: every generator pair has at
    most one nonzero third index in f and at most one in g; under 10 s."""
    t0 = time.monotonic()
    for q in (1, 2, 3):
        rep = verify_sparsity(structure_constants(build_basis(q)))
        assert rep.max_f <= 1, f"{q} qubits: {rep.max_f} f entries for one pair"
        assert rep.max_g <= 1, f"{q} qubits: {rep.max_g} g entries for one pair"
        assert rep.one_per_pair
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"sparsity scan took {elapsed:.1f} s"


def test_criterion_02_unnormalized_base_case():
    """Plain one-qubit Pauli words: f equals twice the Levi-Civita symbol
    exactly and g has no entries at all."""
    basis = build_basis(1, normalized=False)
    tensors = structure_constants(basis)
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    assert np.array_equal(f_dense(tensors), 2.0 * eps)
    assert len(tensors.g_val) == 0


def test_criterion_03_oracle_equivalence():
    """50 random (theta, PSD gamma, u) instances split over one and two
    qubits: the coherence-vector derivative from (A, beta, N) matches the
    basis projection of the directly evaluated master equation within
    1e-10; under 30 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for q in (1, 2):
        basis = build_basis(q)
        tensors = structure_constants(basis)
        n = basis.n
        for _ in range(25):
            theta = rng.normal(size=n)
            gamma = random_psd(rng, n)
            u = rng.normal(size=n)
            sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
            rho = random_state(rng, basis.dim)
            x = rho_to_coherence(rho, basis)
            drho = master_equation_rhs(basis, theta, gamma, rho, u=u)
            dx_oracle = np.einsum("jab,ba->j", basis.generators, drho)
            assert np.max(np.abs(dx_oracle.imag)) < 1e-12
            N_list = control_maps(sys, range(n))
            dx = sys.A @ x + np.einsum("c,cjk,k->j", u, N_list, x) + sys.beta
            err = np.max(np.abs(dx - dx_oracle.real))
            worst = max(worst, err)
            assert err <= 1e-10, f"{q} qubits: derivative mismatch {err:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f} s"
    print(f"worst derivative mismatch {worst:.3e}")


def test_criterion_04_symmetric_gamma_structure():
    """50 random real symmetric gamma: the dissipative block is symmetric,
    the offset norm is at most 1e-12, and the Hamiltonian block is
    antisymmetric for every theta."""
    rng = np.random.default_rng(2025)
    for trial in range(50):
        q = 1 if trial % 2 == 0 else 2
        basis = build_basis(q)
        tensors = structure_constants(basis)
        n = basis.n
        params = GkslParams(
            theta=rng.normal(size=n),
            gamma=random_psd(rng, n, complex_=False),
            symmetric=True,
        )
        sys = assemble_system(basis, tensors, params)
        assert np.linalg.norm(sys.beta) <= 1e-12
        assert np.max(np.abs(sys.A_d - sys.A_d.T)) <= 1e-12
        assert np.max(np.abs(sys.A_l + sys.A_l.T)) <= 1e-12


def test_criterion_05_symmetric_round_trip():
    """100 random symmetric-gamma instances over one and two qubits are
    recovered from the drift matrix with max abs error at most 1e-8,
    including the named two-qubit exchange example; under 60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    for q in (1, 2):
        basis = build_basis(q)
        tensors = structure_constants(basis)
        mats = build_reconstruction_matrices(tensors, basis.dim, general=False)
        n = basis.n
        for _ in range(50):
            theta = rng.normal(size=n)
            gamma = random_psd(rng, n, complex_=False)
            sys = assemble_system(
                basis, tensors, GkslParams(theta=theta, gamma=gamma, symmetric=True)
            )
            rec = reconstruct_symmetric(sys.A, mats)
            assert rec.status == "full"
            assert np.max(np.abs(rec.theta - theta)) <= 1e-8
            assert np.max(np.abs(rec.gamma - gamma)) <= 1e-8

    basis, params, truth = _two_qubit_demo_params()
    tensors = structure_constants(basis)
    mats = build_reconstruction_matrices(tensors, basis.dim, general=False)
    sys = assemble_system(basis, tensors, params)
    rec = reconstruct_symmetric(sys.A, mats)
    assert rec.status == "full"
    assert np.max(np.abs(rec.theta - params.theta)) <= 1e-8
    assert np.max(np.abs(rec.gamma - params.gamma)) <= 1e-8
    # the example's packed gamma entries in upper-triangle coordinates
    assert rec.gamma[2, 4] == pytest.approx((truth["g1z"] - truth["g2z"]) / 8.0,
                                            abs=1e-8)
    assert rec.gamma[3, 5] == pytest.approx(-(truth["g1+"] - truth["g2-"]) / 2.0,
                                            abs=1e-8)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"symmetric round trips took {elapsed:.1f} s"


def test_criterion_06_general_round_trip():
    """100 random one-qubit instances with Hermitian gamma: the inverse of
    the stacked map M recovers (theta, gamma) to 1e-8 whenever
    cond(M) < 1e10, and the condition number is computed and reported for
    every instance."""
    basis = build_basis(1)
    tensors = structure_constants(basis)
    mats = build_reconstruction_matrices(tensors, basis.dim)
    rng = np.random.default_rng(2027)
    kappas = []
    for _ in range(100):
        theta = rng.normal(size=3)
        gamma = random_psd(rng, 3)
        sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
        rec = reconstruct_general(sys.A, sys.beta, mats)
        assert rec.kappa is not None and np.isfinite(rec.kappa)
        kappas.append(rec.kappa)
        assert rec.kappa < 1e10, f"cond(M) = {rec.kappa:.3e}"
        assert rec.status == "full"
        assert np.max(np.abs(rec.theta - theta)) <= 1e-8
        assert np.max(np.abs(rec.gamma - gamma)) <= 1e-8
    print(f"cond(M) over 100 instances: min {min(kappas):.6f} max {max(kappas):.6f}")


def test_criterion_07_reconstruction_matrix_facts():
    """T1 has full column rank n for one to three qubits; the symmetric
    merger T3 at fifteen generators is 225 x 120 with full column rank.
    The package inverts these blocks through the process matrix without
    forming them, so the dense matrices come from the test oracle."""
    for q in (1, 2, 3):
        basis = build_basis(q)
        T1 = t1_block(structure_constants(basis))
        assert T1.shape == (basis.n**2, basis.n)
        assert np.linalg.matrix_rank(T1) == basis.n
    T3 = t3_block(structure_constants(build_basis(2)))
    assert T3.shape == (225, 120)
    assert np.linalg.matrix_rank(T3) == 120


def test_criterion_08_continuous_reconstruction():
    """20 random stable systems up to order 8 on golden schedules:
    eigenvalues recovered to 1e-8 by branch intersection, with at least
    one aliased case where the frame rate alone is ambiguous; the
    reconstructed drift reproduces the frame map to 1e-8; under 60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2028)
    aliased_seen = 0
    for trial in range(20):
        if trial < 2:
            # aliased construction: rotation faster than the frame rate
            w = 7.0 + trial
            A = block_diag([[0.0, w], [-w, 0.0]], -0.5 * np.eye(2))
            n = 4
        else:
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n))
            A = A - (np.max(np.linalg.eigvals(A).real) + 0.3) * np.eye(n)
        sched = golden_schedule(T=1.0, l=2)
        lam_true = np.linalg.eigvals(A)
        window = np.pi / sched.taus.min()
        assert np.max(np.abs(lam_true.imag)) < window
        if np.max(np.abs(lam_true.imag)) * sched.T > np.pi:
            aliased_seen += 1
            # the frame map alone leaves several log branches in the window
            im = np.max(lam_true.imag)
            ks = np.arange(-10, 11)
            branches = im + 2.0 * np.pi * ks / sched.T
            assert np.sum(np.abs(branches) <= window) >= 2
        model = exact_multirate_model(A, np.zeros((n, 1)), np.eye(n), sched)
        rec = reconstruct_continuous(single_rate_models(model))
        got = np.sort_complex(rec.eigenvalues)
        want = np.sort_complex(lam_true)
        assert np.max(np.abs(got - want)) <= 1e-8, f"trial {trial}"
        assert np.max(np.abs(expm(rec.A * sched.T) - model.G)) <= 1e-8
    assert aliased_seen >= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"continuous reconstruction took {elapsed:.1f} s"
    print(f"{aliased_seen} aliased instances resolved by the multirate intersection")


def test_criterion_09_identifiability_verdicts():
    """Uniform schedules fail with the rational-ratio clause, zero
    amplitude pulse families fail with the degeneracy clause, golden
    schedules with identity readout pass, and the bilinear span ranks
    match brute-force word enumeration on systems up to order 4."""
    basis = build_basis(1)
    tensors = structure_constants(basis)
    sys = assemble_system(
        basis, tensors,
        GkslParams(theta=np.array([0.0, 0.0, 1.3]), gamma=np.diag([0.5, 0.3, 0.2]),
                   symmetric=True),
    )
    sys.x0 = np.array([0.0, 0.0, 1.0 / np.sqrt(2.0)])

    uniform = SamplingSchedule(T=0.5, times=[0.0, 0.25, 0.5])
    rep = identifiability_report(sys, mode="autonomous", schedule=uniform)
    assert rep.verdict is False
    assert any("sampling ratios rational" in c for c in rep.clauses)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam0 = make_pulse_family(0.0, [0.1, 0.2])
    rep = identifiability_report(sys, mode="controlled", pulses=fam0)
    assert rep.verdict is False
    assert any("pulse family degenerate" in c for c in rep.clauses)

    rep = identifiability_report(sys, mode="autonomous",
                                 schedule=golden_schedule(T=0.5, l=2))
    assert rep.verdict is True
    assert rep.clauses == []

    def brute(ops, seeds, dim):
        seeds = np.asarray(seeds, dtype=float).reshape(dim, -1)
        vecs = [seeds[:, i] for i in range(seeds.shape[1])]
        frontier = list(vecs)
        for _ in range(dim - 1):
            frontier = [op @ v for v in frontier for op in ops]
            vecs.extend(frontier)
        return int(np.linalg.matrix_rank(np.array(vecs).T))

    rng = np.random.default_rng(2029)
    for dim in (2, 3, 4):
        for _ in range(8):
            A = rng.normal(size=(dim, dim))
            N_list = rng.normal(size=(int(rng.integers(1, 3)), dim, dim))
            b = rng.normal(size=dim)
            C = rng.normal(size=(int(rng.integers(1, dim + 1)), dim))
            res = bilinear_span_test(A, N_list, b, C)
            ops = [A] + list(N_list)
            assert res.rank_ctrl == brute(ops, b, dim)
            assert res.rank_obs == brute([o.T for o in ops], C.T, dim)


def test_criterion_10_simulator_physicality():
    """20 random trajectories under PSD gamma keep the reconstructed
    density matrix at unit trace within 1e-12 and minimum eigenvalue
    above -1e-9; halving the integrator step cuts the terminal error by
    roughly 2^4."""
    rng = np.random.default_rng(2030)
    for trial in range(20):
        q = 1 if trial < 12 else 2
        basis = build_basis(q)
        tensors = structure_constants(basis)
        n = basis.n
        sys = assemble_system(
            basis, tensors,
            GkslParams(theta=rng.normal(size=n), gamma=random_psd(rng, n)),
        )
        rho0 = random_state(rng, basis.dim)
        sched = golden_schedule(T=0.5, l=2, frames=2)
        rec = simulate(sys, sched, x0=rho_to_coherence(rho0, basis),
                       record_states=True)
        for x in rec.x:
            rho = coherence_to_rho(x, basis)
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert abs(np.trace(rho).imag) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9

    # step-halving order check on a stiff-ish rotation
    A = np.array([[0.0, 4.0], [-4.0, -0.5]])
    from oqsident.gksl import CoherenceSystem

    toy = CoherenceSystem(n=2, A_l=A, A_d=np.zeros((2, 2)), beta=np.zeros(2),
                          N_ind=np.zeros((0, 3), dtype=int), N_val=np.zeros(0), m=0,
                          C=np.eye(2))
    sched = SamplingSchedule(T=1.0, times=[0.0, 0.5, 1.0])
    x0 = np.array([1.0, 0.0])
    exact = expm(A) @ x0

    def err(spi):
        r = simulate(toy, sched, x0=x0, steps_per_interval=spi, record_states=True)
        return np.linalg.norm(r.x[-1] - exact)

    ratio = err(4) / err(8)
    assert 8.0 < ratio < 32.0, f"step-halving ratio {ratio:.2f}"
    print(f"step-halving error ratio {ratio:.2f} (expected about 16)")


def test_criterion_11_error_bound_monte_carlo():
    """100 perturbed recovery instances: the observed parameter error
    never exceeds the computed forward bound.  M is the dense stacked map
    of the test oracle; the package only inverts it in closed form."""
    basis = build_basis(1)
    tensors = structure_constants(basis)
    mats = build_reconstruction_matrices(tensors, basis.dim)
    M = stacked_map(tensors, basis.dim)
    rng = np.random.default_rng(2031)
    margins = []
    for _ in range(100):
        theta = rng.normal(size=3)
        gamma = random_psd(rng, 3)
        sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
        rhs = np.concatenate([sys.A.reshape(-1), sys.beta]).astype(complex)
        y = np.linalg.solve(M, rhs)

        scale = 10.0 ** rng.uniform(-12, -6)
        dM = rng.normal(size=M.shape)
        dM = scale * dM / np.linalg.norm(dM, 2)
        dr = rng.normal(size=rhs.shape[0])
        dr = scale * dr / np.linalg.norm(dr)

        bound = error_bound(mats, scale, sys.A, scale, beta=sys.beta)
        yt = np.linalg.solve(M + dM, rhs + dr)
        observed = np.linalg.norm(y - yt)
        assert observed <= bound, f"observed {observed:.3e} > bound {bound:.3e}"
        margins.append(bound / max(observed, 1e-300))
    print(f"bound/observed margin: min {min(margins):.2f} median "
          f"{sorted(margins)[50]:.2f}")
