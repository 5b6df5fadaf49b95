"""Serialization round trips.

Every artifact type must survive write -> read unchanged (floats go
through repr, so equality is exact), files must carry their schema tag,
and all indices stored on disk are 1-based while the API stays 0-based.
"""

import json

import numpy as np
import pytest

from oqsident import (
    GkslParams,
    SchemaError,
    assemble_system,
    build_basis,
    exact_multirate_model,
    golden_schedule,
    identifiability_report,
    make_pulse_family,
    read_basis,
    read_contsys,
    read_model,
    read_params,
    read_params_hat,
    read_pulses,
    read_record,
    read_report,
    read_schedule,
    read_system,
    reconstruct_continuous,
    reconstruct_general,
    simulate,
    single_rate_models,
    structure_constants,
    write_basis,
    write_contsys,
    write_model,
    write_params,
    write_params_hat,
    write_pulses,
    write_record,
    write_report,
    write_schedule,
    write_system,
)
from oqsident.paramrec import build_reconstruction_matrices
from oqsident.simulate import Pulse, SamplingSchedule


@pytest.fixture
def one_qubit():
    basis = build_basis(1)
    tensors = structure_constants(basis)
    return basis, tensors


def test_basis_round_trip(one_qubit, tmp_path):
    basis, tensors = one_qubit
    path = tmp_path / "basis.json"
    write_basis(path, basis, tensors)
    basis2, tensors2 = read_basis(path)
    assert basis2.words == basis.words
    assert np.array_equal(basis2.generators, basis.generators)
    assert np.array_equal(basis2.identity, basis.identity)
    assert basis2.normalized == basis.normalized
    basis2.validate()
    structure_constants(basis2)  # a read-back basis is a valid Pauli word stack
    assert np.array_equal(tensors2.f_ind, tensors.f_ind)
    assert np.array_equal(tensors2.f_val, tensors.f_val)
    assert np.array_equal(tensors2.g_ind, tensors.g_ind)
    assert np.array_equal(tensors2.g_val, tensors.g_val)
    # on disk the index triples are 1-based
    doc = json.loads(path.read_text())
    assert min(min(r[:3]) for r in doc["f"]) == 1
    assert doc["schema"] == "oqsident/basis/1"


def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(401)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    params = GkslParams(theta=rng.normal(size=3), gamma=m @ m.conj().T)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    path = tmp_path / "params.json"
    write_params(path, params, observables=[sx])
    params2, obs2 = read_params(path)
    assert np.array_equal(params2.theta, params.theta)
    assert np.array_equal(params2.gamma, params.gamma)
    assert params2.symmetric == params.symmetric
    assert len(obs2) == 1
    assert np.array_equal(obs2[0], sx)
    # without observables the field is absent
    path2 = tmp_path / "params2.json"
    write_params(path2, params)
    _, obs_none = read_params(path2)
    assert obs_none is None


def test_system_round_trip(one_qubit, tmp_path):
    basis, tensors = one_qubit
    rng = np.random.default_rng(403)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sys = assemble_system(
        basis, tensors, GkslParams(theta=rng.normal(size=3), gamma=m @ m.conj().T)
    )
    sys.x0 = rng.normal(size=3)
    path = tmp_path / "system.json"
    write_system(path, sys)
    sys2 = read_system(path)
    assert np.array_equal(sys2.A_l, sys.A_l)
    assert np.array_equal(sys2.A_d, sys.A_d)
    assert np.array_equal(sys2.beta, sys.beta)
    assert np.array_equal(sys2.N_list, sys.N_list)
    assert np.array_equal(sys2.C, sys.C)
    assert np.array_equal(sys2.x0, sys.x0)
    doc = json.loads(path.read_text())
    assert min(min(r[:3]) for r in doc["N_list"]) == 1


def test_schedule_round_trip(tmp_path):
    sched = golden_schedule(T=0.7, l=2, frames=4)
    path = tmp_path / "schedule.json"
    write_schedule(path, sched)
    sched2 = read_schedule(path)
    assert sched2.T == sched.T
    assert np.array_equal(sched2.times, sched.times)
    assert sched2.frames == sched.frames
    assert sched2.declared_irrational is True
    assert sched2.note == sched.note


def test_pulses_round_trip(tmp_path):
    pulses = make_pulse_family(0.8, [0.1, 0.3], channel=2)
    pulses.append(Pulse(tau=0.05, alpha=0.8, channel=0, total_time=1.0))
    path = tmp_path / "pulses.json"
    write_pulses(path, pulses)
    pulses2 = read_pulses(path)
    assert len(pulses2) == 3
    for p, q in zip(pulses, pulses2):
        assert p.tau == q.tau
        assert p.alpha == q.alpha
        assert p.channel == q.channel
        assert p.total_time == q.total_time
    doc = json.loads(path.read_text())
    assert [p["channel"] for p in doc["pulses"]] == [3, 3, 1]


def _demo_record(noise=0.0):
    basis = build_basis(1)
    tensors = structure_constants(basis)
    sys = assemble_system(
        basis, tensors,
        GkslParams(theta=np.array([0.0, 0.0, 1.0]), gamma=np.diag([0.2, 0.2, 0.1]),
                   symmetric=True),
    )
    sys.x0 = np.array([0.0, 0.0, 0.5])
    sched = golden_schedule(T=0.3, l=1, frames=2)
    pulses = [Pulse(tau=0.05, alpha=0.4, channel=0)]
    return simulate(sys, sched, pulses=pulses, noise_sigma=noise, seed=7,
                    record_states=True)


def test_record_round_trip(tmp_path):
    rec = _demo_record(noise=0.01)
    path = tmp_path / "record.json"
    write_record(path, rec)
    rec2 = read_record(path)
    assert np.array_equal(rec2.t, rec.t)
    assert np.array_equal(rec2.y, rec.y)
    assert np.array_equal(rec2.frame, rec.frame)
    assert np.array_equal(rec2.offset_index, rec.offset_index)
    assert np.array_equal(rec2.pulse_id, rec.pulse_id)
    assert np.array_equal(rec2.x, rec.x)
    assert rec2.meta["noise_sigma"] == 0.01
    assert rec2.meta["seed"] == 7
    # inactive stamps store null, active ones the 1-based pulse index
    doc = json.loads(path.read_text())
    stored = [s["pulse_id"] for s in doc["samples"]]
    assert set(stored) == {None, 1}


def test_record_without_states(tmp_path):
    rec = _demo_record()
    rec.x = None
    path = tmp_path / "record.json"
    write_record(path, rec)
    rec2 = read_record(path)
    assert rec2.x is None


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(409)
    A = rng.normal(size=(3, 3)) - 2.0 * np.eye(3)
    B = rng.normal(size=(3, 1))
    sched = golden_schedule(T=0.5, l=1)
    model = exact_multirate_model(A, B, np.eye(3), sched)
    path = tmp_path / "model.json"
    write_model(path, model)
    model2 = read_model(path)
    assert model2.order == model.order
    assert model2.T == model.T
    assert np.array_equal(model2.times, model.times)
    assert np.array_equal(model2.G, model.G)
    for Gi, Gj in zip(model2.G_offsets, model.G_offsets):
        assert np.array_equal(Gi, Gj)
    assert np.array_equal(model2.Gamma, model.Gamma)
    for Fi, Fj in zip(model2.F, model.F):
        assert np.array_equal(Fi, Fj)
    model.F = None
    write_model(path, model)
    assert read_model(path).F is None


def test_contsys_round_trip(tmp_path):
    rng = np.random.default_rng(411)
    A = rng.normal(size=(3, 3)) - 2.0 * np.eye(3)
    B = rng.normal(size=(3, 1))
    sched = golden_schedule(T=0.5, l=1)
    cont = reconstruct_continuous(single_rate_models(
        exact_multirate_model(A, B, np.eye(3), sched)))
    path = tmp_path / "contsys.json"
    write_contsys(path, cont)
    cont2 = read_contsys(path)
    assert np.array_equal(cont2.A, cont.A)
    assert np.array_equal(cont2.B, cont.B)
    assert np.array_equal(cont2.eigenvalues, cont.eigenvalues)
    assert cont2.window == cont.window
    assert cont2.residuals == cont.residuals
    assert cont2.notes == cont.notes


def _one_qubit_sys():
    basis = build_basis(1)
    tensors = structure_constants(basis)
    sys = assemble_system(
        basis, tensors,
        GkslParams(theta=np.array([0.0, 0.0, 1.3]), gamma=np.diag([0.5, 0.3, 0.2]),
                   symmetric=True),
    )
    sys.x0 = np.array([0.0, 0.0, 1.0 / np.sqrt(2.0)])
    return sys


def test_report_round_trip_autonomous(tmp_path):
    sys = _one_qubit_sys()
    sched = SamplingSchedule(T=0.5, times=[0.0, 0.25, 0.5])
    rep = identifiability_report(sys, mode="autonomous", schedule=sched)
    path = tmp_path / "report.json"
    write_report(path, rep)
    rep2 = read_report(path)
    assert rep2.mode == rep.mode
    assert rep2.verdict == rep.verdict
    assert rep2.clauses == rep.clauses
    assert rep2.rank_obs == rep.rank_obs
    assert rep2.sampling.ok == rep.sampling.ok
    assert [(p.i, p.j, p.verdict, p.p, p.q) for p in rep2.sampling.pairs] == [
        (p.i, p.j, p.verdict, p.p, p.q) for p in rep.sampling.pairs
    ]
    doc = json.loads(path.read_text())
    assert doc["sampling"]["pairs"][0]["i"] == 1  # 1-based on disk
    assert rep2.channels is None and "channels" not in doc


def test_report_round_trip_controlled(tmp_path):
    sys = _one_qubit_sys()
    fam = make_pulse_family(0.8, [0.1, 0.25], channel=0)
    rep = identifiability_report(sys, mode="controlled", pulses=fam)
    path = tmp_path / "report.json"
    write_report(path, rep)
    rep2 = read_report(path)
    assert rep2.verdict == rep.verdict
    assert rep2.pulses_ok == rep.pulses_ok
    assert rep2.sampling is None
    assert rep2.channels == rep.channels == (0,)
    doc = json.loads(path.read_text())
    assert doc["channels"] == [1]  # 1-based on disk
    # a report/1 file written before the channel list reads as None
    del doc["channels"]
    path.write_text(json.dumps(doc))
    assert read_report(path).channels is None


def test_params_hat_round_trip(one_qubit, tmp_path):
    basis, tensors = one_qubit
    rng = np.random.default_rng(419)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gamma = m @ m.conj().T
    theta = rng.normal(size=3)
    sys = assemble_system(basis, tensors, GkslParams(theta=theta, gamma=gamma))
    mats = build_reconstruction_matrices(tensors, basis.dim)
    rec = reconstruct_general(sys.A, sys.beta, mats)
    path = tmp_path / "params_hat.json"
    write_params_hat(path, rec)
    rec2 = read_params_hat(path)
    assert rec2.status == rec.status
    assert np.array_equal(rec2.theta, rec.theta)
    assert np.array_equal(rec2.gamma, rec.gamma)
    assert rec2.residual_A == rec.residual_A
    assert rec2.kappa == rec.kappa
    assert rec2.hermiticity_defect == rec.hermiticity_defect
    assert rec2.notes == rec.notes


def test_params_hat_none_fields(tmp_path):
    from oqsident.paramrec import RecoveredParams

    rec = RecoveredParams(status="not-recoverable", notes=["no block recoverable"])
    path = tmp_path / "params_hat.json"
    write_params_hat(path, rec)
    rec2 = read_params_hat(path)
    assert rec2.status == "not-recoverable"
    assert rec2.theta is None
    assert rec2.gamma is None
    assert rec2.notes == ["no block recoverable"]


def test_schema_guards(one_qubit, tmp_path):
    basis, tensors = one_qubit
    good = tmp_path / "basis.json"
    write_basis(good, basis, tensors)
    # wrong kind
    with pytest.raises(SchemaError, match="expected"):
        read_params(good)
    # missing schema field
    doc = json.loads(good.read_text())
    del doc["schema"]
    bad = tmp_path / "noschema.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="missing schema"):
        read_basis(bad)
    # unsupported version
    doc["schema"] = "oqsident/basis/99"
    bad2 = tmp_path / "badversion.json"
    bad2.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        read_basis(bad2)
    assert issubclass(SchemaError, ValueError)


def test_write_is_idempotent(one_qubit, tmp_path):
    # repr floats: write -> read -> write reproduces the file byte for byte
    basis, tensors = one_qubit
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_basis(p1, basis, tensors)
    b2, t2 = read_basis(p1)
    write_basis(p2, b2, t2)
    assert p1.read_bytes() == p2.read_bytes()
