"""Serialization round trips.

Every artifact type must survive write -> read unchanged (floats go
through repr, so equality is exact), files must carry their schema tag,
and all indices stored on disk are 1-based while the API stays 0-based.
"""

import json
import re

import numpy as np
import pytest

from oqsident import (
    CoherenceSystem,
    ContinuousModel,
    DiscreteMultirateModel,
    GkslParams,
    IdentifiabilityReport,
    MeasurementRecord,
    RecoveredParams,
    SamplingPolicyReport,
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
from oqsident.identify import PairVerdict
from oqsident.paramrec import build_reconstruction_matrices
from oqsident.simulate import Pulse, SamplingSchedule
from oracles import f_dense, write_system_dense


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
    assert np.array_equal(tensors2.f_ind, tensors.f_ind)
    assert np.array_equal(tensors2.f_val, tensors.f_val)
    assert np.array_equal(tensors2.g_ind, tensors.g_ind)
    assert np.array_equal(tensors2.g_val, tensors.g_val)
    # on disk the index triples are 1-based
    doc = json.loads(path.read_text())
    assert min(min(r[:3]) for r in doc["f"]) == 1
    assert doc["schema"] == "oqsident/basis/1"


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("normalized", [True, False])
def test_written_basis_reads_back_equal(num_qubits, normalized, tmp_path):
    basis = build_basis(num_qubits, normalized=normalized)
    tensors = structure_constants(basis)
    path = tmp_path / "basis.json"
    write_basis(path, basis, tensors)
    basis2, tensors2 = read_basis(path)
    assert basis2.words == basis.words
    assert np.array_equal(basis2.generators, basis.generators)
    assert np.array_equal(basis2.identity, basis.identity)
    for name in ("f_ind", "f_val", "g_ind", "g_val"):
        assert np.array_equal(getattr(tensors2, name), getattr(tensors, name))


def _rotated(F):
    """U F U^dagger for a random unitary U: Hermitian, traceless and
    trace-orthonormal, but not the Pauli word stack of the package."""
    N = F.shape[1]
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    F = U @ F @ U.conj().T
    assert np.max(np.abs(F - F.conj().transpose(0, 2, 1))) < 1e-12
    assert np.max(np.abs(np.trace(F, axis1=1, axis2=2))) < 1e-12
    assert np.max(np.abs(np.einsum("mab,nba->mn", F, F) - np.eye(len(F)))) < 1e-12
    return F


def _tamper(doc, case):
    """Break a written basis file as the case says; returns the field
    the reader must name."""
    if case == "generators":
        doc["generators"][4][5][0] += 1e-9
    elif case == "rotated":
        F = _rotated(build_basis(2).generators)
        doc["generators"] = [[[v.real, v.imag] for v in G.reshape(-1)] for G in F]
        return "generators"
    elif case == "non-hermitian":
        doc["generators"][0][0][1] += 0.01  # an imaginary part on the diagonal
        return "generators"
    elif case == "words":
        doc["words"][0], doc["words"][1] = doc["words"][1], doc["words"][0]
    elif case == "identity":
        doc["identity"][0][0] *= -1
    elif case == "normalized":  # a raw file that declares the 1/sqrt(N) scale
        doc["normalized"] = True
        return "identity"
    elif case == "n":
        doc["n"] = 14
    elif case == "num_qubits":
        doc["num_qubits"] = 5
    else:  # one f or g record's sign flipped
        doc[case][3][3] *= -1
    return case


@pytest.mark.parametrize(
    "case",
    ["generators", "rotated", "non-hermitian", "words", "identity", "normalized", "n",
     "num_qubits", "f", "g"],
)
def test_tampered_basis_refused(case, tmp_path):
    basis = build_basis(2, normalized=case != "normalized")
    path = tmp_path / "basis.json"
    write_basis(path, basis, structure_constants(basis))
    doc = json.loads(path.read_text())
    field = _tamper(doc, case)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        read_basis(path)
    assert str(exc.value).startswith(f"{path}: {field}:")


def test_rounded_structure_constants_still_read(tmp_path):
    # files written when f and g came from trace projection may carry
    # values a few ulps off the closed-form ones
    basis = build_basis(3)
    path = tmp_path / "basis.json"
    write_basis(path, basis, structure_constants(basis))
    doc = json.loads(path.read_text())
    for rec in doc["f"][:50] + doc["g"][:50]:
        rec[3] = float(np.nextafter(rec[3], 0.0))
    path.write_text(json.dumps(doc))
    _, tensors = read_basis(path)
    assert tensors.f_val[0] == doc["f"][0][3]


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
    assert np.array_equal(sys2.N_ind, sys.N_ind)
    assert np.array_equal(sys2.N_val, sys.N_val)
    assert sys2.m == sys.m
    assert np.array_equal(sys2.C, sys.C)
    assert np.array_equal(sys2.x0, sys.x0)
    doc = json.loads(path.read_text())
    assert min(min(r[:3]) for r in doc["N_list"]) == 1


def _one_qubit_system(basis, tensors):
    params = GkslParams(theta=np.array([0.0, 0.0, 1.0]), gamma=np.diag([0.2, 0.2, 0.1]))
    return assemble_system(basis, tensors, params)


def _keep_channels(sys, m):
    """sys with only its first m control maps."""
    keep = sys.N_ind[:, 0] < m
    sys.N_ind, sys.N_val, sys.m = sys.N_ind[keep], sys.N_val[keep], m


@pytest.mark.parametrize("channels", [0, 1, 3])
def test_system_round_trip_keeps_channel_count(one_qubit, channels, tmp_path):
    # before the count was stored, every system read back with n maps
    sys = _one_qubit_system(*one_qubit)
    _keep_channels(sys, channels)
    path = tmp_path / "system.json"
    write_system(path, sys)
    assert json.loads(path.read_text())["channels"] == channels
    sys2 = read_system(path)
    assert sys2.m == channels
    assert np.array_equal(sys2.N_ind, sys.N_ind)
    assert np.array_equal(sys2.N_val, sys.N_val)


def test_system_file_without_channels_holds_n_maps(one_qubit, tmp_path):
    sys = _one_qubit_system(*one_qubit)
    path = tmp_path / "system.json"
    write_system(path, sys)
    doc = json.loads(path.read_text())
    del doc["channels"]
    path.write_text(json.dumps(doc))
    sys2 = read_system(path)
    assert sys2.m == 3
    assert np.array_equal(sys2.N_ind, sys.N_ind)
    assert np.array_equal(sys2.N_val, sys.N_val)


@pytest.mark.parametrize(
    "record", [[2, 1, 2, 1.0], [0, 1, 2, 1.0], [1, 4, 2, 1.0], [1, 1, 0, 1.0], [-1, 1, 1, 1.0]]
)
def test_system_record_outside_channels_refused(one_qubit, record, tmp_path):
    sys = _one_qubit_system(*one_qubit)
    _keep_channels(sys, 1)
    path = tmp_path / "system.json"
    write_system(path, sys)
    doc = json.loads(path.read_text())
    doc["N_list"].append(record)
    path.write_text(json.dumps(doc))
    where = len(doc["N_list"])
    with pytest.raises(ValueError, match=rf"N_list record {where} .* is outside \(1, 3, 3\)"):
        read_system(path)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_system_file_matches_dense_writer(num_qubits, tmp_path):
    # the records come straight from the sparse rows, byte for byte as the
    # writer that scanned the dense control maps wrote them
    basis = build_basis(num_qubits)
    tensors = structure_constants(basis)
    n = basis.n
    rng = np.random.default_rng(409 + num_qubits)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sys = assemble_system(
        basis, tensors, GkslParams(theta=rng.normal(size=n), gamma=m @ m.conj().T / n)
    )
    sys.x0 = rng.normal(size=n)
    path, ref = tmp_path / "system.json", tmp_path / "dense.json"
    write_system(path, sys)
    write_system_dense(ref, sys, -f_dense(tensors))
    assert path.read_bytes() == ref.read_bytes()


def test_system_records_read_in_any_order(one_qubit, tmp_path):
    sys = _one_qubit_system(*one_qubit)
    path = tmp_path / "system.json"
    write_system(path, sys)
    doc = json.loads(path.read_text())
    doc["N_list"].reverse()
    path.write_text(json.dumps(doc))
    sys2 = read_system(path)
    assert np.array_equal(sys2.N_ind, sys.N_ind)
    assert np.array_equal(sys2.N_val, sys.N_val)


@pytest.mark.parametrize("value", [1.0, -0.25])
def test_system_repeated_record_refused(one_qubit, value, tmp_path):
    # the last of two records for one entry used to win silently
    sys = _one_qubit_system(*one_qubit)
    path = tmp_path / "system.json"
    write_system(path, sys)
    doc = json.loads(path.read_text())
    c, j, k, _ = doc["N_list"][1]
    doc["N_list"].append([c, j, k, value])
    path.write_text(json.dumps(doc))
    where = len(doc["N_list"])
    with pytest.raises(
        ValueError, match=rf"N_list record {where} \[{c}, {j}, {k}\] repeats record 2"
    ):
        read_system(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_write_refused(bad, tmp_path):
    # JSON has no NaN or Infinity token; the writer refuses before it
    # opens the file, so none is left behind
    theta = np.array([0.1, bad, 0.3])
    path = tmp_path / "params.json"
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": .*JSON has no NaN or Infinity"):
        write_params(path, GkslParams(theta=theta, gamma=np.eye(3)))
    assert not path.exists()


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
    pulses.append(Pulse(tau=0.05, alpha=0.8, channel=0))
    path = tmp_path / "pulses.json"
    write_pulses(path, pulses)
    pulses2 = read_pulses(path)
    assert len(pulses2) == 3
    for p, q in zip(pulses, pulses2):
        assert p.tau == q.tau
        assert p.alpha == q.alpha
        assert p.channel == q.channel
    doc = json.loads(path.read_text())
    assert [p["channel"] for p in doc["pulses"]] == [3, 3, 1]
    assert all("total_time" not in p for p in doc["pulses"])


def test_pulses_with_total_time_read(tmp_path):
    # older writers stored an optional total_time per pulse
    path = tmp_path / "pulses.json"
    path.write_text(json.dumps({
        "schema": "oqsident/pulses/1",
        "pulses": [
            {"tau": 0.1, "alpha": 0.8, "channel": 1, "total_time": 1.0},
            {"tau": 0.3, "alpha": 0.8, "channel": 2, "total_time": None},
        ],
    }))
    pulses = read_pulses(path)
    assert [(p.tau, p.alpha, p.channel) for p in pulses] == [(0.1, 0.8, 0), (0.3, 0.8, 1)]


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
    assert np.array_equal(model2.C, model.C)
    for Fi, Fj in zip(model2.F, model.F):
        assert np.array_equal(Fi, Fj)
    doc = json.loads(path.read_text())
    assert doc["schema"] == "oqsident/model/2"
    assert "Gamma" not in doc
    again = tmp_path / "again.json"
    write_model(again, model2)
    assert again.read_bytes() == path.read_bytes()
    model.F = None
    write_model(path, model)
    assert read_model(path).F is None


def model_v1_doc(model):
    """A model file as the model/1 writer laid it out, with the stacked
    readout block Gamma = [C; C G_1; ...; C G_l]."""
    l = len(model.times) - 2
    return {
        "schema": "oqsident/model/1",
        "order": int(model.order),
        "T": float(model.T),
        "times": model.times.tolist(),
        "G": model.G.tolist(),
        "G_offsets": [Gi.tolist() for Gi in model.G_offsets],
        "Gamma": np.vstack([model.C @ model.G_offsets[i] for i in range(l + 1)]).tolist(),
        "C": model.C.tolist(),
        "F": None if model.F is None else [Fi.tolist() for Fi in model.F],
    }


def test_model_v1_with_gamma_reads(tmp_path):
    rng = np.random.default_rng(409)
    A = rng.normal(size=(3, 3)) - 2.0 * np.eye(3)
    sched = golden_schedule(T=0.5, l=2)
    model = exact_multirate_model(A, rng.normal(size=(3, 1)), np.eye(3)[:2], sched)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_v1_doc(model)))
    model2 = read_model(path)
    assert model2.order == model.order
    assert model2.T == model.T
    assert np.array_equal(model2.times, model.times)
    assert np.array_equal(model2.G, model.G)
    assert all(np.array_equal(a, b) for a, b in zip(model2.G_offsets, model.G_offsets))
    assert np.array_equal(model2.C, model.C)
    assert all(np.array_equal(a, b) for a, b in zip(model2.F, model.F))
    # rewritten, it is a model/2 file without Gamma
    write_model(path, model2)
    doc = json.loads(path.read_text())
    assert doc["schema"] == "oqsident/model/2"
    assert "Gamma" not in doc



@pytest.mark.parametrize("cut", ["x", "times", "G_offsets"])
def test_list_lengths_must_agree(cut, tmp_path):
    # a record's states are one row per sample and a model's offset maps
    # one per offset time; a shorter list used to end in an IndexError
    # downstream, or (times) to go unnoticed
    if cut == "x":
        path = tmp_path / "record.json"
        write_record(path, _demo_record())
        want = r"x: shape \(\d+, 3\), expected \(\d+, \*\)"
    else:
        rng = np.random.default_rng(409)
        A = rng.normal(size=(3, 3)) - 2.0 * np.eye(3)
        model = exact_multirate_model(A, rng.normal(size=(3, 1)), np.eye(3),
                                      golden_schedule(T=0.5, l=2))
        path = tmp_path / "model.json"
        write_model(path, model)
        want = r"G_offsets: shape \(\d,\), expected \(\d,\)"
    doc = json.loads(path.read_text())
    doc[cut] = doc[cut][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {want}$"):
        (read_record if cut == "x" else read_model)(path)

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



def test_unparsable_file_named(tmp_path):
    # json's own error names a line and column, not the file
    path = tmp_path / "schedule.json"
    write_schedule(path, golden_schedule(T=0.5, l=1))
    path.write_text(path.read_text()[:-10])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not JSON: "):
        read_schedule(path)


@pytest.mark.parametrize("kind", ["schedule", "pulses"])
def test_out_of_range_value_named_with_path(kind, tmp_path):
    # the objects' own range checks used to reach the CLI without the file
    path = tmp_path / f"{kind}.json"
    if kind == "schedule":
        write_schedule(path, golden_schedule(T=0.5, l=1))
        doc = json.loads(path.read_text())
        doc["frames"] = 0
        want, read = "frames must be at least 1", read_schedule
    else:
        write_pulses(path, make_pulse_family(0.8, [0.1, 0.3]))
        doc = json.loads(path.read_text())
        doc["pulses"][1]["tau"] = -0.1
        want, read = r"pulses\[1\]: pulse width tau must be nonnegative", read_pulses
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {want}$"):
        read(path)

def test_write_is_idempotent(one_qubit, tmp_path):
    # repr floats: write -> read -> write reproduces the file byte for byte
    basis, tensors = one_qubit
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_basis(p1, basis, tensors)
    b2, t2 = read_basis(p1)
    write_basis(p2, b2, t2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------- on-disk bytes


def _pinned_objects():
    """Writer and arguments of each format, from small literal 1-qubit
    objects, so that no numerical change elsewhere moves these files."""
    gamma = np.array([[0.5, 0.25j, 0.0], [-0.25j, 0.5, 0.0], [0.0, 0.0, 0.125]])
    raw = build_basis(1, normalized=False)
    return {
        "basis": (write_basis, raw, structure_constants(raw)),
        "params": (
            write_params, GkslParams(theta=[0.0, -0.5, 1.5], gamma=gamma), [np.diag([1.0, -1.0])]
        ),
        "system": (write_system, CoherenceSystem(
            n=3, A_l=[[0.0, -1.5, 0.0], [1.5, 0.0, 0.0], [0.0, 0.0, 0.0]],
            A_d=np.diag([-0.5, -0.5, -1.0]), beta=[0.0, 0.0, 0.25],
            N_ind=np.array([[0, 1, 2], [0, 2, 1]]), N_val=np.array([-2.0, 2.0]), m=1,
            C=[[0.0, 0.0, 1.0]], x0=[0.0, 0.0, 0.5],
        )),
        "schedule": (write_schedule, SamplingSchedule(
            T=0.5, times=[0.0, 0.2, 0.5], frames=2, declared_irrational=True, note="by hand"
        )),
        "pulses": (write_pulses, [Pulse(0.1, 0.8, 0), Pulse(0.25, -0.4, 2)]),
        "record": (write_record, MeasurementRecord(
            t=np.array([0.0, 0.2]), y=np.array([[0.5], [0.375]]), frame=np.array([0, 0]),
            offset_index=np.array([0, 1]), pulse_id=np.array([0, -1]),
            x=np.array([[0.0, 0.0, 0.5], [0.125, 0.0, 0.375]]), meta={"seed": 7},
        )),
        "model": (write_model, DiscreteMultirateModel(
            order=2, T=0.5, times=np.array([0.0, 0.2, 0.5]), G=np.diag([0.5, 0.25]),
            G_offsets=[np.eye(2), np.diag([0.75, 0.5]), np.diag([0.5, 0.25])],
            C=np.array([[1.0, 0.0]]), F=[np.array([[0.125], [0.0]])] * 2,
        )),
        "contsys": (write_contsys, ContinuousModel(
            A=np.array([[-1.0, 2.0], [-2.0, -1.0]]), eigenvalues=np.array([-1 + 2j, -1 - 2j]),
            window=6.25, residuals=[1e-16],
            notes=["no input maps in the family; B not recovered"],
        )),
        "report": (write_report, IdentifiabilityReport(
            mode="autonomous", verdict=False, inconclusive=False, required_rank=3,
            rank_obs=3, rank_ctrl=0, sampling=SamplingPolicyReport(
                pairs=[PairVerdict(i=0, j=1, ratio=0.5, verdict="rational", p=1, q=2)],
                ok=False, declared=False,
            ),
            clauses=["increments 1 and 2 are commensurate"], channels=(0, 2),
        )),
        "params_hat": (write_params_hat, RecoveredParams(
            status="full", theta=np.array([0.0, -0.5, 1.5]), gamma=gamma, residual_A=2.5e-16,
            residual_beta=0.0, kappa=4.0, hermiticity_defect=0.0, notes=[],
        )),
    }


# each file with the newlines and indents of its layout removed
_PINNED = {
    "basis": (
        '{"schema": "oqsident/basis/1","num_qubits": 1,"dim": 2,"n": 3,"normalized": false,'
        '"words": ["x","y","z"],"generators": [[[0.0,0.0],[1.0,0.0],[1.0,0.0],[0.0,0.0]],'
        '[[0.0,0.0],[0.0,-1.0],[0.0,1.0],[0.0,0.0]],[[1.0,0.0],[0.0,0.0],[0.0,0.0],[-1.0,'
        '0.0]]],"identity": [[1.0,0.0],[0.0,0.0],[0.0,0.0],[1.0,0.0]],"f": [[1,2,3,2.0],[1,3,'
        '2,-2.0],[2,1,3,-2.0],[2,3,1,2.0],[3,1,2,2.0],[3,2,1,-2.0]],"g": []}'
    ),
    "params": (
        '{"schema": "oqsident/params/1","n": 3,"theta": [0.0,-0.5,1.5],"gamma": [[0.5,0.0],'
        '[0.0,0.25],[0.0,0.0],[-0.0,-0.25],[0.5,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.125,'
        '0.0]],"symmetric": false,"observables": [[[1.0,0.0],[0.0,0.0],[0.0,0.0],[-1.0,'
        '0.0]]],"observable_dim": 2}'
    ),
    "system": (
        '{"schema": "oqsident/system/1","n": 3,"A_l": [[0.0,-1.5,0.0],[1.5,0.0,0.0],[0.0,0.0,'
        '0.0]],"A_d": [[-0.5,0.0,0.0],[0.0,-0.5,0.0],[0.0,0.0,-1.0]],"beta": [0.0,0.0,0.25],'
        '"channels": 1,"N_list": [[1,2,3,-2.0],[1,3,2,2.0]],"C": [[0.0,0.0,1.0]],"x0": [0.0,'
        '0.0,0.5]}'
    ),
    "schedule": (
        '{"schema": "oqsident/schedule/1","T": 0.5,"times": [0.0,0.2,0.5],"frames": 2,'
        '"declared_irrational": true,"note": "by hand"}'
    ),
    "pulses": (
        '{"schema": "oqsident/pulses/1","pulses": [{"tau": 0.1,"alpha": 0.8,"channel": 1},'
        '{"tau": 0.25,"alpha": -0.4,"channel": 3}]}'
    ),
    "record": (
        '{"schema": "oqsident/record/1","samples": [{"t": 0.0,"y": [0.5],"frame": 0,'
        '"offset": 0,"pulse_id": 1},{"t": 0.2,"y": [0.375],"frame": 0,"offset": 1,'
        '"pulse_id": null}],"meta": {"seed": 7},"x": [[0.0,0.0,0.5],[0.125,0.0,0.375]]}'
    ),
    "model": (
        '{"schema": "oqsident/model/2","order": 2,"T": 0.5,"times": [0.0,0.2,0.5],"G": [[0.5,'
        '0.0],[0.0,0.25]],"G_offsets": [[[1.0,0.0],[0.0,1.0]],[[0.75,0.0],[0.0,0.5]],[[0.5,'
        '0.0],[0.0,0.25]]],"C": [[1.0,0.0]],"F": [[[0.125],[0.0]],[[0.125],[0.0]]]}'
    ),
    "contsys": (
        '{"schema": "oqsident/contsys/1","A": [[-1.0,2.0],[-2.0,-1.0]],"B": null,'
        '"eigenvalues": [[-1.0,2.0],[-1.0,-2.0]],"window": 6.25,"residuals": [1e-16],'
        '"notes": ["no input maps in the family; B not recovered"]}'
    ),
    "report": (
        '{"schema": "oqsident/report/1","mode": "autonomous","verdict": false,'
        '"inconclusive": false,"required_rank": 3,"rank_obs": 3,"rank_ctrl": 0,'
        '"pulses_ok": null,"clauses": ["increments 1 and 2 are commensurate"],"channels": [1,'
        '3],"sampling": {"ok": false,"declared": false,"pairs": [{"i": 1,"j": 2,"ratio": 0.5,'
        '"verdict": "rational","p": 1,"q": 2}]}}'
    ),
    "params_hat": (
        '{"schema": "oqsident/params_hat/1","status": "full","theta": [0.0,-0.5,1.5],'
        '"gamma": [[0.5,0.0],[0.0,0.25],[0.0,0.0],[-0.0,-0.25],[0.5,0.0],[0.0,0.0],[0.0,0.0],'
        '[0.0,0.0],[0.125,0.0]],"n": 3,"residual_A": 2.5e-16,"residual_beta": 0.0,'
        '"kappa": 4.0,"hermiticity_defect": 0.0,"notes": []}'
    ),
}


@pytest.mark.parametrize("fmt", list(_PINNED))
def test_written_bytes_are_pinned(fmt, tmp_path):
    writer, *args = _pinned_objects()[fmt]
    path = tmp_path / f"{fmt}.json"
    writer(path, *args)
    text = path.read_text()
    # the layout: json.dumps with indent=1, then a newline
    assert text == json.dumps(json.loads(text), indent=1) + "\n"
    # the fields, their order and the repr of every number
    assert re.sub(r"\n *", "", text) == _PINNED[fmt]
