"""Versioned JSON serialization for every artifact type.

Every file carries a "schema" field like "oqsident/params/1"; readers
refuse files with a missing or unexpected schema (`read_model` also
accepts the older "oqsident/model/1").  Floats go through
Python's repr (shortest round-trip form), so write/read cycles are
bit-exact; writers refuse NaN and infinities, which JSON cannot hold.
Complex matrices are stored as flat row-major lists of [re, im] pairs;
real matrices as nested row-major lists; structure tensors and control
matrices as sparse (indices..., value) records with 1-based indices.
The Python API stays 0-based throughout; only this layer shifts indices.
"""

import json

import numpy as np

from .gksl import CoherenceSystem, GkslParams
from .identify import IdentifiabilityReport, PairVerdict, SamplingPolicyReport
from .ldsrec import ContinuousModel, DiscreteMultirateModel
from .liealg import LieBasis, StructureTensors, structure_constants
from .paramrec import RecoveredParams
from .simulate import MeasurementRecord, Pulse, SamplingSchedule


class SchemaError(ValueError):
    """Missing or unsupported schema field in a JSON artifact."""


_SCHEMAS = {
    "basis": "oqsident/basis/1",
    "params": "oqsident/params/1",
    "system": "oqsident/system/1",
    "schedule": "oqsident/schedule/1",
    "pulses": "oqsident/pulses/1",
    "record": "oqsident/record/1",
    "model": "oqsident/model/2",
    "contsys": "oqsident/contsys/1",
    "report": "oqsident/report/1",
    "params_hat": "oqsident/params_hat/1",
}

# older versions their readers still accept: model/1 also held the stacked
# readout block Gamma, which no reader uses
_OLD_SCHEMAS = {"model": ("oqsident/model/1",)}


def _dump(doc, path):
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}; JSON has no NaN or Infinity") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _load(path, kind):
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema is None:
        raise SchemaError(f"{path}: missing schema field")
    if schema != _SCHEMAS[kind] and schema not in _OLD_SCHEMAS.get(kind, ()):
        raise SchemaError(f"{path}: schema {schema!r}, expected {_SCHEMAS[kind]!r}")
    return doc


def _cpairs(mat):
    """Flat row-major [re, im] pairs of a complex array."""
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], axis=1).tolist()


def _from_cpairs(pairs, shape):
    """Complex array of `shape` from flat [re, im] pairs; filling the real
    and imaginary parts apart keeps signed zeros."""
    parts = np.array(pairs, dtype=float).reshape(len(pairs), 2)
    flat = np.empty(len(parts), dtype=complex)
    flat.real, flat.imag = parts.T
    return flat.reshape(shape)


def _real(mat):
    return np.asarray(mat, dtype=float).tolist()


def _sparse_records(ind, val):
    return [[*(int(i) + 1 for i in row), float(v)] for row, v in zip(ind, val)]


def _from_sparse_records(records, width):
    if not records:
        return np.zeros((0, width), dtype=int), np.zeros(0)
    ind = np.array([[int(r[c]) - 1 for c in range(width)] for r in records], dtype=int)
    val = np.array([float(r[width]) for r in records])
    return ind, val


# ---------------------------------------------------------------- basis


def write_basis(path, basis, tensors):
    doc = {
        "schema": _SCHEMAS["basis"],
        "num_qubits": basis.num_qubits,
        "dim": basis.dim,
        "n": basis.n,
        "normalized": basis.normalized,
        "words": list(basis.words),
        "generators": [_cpairs(F) for F in basis.generators],
        "identity": _cpairs(basis.identity),
        "f": _sparse_records(tensors.f_ind, tensors.f_val),
        "g": _sparse_records(tensors.g_ind, tensors.g_val),
    }
    _dump(doc, path)


def _near(got, want):
    """Whether a file field holds the numbers of the array want, in its
    row-major order and within 1e-12, complex entries as [re, im] pairs."""
    if np.iscomplexobj(want):
        want = np.stack([want.real, want.imag], axis=-1)
    try:
        got = np.asarray(got, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        return False
    return got.size == want.size and np.allclose(got.ravel(), want.ravel(), rtol=0, atol=1e-12)


def read_basis(path):
    """(LieBasis, StructureTensors) of a basis file.  Every field must be
    that of the basis of its num_qubits (1 to 4) and normalized flag, the
    numbers within 1e-12 (older files hold rounded stacks and projected f
    and g); otherwise ValueError names the field."""
    doc = _load(path, "basis")
    try:
        basis = LieBasis(doc["num_qubits"], doc["normalized"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    t = structure_constants(basis)
    for name, ok in (
        ("dim", doc["dim"] == basis.dim),
        ("n", doc["n"] == basis.n),
        ("words", doc["words"] == basis.words),
        ("identity", _near(doc["identity"], basis.identity)),
        ("generators", _near(doc["generators"], basis.generators)),
        ("f", _near(doc["f"], np.column_stack([t.f_ind + 1, t.f_val]))),
        ("g", _near(doc["g"], np.column_stack([t.g_ind + 1, t.g_val]))),
    ):
        if not ok:
            raise ValueError(f"{path}: {name}: not that of the {basis.num_qubits}-qubit basis")
    # the indices are those of t, the values the file's (within 1e-12 of t's)
    f_val, g_val = (np.asarray(doc[x], dtype=float).reshape(-1, 4)[:, 3] for x in "fg")
    return basis, StructureTensors(basis.n, t.f_ind, f_val, t.g_ind, g_val)


# ---------------------------------------------------------------- params


def write_params(path, params, observables=None):
    doc = {
        "schema": _SCHEMAS["params"],
        "n": params.n,
        "theta": [float(t) for t in params.theta],
        "gamma": _cpairs(params.gamma),
        "symmetric": bool(params.symmetric),
    }
    if observables is not None:
        dim = int(round(np.sqrt(params.n + 1)))
        doc["observables"] = [_cpairs(np.asarray(O, dtype=complex)) for O in observables]
        doc["observable_dim"] = dim
    _dump(doc, path)


def read_params(path):
    doc = _load(path, "params")
    n = doc["n"]
    params = GkslParams(
        theta=np.array(doc["theta"], dtype=float),
        gamma=_from_cpairs(doc["gamma"], (n, n)),
        symmetric=doc["symmetric"],
    )
    observables = None
    if "observables" in doc:
        dim = doc["observable_dim"]
        observables = [_from_cpairs(p, (dim, dim)) for p in doc["observables"]]
    return params, observables


# ---------------------------------------------------------------- system


def write_system(path, sys):
    doc = {
        "schema": _SCHEMAS["system"],
        "n": sys.n,
        "A_l": _real(sys.A_l),
        "A_d": _real(sys.A_d),
        "beta": _real(sys.beta),
        "channels": sys.m,
        "N_list": _sparse_records(sys.N_ind, sys.N_val),
        "C": _real(sys.C),
        "x0": _real(sys.x0),
    }
    _dump(doc, path)


def read_system(path):
    """CoherenceSystem of a system file.  Files without "channels" hold n
    control maps.  A control-map record indexing outside (channels, n, n),
    or repeating the (c, j, k) of an earlier one, raises ValueError naming
    the record."""
    doc = _load(path, "system")
    n = doc["n"]
    shape = (doc.get("channels", n), n, n)
    ind, val = _from_sparse_records(doc["N_list"], 3)
    rows, first, inverse = np.unique(ind, axis=0, return_index=True, return_inverse=True)
    earlier = first[inverse.reshape(-1)]  # the record that first holds each (c, j, k)
    outside = ((ind < 0) | (ind >= shape)).any(axis=1)
    bad = np.flatnonzero(outside | (earlier < np.arange(len(ind))))
    if len(bad):
        i = bad[0]
        why = f"is outside {shape}" if outside[i] else f"repeats record {earlier[i] + 1}"
        raise ValueError(f"{path}: N_list record {i + 1} {(ind[i] + 1).tolist()} {why}")
    return CoherenceSystem(
        n=n,
        A_l=np.array(doc["A_l"], dtype=float),
        A_d=np.array(doc["A_d"], dtype=float),
        beta=np.array(doc["beta"], dtype=float),
        N_ind=rows,
        N_val=val[first],
        m=shape[0],
        C=np.array(doc["C"], dtype=float),
        x0=np.array(doc["x0"], dtype=float),
    )


# ---------------------------------------------------------------- schedule


def write_schedule(path, schedule):
    doc = {
        "schema": _SCHEMAS["schedule"],
        "T": float(schedule.T),
        "times": _real(schedule.times),
        "frames": int(schedule.frames),
        "declared_irrational": bool(schedule.declared_irrational),
        "note": schedule.note,
    }
    _dump(doc, path)


def read_schedule(path):
    doc = _load(path, "schedule")
    return SamplingSchedule(
        T=doc["T"],
        times=np.array(doc["times"], dtype=float),
        frames=doc["frames"],
        declared_irrational=doc["declared_irrational"],
        note=doc.get("note", ""),
    )


# ---------------------------------------------------------------- pulses


def write_pulses(path, pulses):
    doc = {
        "schema": _SCHEMAS["pulses"],
        "pulses": [
            {
                "tau": float(p.tau),
                "alpha": float(p.alpha),
                "channel": int(p.channel) + 1,
            }
            for p in pulses
        ],
    }
    _dump(doc, path)


def read_pulses(path):
    """Pulses of a pulses file.  Keys other than tau, alpha and channel,
    such as the end time older writers stored, are ignored."""
    doc = _load(path, "pulses")
    return [
        Pulse(tau=p["tau"], alpha=p["alpha"], channel=int(p["channel"]) - 1)
        for p in doc["pulses"]
    ]


# ---------------------------------------------------------------- record


def write_record(path, record):
    samples = []
    for s in range(len(record.t)):
        pid = int(record.pulse_id[s])
        samples.append(
            {
                "t": float(record.t[s]),
                "y": _real(record.y[s]),
                "frame": int(record.frame[s]),
                "offset": int(record.offset_index[s]),
                "pulse_id": None if pid < 0 else pid + 1,
            }
        )
    doc = {
        "schema": _SCHEMAS["record"],
        "samples": samples,
        "meta": record.meta,
    }
    if record.x is not None:
        doc["x"] = _real(record.x)
    _dump(doc, path)


def read_record(path):
    doc = _load(path, "record")
    samples = doc["samples"]
    pid = np.array(
        [-1 if s["pulse_id"] is None else int(s["pulse_id"]) - 1 for s in samples],
        dtype=int,
    )
    return MeasurementRecord(
        t=np.array([s["t"] for s in samples], dtype=float),
        y=np.array([s["y"] for s in samples], dtype=float),
        frame=np.array([s["frame"] for s in samples], dtype=int),
        offset_index=np.array([s["offset"] for s in samples], dtype=int),
        pulse_id=pid,
        x=np.array(doc["x"], dtype=float) if "x" in doc else None,
        meta=doc.get("meta", {}),
    )


# ---------------------------------------------------------------- model


def write_model(path, model):
    doc = {
        "schema": _SCHEMAS["model"],
        "order": int(model.order),
        "T": float(model.T),
        "times": _real(model.times),
        "G": _real(model.G),
        "G_offsets": [_real(Gi) for Gi in model.G_offsets],
        "C": _real(model.C),
        "F": None if model.F is None else [_real(Fi) for Fi in model.F],
    }
    _dump(doc, path)


def read_model(path):
    """DiscreteMultirateModel of a model/2 file, or of a model/1 file,
    whose Gamma is ignored."""
    doc = _load(path, "model")
    return DiscreteMultirateModel(
        order=doc["order"],
        T=doc["T"],
        times=np.array(doc["times"], dtype=float),
        G=np.array(doc["G"], dtype=float),
        G_offsets=[np.array(Gi, dtype=float) for Gi in doc["G_offsets"]],
        C=np.array(doc["C"], dtype=float),
        F=None if doc["F"] is None else [np.array(Fi, dtype=float) for Fi in doc["F"]],
    )


# ---------------------------------------------------------------- contsys


def write_contsys(path, model):
    doc = {
        "schema": _SCHEMAS["contsys"],
        "A": _real(model.A),
        "B": None if model.B is None else _real(model.B),
        "eigenvalues": None
        if model.eigenvalues is None
        else _cpairs(model.eigenvalues),
        "window": model.window,
        "residuals": model.residuals,
        "notes": model.notes,
    }
    _dump(doc, path)


def read_contsys(path):
    doc = _load(path, "contsys")
    eig = doc.get("eigenvalues")
    return ContinuousModel(
        A=np.array(doc["A"], dtype=float),
        B=None if doc["B"] is None else np.array(doc["B"], dtype=float),
        eigenvalues=None if eig is None else _from_cpairs(eig, (len(eig),)),
        window=doc.get("window"),
        residuals=doc.get("residuals", []),
        notes=doc.get("notes", []),
    )


# ---------------------------------------------------------------- report


def write_report(path, report):
    doc = {
        "schema": _SCHEMAS["report"],
        "mode": report.mode,
        "verdict": bool(report.verdict),
        "inconclusive": bool(report.inconclusive),
        "required_rank": int(report.required_rank),
        "rank_obs": int(report.rank_obs),
        "rank_ctrl": int(report.rank_ctrl),
        "pulses_ok": report.pulses_ok,
        "clauses": report.clauses,
    }
    if report.channels is not None:
        doc["channels"] = [int(c) + 1 for c in report.channels]
    if report.sampling is not None:
        doc["sampling"] = {
            "ok": report.sampling.ok,
            "declared": report.sampling.declared,
            "pairs": [
                {
                    "i": p.i + 1,
                    "j": p.j + 1,
                    "ratio": p.ratio,
                    "verdict": p.verdict,
                    "p": p.p,
                    "q": p.q,
                }
                for p in report.sampling.pairs
            ],
        }
    _dump(doc, path)


def read_report(path):
    doc = _load(path, "report")
    sampling = None
    if "sampling" in doc:
        sampling = SamplingPolicyReport(
            pairs=[
                PairVerdict(
                    i=p["i"] - 1,
                    j=p["j"] - 1,
                    ratio=p["ratio"],
                    verdict=p["verdict"],
                    p=p.get("p"),
                    q=p.get("q"),
                )
                for p in doc["sampling"]["pairs"]
            ],
            ok=doc["sampling"]["ok"],
            declared=doc["sampling"]["declared"],
        )
    return IdentifiabilityReport(
        mode=doc["mode"],
        verdict=doc["verdict"],
        inconclusive=doc["inconclusive"],
        required_rank=doc["required_rank"],
        rank_obs=doc["rank_obs"],
        rank_ctrl=doc["rank_ctrl"],
        sampling=sampling,
        pulses_ok=doc.get("pulses_ok"),
        clauses=list(doc.get("clauses", [])),
        channels=None if "channels" not in doc else tuple(c - 1 for c in doc["channels"]),
    )


# ---------------------------------------------------------------- params_hat


def write_params_hat(path, rec):
    n = None if rec.gamma is None else rec.gamma.shape[0]
    doc = {
        "schema": _SCHEMAS["params_hat"],
        "status": rec.status,
        "theta": None if rec.theta is None else _real(rec.theta),
        "gamma": None if rec.gamma is None else _cpairs(rec.gamma),
        "n": n,
        "residual_A": rec.residual_A,
        "residual_beta": rec.residual_beta,
        "kappa": rec.kappa,
        "hermiticity_defect": rec.hermiticity_defect,
        "notes": rec.notes,
    }
    _dump(doc, path)


def read_params_hat(path):
    doc = _load(path, "params_hat")
    gamma = None
    if doc["gamma"] is not None:
        n = doc["n"]
        gamma = _from_cpairs(doc["gamma"], (n, n))
    return RecoveredParams(
        status=doc["status"],
        theta=None if doc["theta"] is None else np.array(doc["theta"], dtype=float),
        gamma=gamma,
        residual_A=doc.get("residual_A"),
        residual_beta=doc.get("residual_beta"),
        kappa=doc.get("kappa"),
        hermiticity_defect=doc.get("hermiticity_defect"),
        notes=list(doc.get("notes", [])),
    )
