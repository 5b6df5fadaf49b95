"""Versioned JSON serialization for every artifact type.

Every file carries a "schema" field like "oqsident/params/1".  `_FORMATS`
maps each schema to its fields in file order, one row (name, kind) or
(name, kind, shape) per field, and one writer and one reader walk it.
Kinds: the scalars int, real, bool, text and index (stored 1-based); the
arrays reals (nested row-major lists), cpairs (a complex array as a flat
row-major list of [re, im] pairs) and records (sparse (indices..., value)
records, 1-based, one index per axis of their shape); json (free-form);
and the nested field lists of `_OBJECTS`.  A "[]" suffix makes a list, a
"?" suffix allows null.  A shape names integer fields of the file (n,
order, ...) or list fields (for their lengths); any other name is fixed
by the first array that uses it, and None is free.  Fields in `_OPTIONAL`
may be absent: writers omit them when None, readers return None.

Readers refuse a document that is not an object, or whose schema is
missing or unexpected (SchemaError), and a field that is missing,
mistyped, misshapen or null where its row allows no null, with
ValueError("{path}: {field}: ..."), a nested field named like
samples[3].y; they do not judge finiteness.  Only what the table cannot
say stays per format: `read_basis` compares the file with the basis built
in code, `read_system` refuses control-map records outside the stored
channels or repeating an earlier one, and `read_model` also accepts the
older "oqsident/model/1".  The range checks of the schedule and pulses
that `read_schedule` and `read_pulses` build name the path too.

Floats go through Python's repr (shortest round-trip form), so
write/read cycles are bit-exact; writers refuse NaN and infinities,
which JSON cannot hold.  The Python API stays 0-based throughout; only
this layer shifts indices.
"""

import json
from types import SimpleNamespace

import numpy as np

from .gksl import CoherenceSystem, GkslParams
from .identify import IdentifiabilityReport, PairVerdict, SamplingPolicyReport
from .ldsrec import ContinuousModel, DiscreteMultirateModel
from .liealg import LieBasis, StructureTensors, structure_constants
from .paramrec import RecoveredParams
from .simulate import MeasurementRecord, Pulse, SamplingSchedule


class SchemaError(ValueError):
    """Missing or unsupported schema field in a JSON artifact."""


_OBJECTS = {
    "pulse": (("tau", "real"), ("alpha", "real"), ("channel", "index")),
    "sample": (
        ("t", "real"), ("y", "reals", ("outputs",)), ("frame", "int"), ("offset", "int"),
        ("pulse_id", "index?"),
    ),
    "sampling": (("ok", "bool"), ("declared", "bool"), ("pairs", "pair[]")),
    "pair": (
        ("i", "index"), ("j", "index"), ("ratio", "real"), ("verdict", "text"),
        ("p", "int?"), ("q", "int?"),
    ),
}

_FORMATS = {
    "oqsident/basis/1": (
        ("num_qubits", "int"), ("dim", "int"), ("n", "int"), ("normalized", "bool"),
        ("words", "text[]"),
        ("generators", "cpairs[]", ("dim", "dim")),
        ("identity", "cpairs", ("dim", "dim")),
        ("f", "records", ("n", "n", "n")),
        ("g", "records", ("n", "n", "n")),
    ),
    "oqsident/params/1": (
        ("n", "int"),
        ("theta", "reals", ("n",)),
        ("gamma", "cpairs", ("n", "n")),
        ("symmetric", "bool"),
        ("observables", "cpairs[]", ("observable_dim", "observable_dim")),
        ("observable_dim", "int"),
    ),
    "oqsident/system/1": (
        ("n", "int"),
        ("A_l", "reals", ("n", "n")),
        ("A_d", "reals", ("n", "n")),
        ("beta", "reals", ("n",)),
        ("channels", "int"),  # files without it hold n control maps
        ("N_list", "records", ("channels", "n", "n")),
        ("C", "reals", (None, "n")),
        ("x0", "reals", ("n",)),
    ),
    "oqsident/schedule/1": (
        ("T", "real"), ("times", "reals", (None,)), ("frames", "int"),
        ("declared_irrational", "bool"), ("note", "text"),
    ),
    # a pulse's keys beyond its row, such as the total_time of older files, are ignored
    "oqsident/pulses/1": (("pulses", "pulse[]"),),
    "oqsident/record/1": (
        ("samples", "sample[]"), ("meta", "json"), ("x", "reals", ("samples", None)),
    ),
    "oqsident/model/2": (
        ("order", "int"), ("T", "real"),
        ("times", "reals", ("G_offsets",)),
        ("G", "reals", ("order", "order")),
        ("G_offsets", "reals[]", ("order", "order")),
        ("C", "reals", (None, "order")),
        ("F", "reals[]?", ("order", "inputs")),
    ),
    "oqsident/contsys/1": (
        ("A", "reals", ("n", "n")),
        ("B", "reals?", ("n", None)),
        ("eigenvalues", "cpairs?", ("n",)),
        ("window", "real?"), ("residuals", "real[]"), ("notes", "text[]"),
    ),
    "oqsident/report/1": (
        ("mode", "text"), ("verdict", "bool"), ("inconclusive", "bool"),
        ("required_rank", "int"), ("rank_obs", "int"), ("rank_ctrl", "int"),
        ("pulses_ok", "bool?"), ("clauses", "text[]"), ("channels", "index[]"),
        ("sampling", "sampling"),
    ),
    "oqsident/params_hat/1": (
        ("status", "text"),
        ("theta", "reals?", ("n",)),
        ("gamma", "cpairs?", ("n", "n")),
        ("n", "int?"), ("residual_A", "real?"), ("residual_beta", "real?"), ("kappa", "real?"),
        ("hermiticity_defect", "real?"), ("notes", "text[]"),
    ),
}

# older schemas read with the rows of the one that replaced them: model/1
# also held the stacked readout block Gamma, which no reader uses
_OLD_SCHEMAS = {"oqsident/model/1": "oqsident/model/2"}

_OPTIONAL = {"observables", "observable_dim", "channels", "x", "sampling"}

# ---------------------------------------------------------------- writing


def _cpairs(mat):
    """Flat row-major [re, im] pairs of a complex array."""
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], axis=1).tolist()


_ENCODE = {
    "int": int,
    "real": float,
    "bool": bool,
    "text": lambda s: s,
    "index": lambda i: int(i) + 1,
    "reals": lambda a: np.asarray(a, dtype=float).tolist(),
    "cpairs": _cpairs,
    "records": lambda r: [[*(int(i) + 1 for i in row), float(v)] for row, v in zip(*r)],
    "json": lambda v: v,
}


def _encode(value, kind):
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    if kind.endswith("[]"):
        return [_encode(v, kind[:-2]) for v in value]
    if kind in _OBJECTS:
        return _encode_fields(value, _OBJECTS[kind], {})
    return _ENCODE[kind](value)


def _encode_fields(source, rows, given):
    """JSON object of the fields in rows, each taken from `given` or else
    from the attribute of its name in source."""
    doc = {}
    for name, kind, *_ in rows:
        value = given[name] if name in given else getattr(source, name)
        if value is not None or name not in _OPTIONAL:
            doc[name] = _encode(value, kind)
    return doc


def _write(path, schema, source, **given):
    doc = {"schema": schema, **_encode_fields(source, _FORMATS[schema], given)}
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}; JSON has no NaN or Infinity") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------- reading


def _show(value):
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _named(shape, dims):
    return str(tuple(dims.get(d, d) if d else "*" for d in shape)).replace("'", "")


def _fit(got, shape, label, dims):
    """Check an array's shape against its row; a name not yet fixed takes
    the size it first meets."""
    if len(got) != len(shape) or any(dims.get(d, g) != g for d, g in zip(shape, got) if d):
        raise ValueError(f"{label}: shape {got}, expected {_named(shape, dims)}")
    for d, g in zip(shape, got):
        if d:
            dims.setdefault(d, g)


def _array(value, label):
    try:
        a = np.array(value)
    except ValueError:
        raise ValueError(f"{label}: rows of unequal length") from None
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{label}: {_show(value)} is not an array of numbers")
    return a.astype(float, copy=False)


def _reals(value, shape, label, dims):
    a = _array(value, label)
    _fit(a.shape, shape, label, dims)
    return a


def _from_cpairs(value, shape, label, dims):
    a = _array(value, label)
    if a.shape != (0,) and (a.ndim != 2 or a.shape[1] != 2):
        raise ValueError(f"{label}: shape {a.shape}, expected a list of [re, im] pairs")
    a = a.reshape(-1, 2)
    z = np.empty(len(a), dtype=complex)
    z.real, z.imag = a.T  # filled apart, which keeps signed zeros
    try:
        z = z.reshape([dims.get(d, -1) for d in shape])
    except ValueError:
        raise ValueError(f"{label}: {len(z)} pairs do not fill {_named(shape, dims)}") from None
    _fit(z.shape, shape, label, dims)
    return z


def _from_records(value, shape, label, dims):
    """(indices, values) of sparse records, the indices 0-based; whether
    they fall inside the shape is left to the format."""
    a = _array(value, label)
    k = len(shape)
    if a.shape != (0,) and (a.ndim != 2 or a.shape[1] != k + 1):
        raise ValueError(f"{label}: shape {a.shape}, expected records of {k} indices and a value")
    a = a.reshape(-1, k + 1)
    ind = a[:, :k]
    if not np.all((np.abs(ind) < 2**31) & (ind == np.round(ind))):
        raise ValueError(f"{label}: a record index is not an integer")
    return ind.astype(int) - 1, a[:, k].copy()


_ARRAYS = {"reals": _reals, "cpairs": _from_cpairs, "records": _from_records}


def _decode(value, kind, shape, label, dims):
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    if kind.endswith("[]"):
        if type(value) is not list:
            raise ValueError(f"{label}: {_show(value)} is not a list")
        _fit((len(value),), (label,), label, dims)
        return [_decode(v, kind[:-2], shape, f"{label}[{i}]", dims) for i, v in enumerate(value)]
    if kind in _OBJECTS:
        return _decode_fields(value, _OBJECTS[kind], label, dims)
    if kind in _ARRAYS:
        return _ARRAYS[kind](value, shape, label, dims)
    if kind == "json":
        return value
    ok, what = {
        "int": (type(value) is int, "an integer"),
        "real": (type(value) in (int, float), "a number"),
        "bool": (type(value) is bool, "true or false"),
        "text": (type(value) is str, "a string"),
        "index": (type(value) is int and value >= 1, "an index from 1"),
    }[kind]
    if not ok:
        raise ValueError(f"{label}: {_show(value)} is not {what}")
    if kind == "real":
        return float(value)
    return value - 1 if kind == "index" else value


def _decode_fields(doc, rows, label, dims):
    """Field dict of the JSON object doc, each field checked against its
    row.  Integer fields come first: at the top level they fix the shape
    names they share."""
    if type(doc) is not dict:
        raise ValueError(f"{label}: {_show(doc)} is not an object")
    fields = {}
    for name, kind, *shape in sorted(rows, key=lambda row: row[1].rstrip("?") != "int"):
        where = f"{label}.{name}" if label else name
        if name in doc:
            value = _decode(doc[name], kind, shape[0] if shape else (), where, dims)
        elif name in _OPTIONAL:
            value = None
        else:
            raise ValueError(f"{where}: missing")
        if not label and type(value) is int:
            dims[name] = value
        fields[name] = value
    return fields


def _read(path, schema):
    """Field dict of a file of `schema`, or of an older schema it replaced."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if type(doc) is not dict:
        raise SchemaError(f"{path}: the top level is not a JSON object")
    found = doc.get("schema")
    if found is None:
        raise SchemaError(f"{path}: missing schema field")
    if found != schema and _OLD_SCHEMAS.get(found) != schema:
        raise SchemaError(f"{path}: schema {found!r}, expected {schema!r}")
    try:
        return _decode_fields(doc, _FORMATS[schema], "", {})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _build(where, make, fields):
    """make(**fields), a ValueError of its range checks prefixed with where."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# ---------------------------------------------------------------- formats


def write_basis(path, basis, tensors):
    f, g = (tensors.f_ind, tensors.f_val), (tensors.g_ind, tensors.g_val)
    _write(path, "oqsident/basis/1", basis, f=f, g=g)


def read_basis(path):
    """(LieBasis, StructureTensors) of a basis file.  Every field must be
    that of the basis of its num_qubits (1 to 4) and normalized flag, the
    numbers within 1e-12 (older files hold rounded stacks and projected f
    and g); otherwise ValueError names the field."""
    doc = _read(path, "oqsident/basis/1")
    try:
        basis = LieBasis(doc["num_qubits"], doc["normalized"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    t = structure_constants(basis)

    def near(got, want):
        return got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-12)

    for name, ok in (
        ("dim", doc["dim"] == basis.dim),
        ("n", doc["n"] == basis.n),
        ("words", doc["words"] == basis.words),
        ("identity", near(doc["identity"], basis.identity)),
        ("generators", near(np.array(doc["generators"]), basis.generators)),
        ("f", np.array_equal(doc["f"][0], t.f_ind) and near(doc["f"][1], t.f_val)),
        ("g", np.array_equal(doc["g"][0], t.g_ind) and near(doc["g"][1], t.g_val)),
    ):
        if not ok:
            raise ValueError(f"{path}: {name}: not that of the {basis.num_qubits}-qubit basis")
    # the indices are those of t, the values the file's (within 1e-12 of t's)
    return basis, StructureTensors(basis.n, t.f_ind, doc["f"][1], t.g_ind, doc["g"][1])


def write_params(path, params, observables=None):
    dim = None if observables is None else int(round(np.sqrt(params.n + 1)))
    _write(path, "oqsident/params/1", params, observables=observables, observable_dim=dim)


def read_params(path):
    """(GkslParams, observables or None) of a params file."""
    doc = _read(path, "oqsident/params/1")
    params = GkslParams(theta=doc["theta"], gamma=doc["gamma"], symmetric=doc["symmetric"])
    return params, doc["observables"]


def write_system(path, sys):
    _write(path, "oqsident/system/1", sys, channels=sys.m, N_list=(sys.N_ind, sys.N_val))


def read_system(path):
    """CoherenceSystem of a system file.  Files without "channels" hold n
    control maps.  A control-map record indexing outside (channels, n, n),
    or repeating the (c, j, k) of an earlier one, raises ValueError naming
    the record."""
    doc = _read(path, "oqsident/system/1")
    n = doc["n"]
    shape = (n if doc["channels"] is None else doc["channels"], n, n)
    ind, val = doc["N_list"]
    rows, first, inverse = np.unique(ind, axis=0, return_index=True, return_inverse=True)
    earlier = first[inverse.reshape(-1)]  # the record that first holds each (c, j, k)
    outside = ((ind < 0) | (ind >= shape)).any(axis=1)
    bad = np.flatnonzero(outside | (earlier < np.arange(len(ind))))
    if len(bad):
        i = bad[0]
        why = f"is outside {shape}" if outside[i] else f"repeats record {earlier[i] + 1}"
        raise ValueError(f"{path}: N_list record {i + 1} {(ind[i] + 1).tolist()} {why}")
    del doc["channels"], doc["N_list"]
    return CoherenceSystem(**doc, N_ind=rows, N_val=val[first], m=shape[0])


def write_schedule(path, schedule):
    _write(path, "oqsident/schedule/1", schedule)


def read_schedule(path):
    return _build(path, SamplingSchedule, _read(path, "oqsident/schedule/1"))


def write_pulses(path, pulses):
    _write(path, "oqsident/pulses/1", None, pulses=pulses)


def read_pulses(path):
    pulses = _read(path, "oqsident/pulses/1")["pulses"]
    return [_build(f"{path}: pulses[{i}]", Pulse, p) for i, p in enumerate(pulses)]


def write_record(path, record):
    columns = record.t, record.y, record.frame, record.offset_index, record.pulse_id
    samples = [
        SimpleNamespace(t=t, y=y, frame=f, offset=o, pulse_id=None if p < 0 else p)
        for t, y, f, o, p in zip(*columns)
    ]
    _write(path, "oqsident/record/1", record, samples=samples)


def read_record(path):
    doc = _read(path, "oqsident/record/1")
    samples = doc["samples"]

    def column(name, dtype=int):
        return np.array([s[name] for s in samples], dtype=dtype)

    pid = np.array([-1 if s["pulse_id"] is None else s["pulse_id"] for s in samples], dtype=int)
    t, y, frame, offset = column("t", float), column("y", float), column("frame"), column("offset")
    return MeasurementRecord(t, y, frame, offset, pid, x=doc["x"], meta=doc["meta"])


def write_model(path, model):
    _write(path, "oqsident/model/2", model)


def read_model(path):
    """DiscreteMultirateModel of a model/2 file, or of a model/1 file,
    whose Gamma is ignored."""
    return DiscreteMultirateModel(**_read(path, "oqsident/model/2"))


def write_contsys(path, model):
    _write(path, "oqsident/contsys/1", model)


def read_contsys(path):
    return ContinuousModel(**_read(path, "oqsident/contsys/1"))


def write_report(path, report):
    _write(path, "oqsident/report/1", report)


def read_report(path):
    doc = _read(path, "oqsident/report/1")
    sampling = doc["sampling"]
    if sampling is not None:
        pairs = [PairVerdict(**p) for p in sampling.pop("pairs")]
        doc["sampling"] = SamplingPolicyReport(pairs=pairs, **sampling)
    if doc["channels"] is not None:
        doc["channels"] = tuple(doc["channels"])
    return IdentifiabilityReport(**doc)


def write_params_hat(path, rec):
    n = None if rec.gamma is None else rec.gamma.shape[0]
    _write(path, "oqsident/params_hat/1", rec, n=n)


def read_params_hat(path):
    doc = _read(path, "oqsident/params_hat/1")
    del doc["n"]
    return RecoveredParams(**doc)
