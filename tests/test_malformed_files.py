"""Malformed files are refused by path and field name.

Each example takes a file the package wrote at 1 or 2 qubits and breaks
one field: it drops it, gives it a value of the wrong JSON type, nests it
one level deeper (a wrong shape), sets it to null, or wraps the whole
document in a list.  The reader must raise ValueError whose message
starts with "{path}: {field}:" ("{path}:" for the wrapped document), and
the CLI subcommand that reads the file must exit 1 with that message as
its one line on stderr.  What this module knows of each format it states
itself below: which fields may be absent, which may be null and which are
free-form.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsident import (
    GkslParams,
    SamplingSchedule,
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
    rho_to_coherence,
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
from oqsident.cli import main
from oqsident.paramrec import build_reconstruction_matrices

READERS = {
    "basis": read_basis,
    "params": read_params,
    "system": read_system,
    "schedule": read_schedule,
    "pulses": read_pulses,
    "record": read_record,
    "model": read_model,
    "contsys": read_contsys,
    "report": read_report,
    "report-controlled": read_report,
    "params_hat": read_params_hat,
}

# fields a file may lack, and fields that may be null, by format
ABSENT_OK = {
    "params": {"observables", "observable_dim"},
    "system": {"channels"},
    "record": {"x"},
    "report": {"channels", "sampling"},
    "report-controlled": {"channels", "sampling"},
}
NULL_OK = {
    "record": {"pulse_id"},
    "model": {"F"},
    "contsys": {"B", "eigenvalues", "window"},
    "report": {"pulses_ok", "p", "q"},
    "report-controlled": {"pulses_ok"},
    # a null n is fixed by theta, which gamma then fits
    "params_hat": {"n", "theta", "gamma", "residual_A", "residual_beta", "kappa",
                   "hermiticity_defect"},
}
FREE = {"meta"}  # any JSON value
# observables cannot be shaped without observable_dim, so they are named
NAMED_INSTEAD = {("params", "observable_dim"): "observables[0]"}


def _write_all(q, where):
    """Path of a file of every format at q qubits, from one pipeline."""
    basis = build_basis(q)
    tensors = structure_constants(basis)
    n = basis.n
    rng = np.random.default_rng(q)
    m = rng.normal(size=(n, n))
    params = GkslParams(theta=rng.normal(size=n), gamma=0.4 * m @ m.T / n, symmetric=True)
    sys_ = assemble_system(basis, tensors, params)
    rho = np.diag(rng.uniform(0.1, 1.0, size=basis.dim)).astype(complex)
    sys_.x0 = rho_to_coherence(rho / np.trace(rho), basis)
    sched = golden_schedule(T=0.5, l=2, frames=n + 2)
    pulses = make_pulse_family(0.8, [0.1, 0.25], channel=0)
    model = exact_multirate_model(sys_.A, rng.normal(size=(n, 1)), np.eye(n), sched)
    rational = SamplingSchedule(T=0.5, times=[0.0, 0.25, 0.5])
    mats = build_reconstruction_matrices(tensors, basis.dim)
    writes = {
        "basis": (write_basis, basis, tensors),
        "params": (write_params, params, [basis.generators[0], basis.generators[-1]]),
        "system": (write_system, sys_),
        "schedule": (write_schedule, sched),
        "pulses": (write_pulses, pulses),
        "record": (write_record, simulate(sys_, sched, pulses=pulses, record_states=True)),
        "model": (write_model, model),
        "contsys": (write_contsys, reconstruct_continuous(single_rate_models(model))),
        "report": (write_report, identifiability_report(sys_, schedule=rational)),
        "report-controlled": (
            write_report, identifiability_report(sys_, mode="controlled", pulses=pulses)
        ),
        "params_hat": (write_params_hat, reconstruct_general(sys_.A, sys_.beta, mats)),
    }
    paths = {}
    for fmt, (write, *args) in writes.items():
        paths[fmt] = str(where / f"{fmt}.json")
        write(paths[fmt], *args)
    return paths


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = {}
    for q in (1, 2):
        where = tmp_path_factory.mktemp(f"q{q}")
        out[q] = _write_all(q, where)
    return out


def _labels(doc, prefix=""):
    """Field names of a document, nested ones as samples[3].y."""
    out = []
    for key, value in doc.items():
        if key == "schema":
            continue
        label = f"{prefix}{key}"
        out.append(label)
        if isinstance(value, dict) and key != "meta":
            out += _labels(value, f"{label}.")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                out += _labels(item, f"{label}[{i}].")
    return out


def _parent(doc, label):
    """(object holding the field, its key) for a label such as a.b[2].c."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", label)]
    for key in keys[:-1]:
        doc = doc[key]
    return doc, keys[-1]


def _argv(fmt, bad, good, out):
    """The CLI call that reads a file of fmt first, or None."""
    return {
        "basis": ["build", "--basis", bad, "--params", good["params"], "--out", out],
        "params": ["build", "--basis", good["basis"], "--params", bad, "--out", out],
        "system": ["check", "--system", bad],
        "schedule": ["check", "--system", good["system"], "--schedule", bad],
        "pulses": ["check", "--mode", "controlled", "--system", good["system"],
                   "--pulses", bad],
        "record": ["fit-discrete", "--record", bad, "--schedule", good["schedule"],
                   "--order", "3", "--out", out],
        "model": ["reconstruct-lds", "--model", bad, "--out", out],
        "contsys": ["reconstruct-params", "--basis", good["basis"], "--contsys", bad,
                    "--out", out],
    }.get(fmt)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_malformed_file_refused_by_field(written, data):
    q = data.draw(st.sampled_from([1, 2]), label="qubits")
    fmt = data.draw(st.sampled_from(sorted(READERS)), label="format")
    good = written[q]
    with open(good[fmt]) as fh:
        doc = json.load(fh)
    how = data.draw(st.sampled_from(["drop", "type", "shape", "null", "top"]), label="how")
    if how == "top":
        doc, label, accepted = [doc], None, False
    else:
        label = data.draw(st.sampled_from(_labels(doc)), label="field")
        holder, key = _parent(doc, label)
        value = holder[key]
        name = label.rsplit(".", 1)[-1]
        if how == "drop":
            del holder[key]
            accepted = name in ABSENT_OK.get(fmt, ()) and (fmt, name) not in NAMED_INSTEAD
            label = NAMED_INSTEAD.get((fmt, name), label)
        elif how == "type":
            holder[key] = 1 if isinstance(value, str) else "x"
            accepted = name in FREE
        elif how == "shape":
            holder[key] = [value]
            accepted = name in FREE
        else:
            holder[key] = None
            accepted = name in FREE or name in NULL_OK.get(fmt, ())
    bad = good[fmt].replace(".json", ".bad.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    if accepted:
        READERS[fmt](bad)
        return
    with pytest.raises(ValueError) as exc:
        READERS[fmt](bad)
    msg = str(exc.value)
    head = re.escape(bad if label is None else f"{bad}: {label}")
    # a field nested one level deeper names its first element when it is a list
    assert re.match(rf"{head}(\[0\])?: ", msg), msg
    argv = _argv(fmt, bad, good, bad.replace(".bad.json", ".out.json"))
    if argv is None:  # report and params_hat files are written, never read, by the CLI
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 1
    assert err.getvalue() == f"error: {msg}\n"
