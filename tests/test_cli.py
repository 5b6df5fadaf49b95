"""Command line interface, exercised through main(argv).

One subprocess test covers the interpreter entry point; everything else
calls main() in-process and checks exit codes, outputs, and files.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from oqsident import (
    GkslParams,
    build_basis,
    golden_schedule,
    make_pulse_family,
    read_contsys,
    read_params_hat,
    read_record,
    read_report,
    structure_constants,
    write_basis,
    write_params,
    write_pulses,
    write_schedule,
)
from oqsident.cli import main, run_two_qubit_demo
from oqsident.simulate import SamplingSchedule
from oqsident.jsonio import write_schedule as _ws  # noqa: F401 (import check)


@pytest.fixture
def workdir(tmp_path):
    """Basis, params, and schedule files for a one-qubit pipeline."""
    basis = build_basis(1)
    tensors = structure_constants(basis)
    paths = {
        "basis": tmp_path / "basis.json",
        "params": tmp_path / "params.json",
        "schedule": tmp_path / "schedule.json",
        "system": tmp_path / "system.json",
        "record": tmp_path / "record.json",
        "model": tmp_path / "model.json",
        "contsys": tmp_path / "contsys.json",
        "params_hat": tmp_path / "params_hat.json",
        "report": tmp_path / "report.json",
        "pulses": tmp_path / "pulses.json",
    }
    write_basis(paths["basis"], basis, tensors)
    theta = np.array([0.0, 0.0, 1.3])
    gamma = np.diag([0.5, 0.3, 0.2])
    write_params(paths["params"], GkslParams(theta=theta, gamma=gamma, symmetric=True))
    write_schedule(paths["schedule"], golden_schedule(T=0.5, l=2, frames=4))
    write_pulses(paths["pulses"], make_pulse_family(0.8, [0.1, 0.25], channel=0))
    return paths, theta, gamma


def test_basis_command(tmp_path, capsys):
    out = tmp_path / "basis.json"
    assert main(["basis", "--qubits", "1", "--out", str(out)]) == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "3 generators" in text
    assert "at most 1 f" in text
    raw = tmp_path / "raw.json"
    assert main(["basis", "--qubits", "1", "--raw", "--out", str(raw)]) == 0
    doc = json.loads(raw.read_text())
    assert doc["normalized"] is False


def test_full_pipeline(workdir, capsys):
    paths, theta, gamma = workdir
    x0 = "0.3,-0.4,0.5"

    assert main(["build", "--basis", str(paths["basis"]),
                 "--params", str(paths["params"]),
                 "--out", str(paths["system"])]) == 0

    assert main(["simulate", "--system", str(paths["system"]),
                 "--schedule", str(paths["schedule"]),
                 "--x0", x0, "--states",
                 "--out", str(paths["record"])]) == 0
    rec = read_record(paths["record"])
    assert len(rec) == 4 * 3 + 1
    assert rec.x is not None

    assert main(["fit-discrete", "--record", str(paths["record"]),
                 "--schedule", str(paths["schedule"]),
                 "--order", "3",
                 "--out", str(paths["model"])]) == 0

    assert main(["reconstruct-lds", "--model", str(paths["model"]),
                 "--out", str(paths["contsys"])]) == 0
    cont = read_contsys(paths["contsys"])
    assert max(cont.residuals) < 1e-6

    # recover parameters from the fitted continuous drift
    assert main(["reconstruct-params", "--basis", str(paths["basis"]),
                 "--contsys", str(paths["contsys"]),
                 "--mode", "symmetric",
                 "--out", str(paths["params_hat"])]) == 0
    rec_hat = read_params_hat(paths["params_hat"])
    assert rec_hat.status == "full"
    assert np.allclose(rec_hat.theta, theta, atol=1e-6)
    assert np.allclose(rec_hat.gamma, gamma, atol=1e-6)
    out = capsys.readouterr().out
    assert "recovery status: full" in out


def test_reconstruct_params_general_from_system(workdir, capsys):
    paths, theta, gamma = workdir
    assert main(["build", "--basis", str(paths["basis"]),
                 "--params", str(paths["params"]),
                 "--out", str(paths["system"])]) == 0
    assert main(["reconstruct-params", "--basis", str(paths["basis"]),
                 "--system", str(paths["system"]),
                 "--mode", "general",
                 "--out", str(paths["params_hat"])]) == 0
    rec_hat = read_params_hat(paths["params_hat"])
    assert rec_hat.status == "full"
    assert np.allclose(rec_hat.theta, theta, atol=1e-9)
    assert np.allclose(rec_hat.gamma.real, gamma, atol=1e-9)
    assert "cond(M)" in capsys.readouterr().out


def test_check_identifiable_exit_zero(workdir, capsys):
    paths, _, _ = workdir
    main(["build", "--basis", str(paths["basis"]),
          "--params", str(paths["params"]), "--out", str(paths["system"])])
    code = main(["check", "--system", str(paths["system"]),
                 "--mode", "autonomous",
                 "--schedule", str(paths["schedule"]),
                 "--out", str(paths["report"])])
    assert code == 0
    rep = read_report(paths["report"])
    assert rep.verdict is True
    assert "identifiable" in capsys.readouterr().out


def test_check_rational_schedule_exit_two(workdir, tmp_path, capsys):
    paths, _, _ = workdir
    main(["build", "--basis", str(paths["basis"]),
          "--params", str(paths["params"]), "--out", str(paths["system"])])
    uniform = tmp_path / "uniform.json"
    write_schedule(uniform, SamplingSchedule(T=0.5, times=[0.0, 0.25, 0.5]))
    code = main(["check", "--system", str(paths["system"]),
                 "--schedule", str(uniform)])
    assert code == 2
    out = capsys.readouterr().out
    assert "not identifiable" in out
    assert "sampling ratios rational" in out


def test_check_controlled_mode(workdir, capsys):
    paths, _, _ = workdir
    main(["build", "--basis", str(paths["basis"]),
          "--params", str(paths["params"]), "--out", str(paths["system"])])
    # the stored system has x0 = 0: the zero seed cannot span anything
    code = main(["check", "--system", str(paths["system"]),
                 "--mode", "controlled", "--pulses", str(paths["pulses"])])
    assert code == 2
    out = capsys.readouterr().out
    assert "seed state is zero" in out
    assert "driven channels: [0]" in out


def test_error_exit_codes(workdir, tmp_path, capsys):
    paths, _, _ = workdir
    # missing file -> OSError -> 1
    assert main(["build", "--basis", str(tmp_path / "missing.json"),
                 "--params", str(paths["params"]),
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "error:" in capsys.readouterr().err
    # wrong schema -> SchemaError -> 1
    assert main(["build", "--basis", str(paths["params"]),
                 "--params", str(paths["params"]),
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "schema" in capsys.readouterr().err
    # outputs-only record without a system for C -> ValueError -> 1
    main(["build", "--basis", str(paths["basis"]),
          "--params", str(paths["params"]), "--out", str(paths["system"])])
    main(["simulate", "--system", str(paths["system"]),
          "--schedule", str(paths["schedule"]),
          "--x0", "0.3,-0.4,0.5", "--out", str(paths["record"])])
    capsys.readouterr()
    assert main(["fit-discrete", "--record", str(paths["record"]),
                 "--schedule", str(paths["schedule"]),
                 "--order", "3", "--out", str(paths["model"])]) == 1
    assert "output matrix" in capsys.readouterr().err


def test_simulate_noise_seed_reproducible(workdir):
    paths, _, _ = workdir
    main(["build", "--basis", str(paths["basis"]),
          "--params", str(paths["params"]), "--out", str(paths["system"])])
    outs = []
    for name in ("r1.json", "r2.json"):
        out = paths["record"].parent / name
        assert main(["simulate", "--system", str(paths["system"]),
                     "--schedule", str(paths["schedule"]),
                     "--x0", "0.3,-0.4,0.5", "--noise", "0.01", "--seed", "42",
                     "--out", str(out)]) == 0
        outs.append(read_record(out))
    assert np.array_equal(outs[0].y, outs[1].y)


def test_demo_command(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    code = main(["demo", "two-qubit", "--out-dir", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "max parameter error" in out
    assert "recovery status: full" in out
    for name in ("basis", "params", "system", "schedule", "record",
                 "report", "params_hat"):
        assert (out_dir / f"{name}.json").exists()


def test_demo_function_accuracy():
    res = run_two_qubit_demo()
    assert res["identifiable"] is True
    assert res["status"] == "full"
    assert max(res["errors"].values()) <= 1e-8
    assert res["samples"] == 3 * 3 + 1


def test_interpreter_entry_point(tmp_path):
    out = tmp_path / "basis.json"
    proc = subprocess.run(
        [sys.executable, "-m", "oqsident.cli", "basis", "--qubits", "1",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert "wrote" in proc.stdout
