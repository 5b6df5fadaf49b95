"""Per-call wall time and traced peak memory of every pipeline stage at
1-4 qubits.

    PYTHONPATH=src python3 scripts/stage_times.py [--qubits 1 2 3 4] [--repeat 30]

BLAS is pinned to one thread before numpy loads.  Each time is the best of
--repeat timings of a loop long enough to take about 10 ms (at least one
call); many short loops find the quiet moments of a shared host.  The peak
is the tracemalloc peak of one separate, untimed call, so tracing slows no
timed call; it counts what the call allocates through Python's and numpy's
allocators, not the resident size of the process.
build_basis and structure_constants are timed with pauli_transform(q)
already cached.  build_basis forms no dense stack; "dense stack, first
use" times build_basis(q).generators, the scatter of the word codes that
the first read of the stack pays.  read_basis runs on the normalized
basis file that write_basis writes to a temporary directory.
assemble_system and reconstruct_general run on a random Hermitian PSD
gamma, reconstruct_symmetric on a random real PSD gamma, theta normal, as
in the ROADMAP baseline table.  The record
stages follow the records-2q benchmark workload on the real-gamma system:
simulate from one random mixed state on golden_schedule(T=0.5, l=2,
frames=n+2) (20 frames at 4 qubits), with the default exact propagators
and with RK4 at steps_per_interval=50.  identifiability_report runs
autonomous on the real-gamma system and that schedule, and controlled on
the Hermitian system with make_pulse_family(0.8, [0.3, 0.7]) on channel
0, as in the general-2q workload.  Then fit_multirate,
single_rate_models and reconstruct_continuous on that record at 1-2
qubits (at 3 qubits the frame-start states are rank deficient, so
reconstruct_continuous runs on exact_multirate_model of A on a 3-frame
schedule).  Only public calls are timed, so the script runs
against any checkout that exports them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import tempfile  # noqa: E402
import timeit  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from oqsident import (  # noqa: E402
    GkslParams,
    assemble_system,
    build_basis,
    build_reconstruction_matrices,
    exact_multirate_model,
    fit_multirate,
    golden_schedule,
    identifiability_report,
    make_pulse_family,
    reconstruct_continuous,
    reconstruct_general,
    read_basis,
    reconstruct_symmetric,
    rho_to_coherence,
    simulate,
    single_rate_models,
    structure_constants,
    write_basis,
)


def psd(rng, n, complex_):
    m = rng.normal(size=(n, n))
    if complex_:
        m = m + 1j * rng.normal(size=(n, n))
    return (m @ m.conj().T) / n


def stage_calls(q, rng, tmp):
    basis = build_basis(q)
    tensors = structure_constants(basis)
    path = os.path.join(tmp, f"basis{q}.json")
    write_basis(path, basis, tensors)
    mats = build_reconstruction_matrices(tensors, basis.dim)
    n = basis.n
    herm = GkslParams(theta=rng.normal(size=n), gamma=psd(rng, n, True))
    sym = GkslParams(theta=rng.normal(size=n), gamma=psd(rng, n, False), symmetric=True)
    sys_h = assemble_system(basis, tensors, herm)
    sys_s = assemble_system(basis, tensors, sym)
    calls = {
        "build_basis": lambda: build_basis(q),
        "dense stack, first use": lambda: build_basis(q).generators,
        "structure_constants": lambda: structure_constants(basis),
        "read_basis": lambda: read_basis(path),
        "assemble_system": lambda: assemble_system(basis, tensors, herm),
        "reconstruct_general": lambda: reconstruct_general(sys_h.A, sys_h.beta, mats),
        "reconstruct_symmetric": lambda: reconstruct_symmetric(sys_s.A, mats),
    }
    sched = golden_schedule(T=0.5, l=2, frames=min(n + 2, 20))
    rho = psd(rng, basis.dim, True)
    x0 = rho_to_coherence(rho / np.trace(rho), basis)
    calls["simulate"] = lambda: simulate(sys_s, sched, x0=x0)
    calls["simulate (RK4, steps_per_interval=50)"] = lambda: simulate(
        sys_s, sched, x0=x0, steps_per_interval=50
    )
    pulses = make_pulse_family(0.8, [0.3, 0.7], channel=0)
    calls["identifiability_report, autonomous"] = lambda: identifiability_report(
        sys_s, mode="autonomous", schedule=sched
    )
    calls["identifiability_report, controlled"] = lambda: identifiability_report(
        sys_h, mode="controlled", pulses=pulses
    )
    if q > 3:
        return calls
    if q == 3:
        exact = single_rate_models(
            exact_multirate_model(sys_s.A, np.zeros((n, 1)), sys_s.C, golden_schedule(0.5, 2, 3))
        )
        calls["reconstruct_continuous, exact model"] = lambda: reconstruct_continuous(exact)
        return calls
    record = simulate(sys_s, sched, x0=x0)
    model = fit_multirate(record, sched, n, C=sys_s.C)
    family = single_rate_models(model)
    calls["fit_multirate"] = lambda: fit_multirate(record, sched, n, C=sys_s.C)
    calls["single_rate_models"] = lambda: single_rate_models(model)
    calls["reconstruct_continuous"] = lambda: reconstruct_continuous(family)
    return calls


def traced_peak(call):
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--repeat", type=int, default=30)
    args = parser.parse_args()
    rng = np.random.default_rng(2025)
    with tempfile.TemporaryDirectory() as tmp:
        for q in args.qubits:
            for name, call in stage_calls(q, rng, tmp).items():
                timer = timeit.Timer(call)
                number = max(1, int(0.01 / timer.timeit(1)))
                best = min(timer.repeat(args.repeat, number)) / number
                peak = traced_peak(call)
                print(f"{q} qubits  {name:40s} {best * 1e3:9.3f} ms {peak / 1e6:9.3f} MB")


if __name__ == "__main__":
    main()
