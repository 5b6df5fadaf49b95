"""Per-call wall time of the assembly and recovery stages at 1-4 qubits.

    PYTHONPATH=src python3 scripts/stage_times.py [--qubits 1 2 3 4] [--repeat 30]

BLAS is pinned to one thread before numpy loads.  Each cell is the best of
--repeat timings of a loop long enough to take about 10 ms (at least one
call); many short loops find the quiet moments of a shared host.  assemble_system and reconstruct_general run on a random Hermitian
PSD gamma, reconstruct_symmetric on a random real PSD gamma, theta normal,
as in the ROADMAP baseline table.  Only public calls are timed, so the
script runs against any checkout that exports them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

from oqsident import (  # noqa: E402
    GkslParams,
    assemble_system,
    build_basis,
    build_reconstruction_matrices,
    reconstruct_general,
    reconstruct_symmetric,
    structure_constants,
)


def psd(rng, n, complex_):
    m = rng.normal(size=(n, n))
    if complex_:
        m = m + 1j * rng.normal(size=(n, n))
    return (m @ m.conj().T) / n


def stage_calls(q, rng):
    basis = build_basis(q)
    tensors = structure_constants(basis)
    mats = build_reconstruction_matrices(tensors, basis.dim)
    n = basis.n
    herm = GkslParams(theta=rng.normal(size=n), gamma=psd(rng, n, True))
    sym = GkslParams(theta=rng.normal(size=n), gamma=psd(rng, n, False), symmetric=True)
    sys_h = assemble_system(basis, tensors, herm)
    A_s = assemble_system(basis, tensors, sym).A
    return {
        "assemble_system": lambda: assemble_system(basis, tensors, herm),
        "reconstruct_general": lambda: reconstruct_general(sys_h.A, sys_h.beta, mats),
        "reconstruct_symmetric": lambda: reconstruct_symmetric(A_s, mats),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--repeat", type=int, default=30)
    args = parser.parse_args()
    rng = np.random.default_rng(2025)
    for q in args.qubits:
        for name, call in stage_calls(q, rng).items():
            timer = timeit.Timer(call)
            number = max(1, int(0.01 / timer.timeit(1)))
            best = min(timer.repeat(args.repeat, number)) / number
            print(f"{q} qubits  {name:22s} {best * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
