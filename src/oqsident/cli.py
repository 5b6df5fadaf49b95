"""Command line front end.

Subcommands mirror the library pipeline: basis -> build -> simulate ->
check -> fit-discrete -> reconstruct-lds -> reconstruct-params, plus a
self-contained two-qubit demo.  All file formats are the versioned JSON
documents of `jsonio`.

Exit codes: 0 success (for `check`: identifiable), 1 I/O or input error,
2 not identifiable, 3 identifiability inconclusive.
"""

import argparse
import sys

import numpy as np

from . import jsonio
from .gksl import GkslParams, assemble_system, rho_to_coherence
from .identify import identifiability_report
from .ldsrec import fit_multirate, reconstruct_continuous, single_rate_models
from .liealg import build_basis, structure_constants, verify_sparsity
from .paramrec import build_reconstruction_matrices, reconstruct_general, reconstruct_symmetric
from .simulate import golden_schedule, simulate


def _cmd_basis(args):
    basis = build_basis(args.qubits, normalized=not args.raw)
    tensors = structure_constants(basis)
    rep = verify_sparsity(tensors)
    jsonio.write_basis(args.out, basis, tensors)
    print(
        f"basis: {basis.n} generators, {len(tensors.f_val)} f entries, "
        f"{len(tensors.g_val)} g entries, at most {rep.max_f} f and "
        f"{rep.max_g} g per index pair"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_build(args):
    basis, tensors = jsonio.read_basis(args.basis)
    params, observables = jsonio.read_params(args.params)
    sys_ = assemble_system(basis, tensors, params, observables=observables)
    jsonio.write_system(args.out, sys_)
    print(
        f"system: n={sys_.n}, ||A_l||={np.linalg.norm(sys_.A_l):.6g}, "
        f"||A_d||={np.linalg.norm(sys_.A_d):.6g}, ||beta||={np.linalg.norm(sys_.beta):.6g}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args):
    sys_ = jsonio.read_system(args.system)
    schedule = jsonio.read_schedule(args.schedule)
    pulses = jsonio.read_pulses(args.pulses) if args.pulses else ()
    x0 = None
    if args.x0:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    record = simulate(
        sys_,
        schedule,
        pulses=pulses,
        x0=x0,
        noise_sigma=args.noise,
        seed=args.seed,
        record_states=args.states,
    )
    jsonio.write_record(args.out, record)
    print(f"record: {len(record)} samples over {schedule.frames} frames")
    print(f"wrote {args.out}")
    return 0


def _cmd_check(args):
    sys_ = jsonio.read_system(args.system)
    schedule = jsonio.read_schedule(args.schedule) if args.schedule else None
    pulses = jsonio.read_pulses(args.pulses) if args.pulses else None
    report = identifiability_report(sys_, mode=args.mode, schedule=schedule, pulses=pulses)
    if args.out:
        jsonio.write_report(args.out, report)
        print(f"wrote {args.out}")
    verdict = "identifiable" if report.verdict else "not identifiable"
    if report.inconclusive:
        verdict = "inconclusive"
    print(
        f"{args.mode}: {verdict} "
        f"(obs {report.rank_obs}/{report.required_rank}, "
        f"ctrl {report.rank_ctrl}/{report.required_rank})"
    )
    if report.channels is not None:
        print(f"  driven channels: {list(report.channels)}")
    for clause in report.clauses:
        print(f"  clause: {clause}")
    if report.verdict:
        return 0
    return 3 if report.inconclusive else 2


def _cmd_fit_discrete(args):
    record = jsonio.read_record(args.record)
    schedule = jsonio.read_schedule(args.schedule)
    C = None
    if args.system:
        C = jsonio.read_system(args.system).C
    model = fit_multirate(record, schedule, args.order, C=C)
    jsonio.write_model(args.out, model)
    print(f"model: order {model.order}, {len(model.G_offsets)} offset maps")
    print(f"wrote {args.out}")
    return 0


def _cmd_reconstruct_lds(args):
    model = jsonio.read_model(args.model)
    family = single_rate_models(model)
    cont = reconstruct_continuous(family, match_tol=args.match_tol)
    jsonio.write_contsys(args.out, cont)
    lead = ", ".join(f"{m:.6g}" for m in cont.eigenvalues[: min(4, len(cont.eigenvalues))])
    print(f"continuous system: eigenvalues {lead}")
    print(f"max per-rate residual {max(cont.residuals):.3e}")
    print(f"wrote {args.out}")
    return 0


def _cmd_reconstruct_params(args):
    basis, tensors = jsonio.read_basis(args.basis)
    if args.contsys:
        cont = jsonio.read_contsys(args.contsys)
        A = cont.A
        beta = None
    else:
        sys_ = jsonio.read_system(args.system)
        A = sys_.A
        beta = sys_.beta
    mats = build_reconstruction_matrices(
        tensors, basis.dim, general=args.mode == "general", symmetric=args.mode == "symmetric"
    )
    if args.mode == "general":
        if beta is None:
            print("warning: no beta available from a contsys input; assuming zero", file=sys.stderr)
            beta = np.zeros(tensors.n)
        rec = reconstruct_general(A, beta, mats)
    else:
        rec = reconstruct_symmetric(A, mats)
    jsonio.write_params_hat(args.out, rec)
    print(f"recovery status: {rec.status}")
    if rec.kappa is not None:
        print(f"cond(M) = {rec.kappa:.6g}")
    if rec.residual_A is not None:
        print(f"residual_A = {rec.residual_A:.3e}")
    for note in rec.notes:
        print(f"  note: {note}")
    print(f"wrote {args.out}")
    return 0


def _two_qubit_demo_params():
    """Exchange-coupled pair with independent amplitude and phase damping.

    Rates are positive, so the Kossakowski matrix is positive
    semidefinite.  Returns (basis, params, truth) with the named
    physical rates in truth.
    """
    omega1, omega2, delta = 1.0, 2.0, 0.5
    g1m, g2p = 0.4, 0.3
    g1z, g2z = 0.8, 0.16
    g1p, g2m = 0.2, 0.24

    basis = build_basis(2)
    words = basis.words
    theta = np.zeros(basis.n)
    theta[words.index("zI")] = omega1
    theta[words.index("Iz")] = omega2
    theta[words.index("xx")] = 2.0 * delta
    theta[words.index("yy")] = 2.0 * delta

    gamma = np.zeros((basis.n, basis.n))
    gamma[0, 0] = 2.0 * g1m
    gamma[1, 1] = 2.0 * g2p
    gamma[2, 2] = gamma[4, 4] = (g1z + g2z) / 8.0
    gamma[3, 3] = gamma[5, 5] = (g1p + g2m) / 2.0
    gamma[2, 4] = gamma[4, 2] = (g1z - g2z) / 8.0
    gamma[3, 5] = gamma[5, 3] = -(g1p - g2m) / 2.0

    truth = {
        "omega1": omega1,
        "omega2": omega2,
        "delta": delta,
        "g1-": g1m,
        "g2+": g2p,
        "g1z": g1z,
        "g2z": g2z,
        "g1+": g1p,
        "g2-": g2m,
    }
    return basis, GkslParams(theta=theta, gamma=gamma, symmetric=True), truth


def run_two_qubit_demo(out_dir=None):
    """End-to-end pipeline on the exchange-coupled two-qubit system.

    Returns a dict with recovered physical rates and their errors.
    """
    basis, params, truth = _two_qubit_demo_params()
    params.validate(physical=True)
    tensors = structure_constants(basis)
    sys_ = assemble_system(basis, tensors, params)

    schedule = golden_schedule(T=0.4, l=2, frames=3)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    x0 = rho_to_coherence(rho0, basis)
    record = simulate(sys_, schedule, x0=x0, record_states=True)

    report = identifiability_report(sys_, mode="autonomous", schedule=schedule)

    mats = build_reconstruction_matrices(tensors, basis.dim, general=False, symmetric=True)
    rec = reconstruct_symmetric(sys_.A, mats)

    words = basis.words
    th, gm = rec.theta, rec.gamma
    recovered = {
        "omega1": th[words.index("zI")],
        "omega2": th[words.index("Iz")],
        "delta": (th[words.index("xx")] + th[words.index("yy")]) / 4.0,
        "g1-": gm[0, 0] / 2.0,
        "g2+": gm[1, 1] / 2.0,
        "g1z": 4.0 * (gm[2, 2] + gm[2, 4]),
        "g2z": 4.0 * (gm[2, 2] - gm[2, 4]),
        "g1+": gm[3, 3] - gm[3, 5],
        "g2-": gm[3, 3] + gm[3, 5],
    }
    errors = {k: abs(recovered[k] - truth[k]) for k in truth}

    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        jsonio.write_basis(os.path.join(out_dir, "basis.json"), basis, tensors)
        jsonio.write_params(os.path.join(out_dir, "params.json"), params)
        jsonio.write_system(os.path.join(out_dir, "system.json"), sys_)
        jsonio.write_schedule(os.path.join(out_dir, "schedule.json"), schedule)
        jsonio.write_record(os.path.join(out_dir, "record.json"), record)
        jsonio.write_report(os.path.join(out_dir, "report.json"), report)
        jsonio.write_params_hat(os.path.join(out_dir, "params_hat.json"), rec)

    return {
        "truth": truth,
        "recovered": recovered,
        "errors": errors,
        "status": rec.status,
        "identifiable": report.verdict,
        "samples": len(record),
    }


def _cmd_demo(args):
    if args.which != "two-qubit":
        raise ValueError(f"unknown demo {args.which!r}")
    out = run_two_qubit_demo(out_dir=args.out_dir)
    print("two-qubit exchange pair with damping and dephasing")
    print(f"identifiability (autonomous, golden schedule): {out['identifiable']}")
    print(f"recovery status: {out['status']}")
    print(f"{'parameter':<10} {'true':>12} {'recovered':>16} {'error':>12}")
    for k in out["truth"]:
        print(
            f"{k:<10} {out['truth'][k]:>12.6f} {out['recovered'][k]:>16.12f} "
            f"{out['errors'][k]:>12.3e}"
        )
    worst = max(out["errors"].values())
    print(f"max parameter error: {worst:.3e}")
    return 0 if worst <= 1e-6 else 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="oqsident",
        description="open-system identifiability and parameter reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="build a Pauli word basis and its structure constants")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--raw", action="store_true", help="unnormalized Pauli words")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("build", help="assemble the coherence-vector system")
    p.add_argument("--basis", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("simulate", help="integrate and sample the system")
    p.add_argument("--system", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--pulses")
    p.add_argument("--x0", help="comma-separated initial coherence vector")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--states", action="store_true", help="record exact state snapshots")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="identifiability report")
    p.add_argument("--system", required=True)
    p.add_argument("--mode", choices=["autonomous", "controlled"], default="autonomous")
    p.add_argument("--schedule")
    p.add_argument("--pulses")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fit-discrete", help="fit multirate transition matrices to a record")
    p.add_argument("--record", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--system", help="system file supplying C for outputs-only fitting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_discrete)

    p = sub.add_parser("reconstruct-lds", help="continuous (A, B) from a discrete model")
    p.add_argument("--model", required=True)
    p.add_argument("--match-tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct_lds)

    p = sub.add_parser("reconstruct-params", help="recover theta and gamma from a drift matrix")
    p.add_argument("--basis", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--contsys")
    src.add_argument("--system")
    p.add_argument("--mode", choices=["symmetric", "general"], default="symmetric")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct_params)

    p = sub.add_parser("demo", help="run a built-in end-to-end example")
    p.add_argument("which", choices=["two-qubit"])
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (jsonio.SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
