"""Closed-loop benchmark of the oqsident identification pipeline.

    python3 perfbench/run.py --workload records-2q --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/selftest.py

Run from a source checkout; the package is imported from its ``src``
directory and nowhere else.  One process runs one workload (``all`` runs
each in a child process) as a single client: the workload's set-up rounds,
then its fixed block of seeded instances back to back, then further passes
over the same block until ``--seconds`` have elapsed.  BLAS is pinned to one
thread before numpy loads.

End-to-end metrics (``--trace 0``):

- setup_s: median time of a set-up round (build_basis, structure_constants,
  build_reconstruction_matrices for the workload's modes).
- instances_per_s, instance_p50_s, instance_p90_s: instances over summed
  instance time, and percentiles of instance time.
- Set-up and instance times are rescaled by a speed probe (probe.py),
  because on a shared host the same code runs up to ~1.8x slower for seconds
  at a time.  The unscaled wall figures are printed too.
- peak_rss_mb: ru_maxrss of the process.
- ok_frac: share of the block's instances that passed the gate; it is
  1 - fail_frac (fail_frac itself is 0 on two workloads).
- param_digits_p50: -log10 of param_err_p50, the median over passing
  instances of the max abs error in theta and gamma.

The gate fractions cover the first pass over the block, so they are identical
for a given seed; timings cover all passes.  fail_frac, verdict_ok_frac,
param_err_p50 and the first-pass failures by reason are printed above the
metrics.

``--trace 1`` runs every instance twice, untraced and traced in alternating
order, prints the per-layer metrics and writes the spans to
``perfbench/out/``.  Instance calls report busy_frac, their share of the
traced instance time; set-up calls report busy_s for one set-up round.
peak_alloc_mb comes from a separate tracemalloc pass over one set-up round
and the first instance.  liealg.nnz, paramrec.mats_bytes, gksl.system_bytes
and simulate.rk4_steps are computed from the objects and the schedule, not
measured.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  correct is false when the package returned a
full recovery that misses the workload's tolerance, or when a repeated
instance changed its outcome.  failed counts instance runs that raised,
returned a status other than "full" or missed the tolerance.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit, better) -- BENCHMARK.json lists the same metrics.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("instances_per_s", "1/s", "higher"),
    ("instance_p50_s", "s", "lower"),
    ("instance_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
    ("param_digits_p50", "digits", "higher"),
]


def per_layer_spec():
    from workloads import INSTANCE_LAYERS, SETUP_LAYERS

    spec = []
    for name in SETUP_LAYERS:
        spec += [(f"{name}.busy_s", "s", "lower"), (f"{name}.calls", "count", "higher")]
        spec.append((f"{name}.peak_alloc_mb", "MB", "lower"))
    for name in INSTANCE_LAYERS:
        spec += [(f"{name}.busy_frac", "frac", "lower"), (f"{name}.calls", "count", "higher")]
        spec.append((f"{name}.peak_alloc_mb", "MB", "lower"))
    return spec + [
        ("liealg.nnz", "count", "lower"),
        ("paramrec.mats_bytes", "bytes", "lower"),
        ("gksl.system_bytes", "bytes", "lower"),
        ("simulate.rk4_steps", "count", "lower"),
        ("simulate.steps_per_s", "1/s", "higher"),
        ("ldsrec.ok_ratio", "frac", "higher"),
        ("paramrec.full_ratio", "frac", "higher"),
        ("identify.verdict_ok_ratio", "frac", "higher"),
        ("trace.instances_per_s", "1/s", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.coverage_frac", "frac", "higher"),
    ]


def import_package():
    """Import oqsident from this checkout's sources, never an installed copy."""
    pkg = SRC / "oqsident"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: package sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import oqsident

    if Path(oqsident.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported oqsident from {oqsident.__file__}, not {pkg}")


def host_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = None
    try:
        with open("/proc/meminfo") as fh:
            mem_kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(cpus) if cpus else os.cpu_count(),
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "machine": platform.machine(),
    }


def run_instance(wl, ctx, inst, rec, tag):
    from workloads import Outcome

    with rec.root("instance", tag) as timing:
        try:
            out = wl.run(ctx, inst, rec)
        except Exception as exc:  # the gate counts it; the loop goes on
            out = Outcome(reason=f"raised:{rec.raised_in}:{type(exc).__name__}")
    return out, timing


def setup_round(wl, rec):
    with rec.root("setup", None) as timing:
        ctx = wl.setup(rec)
    return ctx, (timing["start"], timing["end"])


def measure(wl, seed, seconds, traced):
    """Run one workload; return (gate summary, traced recorder, memory
    recorder, set-up context)."""
    from probe import SpeedProbe
    from tracing import Recorder

    plain = Recorder()
    rec = Recorder(traced=True) if traced else plain
    probe = SpeedProbe(wl.probe)
    sampling = probe.sampling(wl.sample_every) if wl.sample_every else nullcontext()
    first = None
    setups = []  # (start, end) of set-up rounds
    untraced = []  # (start, end) of untraced instances
    traced_wall = []
    runs = failed = silent_wrong = 0
    consistent = True

    def gate(k, out):
        nonlocal consistent
        if first[k] is None:
            first[k] = out
        elif (out.reason, out.verdict_ok) != (first[k].reason, first[k].verdict_ok):
            consistent = False

    with sampling:
        for _ in range(1 if traced else wl.setup_rounds):
            ctx = None  # free the last round's matrices: peak RSS holds one set
            ctx, span = setup_round(wl, rec)
            setups.append(span)
            probe.sample()
        insts = wl.inputs(ctx, seed)
        first = [None] * len(insts)
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(insts) or time.perf_counter() < deadline:
            k = i % len(insts)
            modes = [False]
            if traced:  # alternate the order so neither side always runs warm
                modes = [False, True] if i % 2 == 0 else [True, False]
            for mode in modes:
                out, timing = run_instance(wl, ctx, insts[k], rec if mode else plain, k)
                if mode:
                    traced_wall.append(timing["elapsed"])
                else:
                    untraced.append((timing["start"], timing["end"]))
                    probe.sample()
                runs += 1
                failed += out.reason != "ok"
                silent_wrong += out.reason == "tolerance"
                gate(k, out)
            i += 1

    mem = Recorder(memory=True)
    if traced:  # untimed pass for the tracemalloc peaks: one set-up, one instance
        setup_round(wl, mem)
        out, _ = run_instance(wl, ctx, insts[0], mem, 0)
        gate(0, out)

    summary = {
        "first": first,
        "runs": runs,
        "failed": failed,
        "correct": consistent and silent_wrong == 0,
        "setup_s": probe.scaled(setups),
        "setup_wall": [end - start for start, end in setups],
        "wall": [end - start for start, end in untraced],
        "scaled": probe.scaled(untraced),
        "traced_wall": traced_wall,
        "inner_ratio": probe.inner_ratio(),
        "inner_used": probe.inner_used(),
    }
    return summary, rec, mem, ctx


def end_to_end(gate):
    import numpy as np

    d = gate["scaled"]
    first = gate["first"]
    errs = [o.err for o in first if o.reason == "ok"]
    err_p50 = statistics.median(errs) if errs else 1.0
    return {
        "setup_s": statistics.median(gate["setup_s"]),
        "instances_per_s": len(d) / sum(d),
        "instance_p50_s": statistics.median(d),
        "instance_p90_s": float(np.percentile(d, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(o.reason == "ok" for o in first) / len(first),
        "param_digits_p50": -math.log10(max(err_p50, sys.float_info.min)),
    }


def per_layer(wl, gate, rec, mem, ctx):
    from workloads import INSTANCE_LAYERS, LDSREC_LAYERS, SETUP_LAYERS

    first = gate["first"]
    traced_total = sum(gate["traced_wall"])
    untraced_mean = sum(gate["wall"]) / len(gate["wall"])
    traced_mean = traced_total / len(gate["traced_wall"])

    def stat(name):
        return rec.stats.get(name, [0, 0.0, 0])

    m = {}
    for name in SETUP_LAYERS:
        calls, busy, _ = stat(name)
        m[f"{name}.busy_s"] = busy
        m[f"{name}.calls"] = calls
        m[f"{name}.peak_alloc_mb"] = mem.peaks.get(name, 0) / 2**20
    covered = 0.0
    for name in INSTANCE_LAYERS:
        calls, busy, _ = stat(name)
        covered += busy
        m[f"{name}.busy_frac"] = busy / traced_total
        m[f"{name}.calls"] = calls
        m[f"{name}.peak_alloc_mb"] = mem.peaks.get(name, 0) / 2**20
    m.update(wl.computed(ctx))
    m["gksl.system_bytes"] = max(o.system_bytes for o in first)
    sim_calls, sim_busy = stat("simulate.simulate")[:2]
    m["simulate.steps_per_s"] = m["simulate.rk4_steps"] * sim_calls / sim_busy if sim_busy else 0.0
    ld_calls = stat(LDSREC_LAYERS[0])[0]
    ld_raised = sum(stat(name)[2] for name in LDSREC_LAYERS)
    m["ldsrec.ok_ratio"] = (ld_calls - ld_raised) / ld_calls if ld_calls else 0.0
    reached = [o for o in first if o.status is not None]
    m["paramrec.full_ratio"] = sum(o.status == "full" for o in reached) / max(len(reached), 1)
    judged = [o for o in first if o.verdict_ok is not None]
    m["identify.verdict_ok_ratio"] = sum(o.verdict_ok for o in judged) / max(len(judged), 1)
    m["trace.instances_per_s"] = 1.0 / traced_mean
    m["trace.overhead_frac"] = traced_mean / untraced_mean - 1.0
    m["trace.coverage_frac"] = covered / traced_total
    return m


def summary_lines(wl, seed, gate, host):
    import numpy as np
    from probe import INNER_RATIO_LIMIT

    first = gate["first"]
    reasons = {}
    for o in first:
        reasons[o.reason] = reasons.get(o.reason, 0) + 1
    verdict_wrong = sum(o.verdict_ok is False for o in first)
    if verdict_wrong:
        reasons["verdict:false-negative"] = verdict_wrong
    errs = [o.err for o in first if o.reason == "ok"]
    judged = [o for o in first if o.verdict_ok is not None]
    d = gate["wall"]
    lines = [
        f"host {json.dumps(host, sort_keys=True)}",
        f"workload {wl.name} seed {seed}: {len(first)} distinct instances, "
        f"{len(d)} untraced instance runs, tolerance {wl.tol:g}",
        f"  unscaled wall: setup_s {statistics.median(gate['setup_wall']):.6g} s, "
        f"instances_per_s {len(d) / sum(d):.6g} 1/s, "
        f"instance_p50_s {statistics.median(d):.6g} s, "
        f"instance_p90_s {float(np.percentile(d, 90)):.6g} s",
        f"  fail_frac {sum(o.reason != 'ok' for o in first) / len(first):.4f} frac",
        f"  verdict_ok_frac {sum(o.verdict_ok for o in judged) / max(len(judged), 1):.4f} frac",
        f"  param_err_p50 {statistics.median(errs) if errs else float('nan'):.3e} abs",
        f"  reasons (first pass) {json.dumps(reasons, sort_keys=True)}",
    ]
    if gate["inner_ratio"] is not None:
        lines.append(
            f"  probe time in work / between instances (medians) {gate['inner_ratio']:.4g}, "
            f"limit {INNER_RATIO_LIMIT:g}: "
            + ("in-work probes used" if gate["inner_used"] else "in-work probes dropped")
        )
    return lines


def run_one(args):
    import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    host = host_facts()
    gate, rec, mem, ctx = measure(wl, args.seed, args.seconds, args.trace)
    lines = summary_lines(wl, args.seed, gate, host)
    if args.trace:
        values, spec = per_layer(wl, gate, rec, mem, ctx), per_layer_spec()
    else:
        values, spec = end_to_end(gate), END_TO_END
        if len(gate["wall"]) < 100:
            lines.append(f"  note: instance_p90_s rests on {len(gate['wall'])} samples")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    lines += [f"  {name} {values[name]:.6g} {unit}" for name, unit, _ in spec]
    print("\n".join(lines))
    if args.trace:
        out = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.json"
        rec.write(out, {"workload": wl.name, "seed": args.seed, "host": host, "metrics": values})
        print(f"wrote {out.relative_to(ROOT)}")
    result = {
        "correct": gate["correct"],
        "attempted": gate["runs"],
        "failed": gate["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def run_all(args):
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    import_package()
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["records-2q", "drift-3q", "general-2q", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    (run_all if args.workload == "all" else run_one)(args)
