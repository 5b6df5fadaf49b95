"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a seed fixes a workload's inputs and its gate outcomes, that
another seed changes the inputs, and that BENCHMARK.json names the metrics
run.py prints.  Outcomes are compared on the first INSTANCES instances of
records-2q and general-2q; drift-3q takes ~30 s per instance, so only its
inputs are compared.  Exits non-zero on the first failed check.
"""

import json

import run

run.import_package()

import numpy as np  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INSTANCES = 20


def same_inputs(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x.theta, y.theta)
        and np.array_equal(x.gamma, y.gamma)
        and (x.x0 is None) == (y.x0 is None)
        and (x.x0 is None or np.array_equal(x.x0, y.x0))
        for x, y in zip(a, b)
    )


def counts(wl, ctx, insts):
    out = {}
    for inst in insts:
        o, _ = run.run_instance(wl, ctx, inst, Recorder(False), 0)
        key = (o.reason, o.verdict_ok)
        out[key] = out.get(key, 0) + 1
    return out


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END,
        "BENCHMARK.json end_to_end matches run.py",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == run.per_layer_spec(),
        "BENCHMARK.json per_layer matches run.py",
    )
    check(
        {w["name"]: w["why"] for w in spec["workloads"]}
        == {w.name: w.why for w in WORKLOADS.values()},
        "BENCHMARK.json workloads and reasons match workloads.py",
    )

    for wl in WORKLOADS.values():
        ctx = wl.setup(Recorder(False))
        a, b, c = wl.inputs(ctx, 11), wl.inputs(ctx, 11), wl.inputs(ctx, 12)
        check(same_inputs(a, b), f"{wl.name}: same seed, identical inputs")
        check(not same_inputs(a, c), f"{wl.name}: other seed, other inputs")
        if wl.name == "drift-3q":
            continue
        first = counts(wl, ctx, a[:INSTANCES])
        again = counts(wl, ctx, b[:INSTANCES])
        check(first == again, f"{wl.name}: same seed, same fail and verdict counts {first}")


if __name__ == "__main__":
    main()
