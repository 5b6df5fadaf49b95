"""The benchmark's three workloads: inputs, pipeline and correctness gate.

Each workload is a closed loop with one client: the runner starts the next
instance only when the last one has finished.  Inputs come only from the
workload seed, drawn with the same generators the acceptance tests use
(theta ~ N(0, 1), gamma = 0.4 m m^H / n with m Gaussian, rho from a complex
Ginibre matrix).  Every instance is gated against the generated truth.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from probe import dense_kernel, matvec_kernel
from oqsident import (
    GkslParams,
    assemble_system,
    build_basis,
    build_reconstruction_matrices,
    fit_multirate,
    golden_schedule,
    identifiability_report,
    make_pulse_family,
    reconstruct_continuous,
    reconstruct_general,
    reconstruct_symmetric,
    rho_to_coherence,
    simulate,
    single_rate_models,
    structure_constants,
)

# Public calls timed per instance; the setup calls are timed once per round.
SETUP_LAYERS = (
    "liealg.build_basis",
    "liealg.structure_constants",
    "paramrec.build_reconstruction_matrices",
)
INSTANCE_LAYERS = (
    "gksl.assemble_system",
    "simulate.simulate",
    "identify.identifiability_report",
    "ldsrec.fit_multirate",
    "ldsrec.single_rate_models",
    "ldsrec.reconstruct_continuous",
    "paramrec.reconstruct_symmetric",
    "paramrec.reconstruct_general",
)
LDSREC_LAYERS = INSTANCE_LAYERS[3:6]


@dataclass
class Outcome:
    """Gate verdict of one instance.

    reason is "ok", "raised:<layer>:<exception>", "status:<status>" or
    "tolerance" (status full but the error exceeds the workload's tolerance,
    i.e. a wrong answer the package presented as a full recovery).
    """

    reason: str
    status: str = None  # status returned by reconstruct_*, if it ran
    err: float = None  # max abs error over theta and gamma
    verdict_ok: bool = None  # identifiability verdict equals the known answer
    system_bytes: int = 0  # array_bytes of the assembled system


@dataclass
class Instance:
    theta: np.ndarray
    gamma: np.ndarray
    x0: np.ndarray = None


def random_psd(rng, n, complex_):
    m = rng.normal(size=(n, n))
    if complex_:
        m = m + 1j * rng.normal(size=(n, n))
    return 0.4 * (m @ m.conj().T) / n


def random_state(rng, dim):
    v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def _bytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_bytes(v) for v in value)
    if scipy.sparse.issparse(value):
        return sum(_bytes(v) for v in vars(value).values())
    return 0


def array_bytes(obj):
    """Summed bytes of the arrays and sparse matrices a result object holds
    in its own fields (lists of them included, nested dataclasses not)."""
    return sum(_bytes(v) for v in vars(obj).values())


def rk4_steps(schedule, steps_per_interval=50):
    """RK4 steps `simulate` takes on a pulse-free schedule: every sampling
    interval is cut into ceil(width / h_max) steps, h_max = min tau / 50."""
    h_max = schedule.taus.min() / steps_per_interval
    stamps = np.concatenate(
        [k * schedule.T + schedule.times[:-1] for k in range(schedule.frames)]
        + [[(schedule.frames - 1) * schedule.T + schedule.T]]
    )
    widths = np.diff(np.unique(stamps))
    return int(sum(max(1, int(np.ceil(w / h_max))) for w in widths))


class Workload:
    """Base: setup builds basis, tensors and reconstruction matrices."""

    name = why = None
    qubits = 2
    block = 1  # distinct instances per seed; the gate fractions cover them
    setup_rounds = 25
    tol = 1e-8
    mats_modes = dict(general=False, symmetric=True)
    salt = 0
    # Speed probe kernel that rescales instance times (see probe.py), and the
    # period of in-instance probing for instances that run for many seconds.
    probe = staticmethod(matvec_kernel)
    sample_every = None

    def setup(self, rec):
        basis = rec.call("liealg.build_basis", build_basis, self.qubits)
        tensors = rec.call("liealg.structure_constants", structure_constants, basis)
        mats = rec.call(
            "paramrec.build_reconstruction_matrices",
            build_reconstruction_matrices,
            tensors,
            basis.dim,
            **self.mats_modes,
        )
        return {
            "basis": basis,
            "tensors": tensors,
            "mats": mats,
            "schedule": golden_schedule(T=0.5, l=2, frames=basis.n + 2),
            "pulses": make_pulse_family(0.8, [0.3, 0.7]),
        }

    def inputs(self, ctx, seed):
        rng = np.random.default_rng([seed, self.salt])
        n = ctx["basis"].n
        return [self.draw(rng, n, ctx) for _ in range(self.block)]

    def draw(self, rng, n, ctx):
        return Instance(theta=rng.normal(size=n), gamma=random_psd(rng, n, False))

    def gate(self, inst, sys_, report, got):
        out = Outcome(
            reason="ok",
            status=got.status,
            # every instance is identifiable: golden schedules, full readout,
            # two-width pulse family
            verdict_ok=bool(report.verdict),
            system_bytes=array_bytes(sys_),
        )
        if got.status != "full":
            out.reason = f"status:{got.status}"
            return out
        out.err = float(
            max(np.max(np.abs(got.theta - inst.theta)), np.max(np.abs(got.gamma - inst.gamma)))
        )
        if out.err > self.tol:
            out.reason = "tolerance"
        return out

    def computed(self, ctx):
        """Counts that follow from the inputs' sizes and repeat exactly."""
        t = ctx["tensors"]
        return {
            "liealg.nnz": len(t.f_val) + len(t.g_val),
            "paramrec.mats_bytes": array_bytes(ctx["mats"]),
            "simulate.rk4_steps": 0,
        }


class Records2Q(Workload):
    name = "records-2q"
    why = (
        "record -> drift -> params at the README demo size; simulate's RK4 loop "
        "dominates and about a third of instances fail, so robustness changes show"
    )
    block = 300
    tol = 1e-6  # the drift is fitted from records, not given exactly
    salt = 1

    def draw(self, rng, n, ctx):
        inst = super().draw(rng, n, ctx)
        inst.x0 = rho_to_coherence(random_state(rng, ctx["basis"].dim), ctx["basis"])
        return inst

    def run(self, ctx, inst, rec):
        basis, sched, n = ctx["basis"], ctx["schedule"], ctx["basis"].n
        params = GkslParams(theta=inst.theta, gamma=inst.gamma, symmetric=True)
        sys_ = rec.call("gksl.assemble_system", assemble_system, basis, ctx["tensors"], params)
        record = rec.call("simulate.simulate", simulate, sys_, sched, x0=inst.x0)
        report = rec.call(
            "identify.identifiability_report",
            identifiability_report,
            sys_,
            mode="autonomous",
            schedule=sched,
        )
        model = rec.call("ldsrec.fit_multirate", fit_multirate, record, sched, n, C=sys_.C)
        family = rec.call("ldsrec.single_rate_models", single_rate_models, model)
        cont = rec.call("ldsrec.reconstruct_continuous", reconstruct_continuous, family)
        got = rec.call(
            "paramrec.reconstruct_symmetric", reconstruct_symmetric, cont.A, ctx["mats"]
        )
        return self.gate(inst, sys_, report, got)

    def computed(self, ctx):
        return dict(super().computed(ctx), **{"simulate.rk4_steps": rk4_steps(ctx["schedule"])})


class Drift3Q(Workload):
    name = "drift-3q"
    why = (
        "the 3-qubit scale: dense n^3/n^4 einsums in gksl and paramrec dominate; "
        "no simulate, so a simulate change should not move it"
    )
    qubits = 3
    setup_rounds = 3
    probe = staticmethod(dense_kernel)
    sample_every = 0.1  # one ~30 s instance: the host's speed changes within it
    salt = 2

    def run(self, ctx, inst, rec):
        params = GkslParams(theta=inst.theta, gamma=inst.gamma, symmetric=True)
        sys_ = rec.call(
            "gksl.assemble_system", assemble_system, ctx["basis"], ctx["tensors"], params
        )
        report = rec.call(
            "identify.identifiability_report",
            identifiability_report,
            sys_,
            mode="autonomous",
            schedule=ctx["schedule"],
        )
        got = rec.call(
            "paramrec.reconstruct_symmetric", reconstruct_symmetric, sys_.A, ctx["mats"]
        )
        return self.gate(inst, sys_, report, got)


class General2Q(Workload):
    name = "general-2q"
    why = (
        "Hermitian gamma with nonzero beta: controlled word span and the general "
        "stacked solve, so costs to the general route or the Kalman test show"
    )
    block = 300
    mats_modes = dict(general=True, symmetric=False)
    probe = staticmethod(dense_kernel)
    salt = 3

    def draw(self, rng, n, ctx):
        return Instance(theta=rng.normal(size=n), gamma=random_psd(rng, n, True))

    def run(self, ctx, inst, rec):
        params = GkslParams(theta=inst.theta, gamma=inst.gamma)
        sys_ = rec.call(
            "gksl.assemble_system", assemble_system, ctx["basis"], ctx["tensors"], params
        )
        report = rec.call(
            "identify.identifiability_report",
            identifiability_report,
            sys_,
            mode="controlled",
            pulses=ctx["pulses"],
        )
        got = rec.call(
            "paramrec.reconstruct_general", reconstruct_general, sys_.A, sys_.beta, ctx["mats"]
        )
        return self.gate(inst, sys_, report, got)


WORKLOADS = {w.name: w for w in (Records2Q(), Drift3Q(), General2Q())}
