"""Speed probes that rescale instance times measured on a shared host.

On a shared host the same code runs up to ~1.8x slower for seconds at a
time while other tenants load the machine, and how much slower depends on
the kind of work.  A probe is a fixed kernel of the benchmark's own that does
the same kind of work as a workload's instances; timed next to them, it
slows by about the same factor.  An instance is reported as

    wall time * mean(reference / probe time) over the probes around it

that is, at the machine speed at which the probe takes `reference` seconds.
The unscaled wall times are printed next to the scaled ones.
"""

import bisect
import os
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

_rng = np.random.default_rng(0)
_M = 0.1 * _rng.normal(size=(15, 15))
_X0 = _rng.normal(size=15)
_C = _rng.normal(size=(48, 48)) + 1j * _rng.normal(size=(48, 48))
_T = _rng.normal(size=(15, 15, 15))


def matvec_kernel():
    """Small mat-vec steps in a Python loop, like simulate's RK4 loop."""
    x = _X0.copy()
    for _ in range(300):
        x = x + 0.01 * (_M @ x)


def dense_kernel():
    """Small complex SVD and solve plus a 15^4 einsum, like the general
    route's cond(M), stacked solve and drift reassembly."""
    np.linalg.svd(_C, compute_uv=False)
    np.linalg.solve(_C, _C[:, 0])
    np.einsum("ijk,jkl->il", _T, _T)


# kernel -> its time between instances on an uncontended x86_64 host (2 vCPUs,
# Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread); only fixes the unit.
REFERENCE_S = {matvec_kernel: 7.0e-4, dense_kernel: 5.0e-4}
KERNELS = {k.__name__: k for k in REFERENCE_S}

# In-work probes count only while their median stays within this factor, either
# way, of the between-instance probes' median.  Past it they no longer see the
# host as the caller's probes do, and `scaled` uses the caller's probes alone.
INNER_RATIO_LIMIT = 1.5


def timed(kernel):
    """Run the kernel once; return (end time, seconds taken)."""
    start = time.perf_counter()
    kernel()
    end = time.perf_counter()
    return end, end - start


class SpeedProbe:
    """Timestamped probe times, taken between instances by the caller and,
    for instances that run longer than the host's speed holds still, by a
    child process while they run."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []  # (end time, probe seconds) taken between instances
        self.inner = []  # the same, taken by the child while the work ran
        self.sample()

    def sample(self):
        self.samples.append(timed(self.kernel))

    @contextmanager
    def sampling(self, every_s):
        """Probe every `every_s` seconds from a child process while the block
        runs.

        The process and the child are pinned to one CPU meanwhile, so the
        child probes the CPU the work runs on (each CPU of a shared host
        slows on its own).  Being a process, not a thread, the child never
        waits for the work to release the GIL.  perf_counter is the system's
        monotonic clock, so the child's timestamps line up with the caller's.
        """
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        child = subprocess.Popen(
            [sys.executable, __file__, self.kernel.__name__, repr(every_s)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        out = ""
        try:
            child.stdout.readline()  # "ready": numpy loaded before the work starts
            yield
        finally:
            try:
                out, _ = child.communicate(timeout=30.0)  # EOF on stdin stops it
            finally:
                child.kill()
                child.wait()
                os.sched_setaffinity(0, cpus)
        self.inner = [tuple(map(float, line.split())) for line in out.splitlines()]

    def inner_ratio(self):
        """Median in-work probe time over median between-instance probe time,
        or None without in-work probes.  Near 1 when the child's probes see
        the host as the caller's do."""
        if not self.inner:
            return None
        return statistics.median(p for _, p in self.inner) / statistics.median(
            p for _, p in self.samples
        )

    def inner_used(self):
        """Whether `scaled` uses the in-work probes (see INNER_RATIO_LIMIT)."""
        ratio = self.inner_ratio()
        return ratio is not None and 1 / INNER_RATIO_LIMIT <= ratio <= INNER_RATIO_LIMIT

    def scaled(self, intervals):
        """Rescale (start, end) intervals: each by the mean of reference /
        probe time over the probes taken in it and the nearest one on each
        side.  The nearest probes track the host's speed best."""
        ref = REFERENCE_S[self.kernel]
        ends = sorted(self.samples + (self.inner if self.inner_used() else []))
        times = [t for t, _ in ends]
        out = []
        for start, end in intervals:
            lo = max(0, bisect.bisect_right(times, start) - 1)
            hi = bisect.bisect_left(times, end) + 1
            near = [ref / p for _, p in ends[lo:hi]]
            out.append((end - start) * sum(near) / len(near))
        return out


def _child(kernel_name, every_s):
    """Probe every `every_s` seconds until stdin closes, then print the
    samples, one "end seconds" pair a line."""
    kernel = KERNELS[kernel_name]
    kernel()  # warm up, unrecorded
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], every_s)[0]:
        samples.append(timed(kernel))
    print("\n".join(f"{end!r} {dt!r}" for end, dt in samples))


if __name__ == "__main__":
    _child(sys.argv[1], float(sys.argv[2]))
