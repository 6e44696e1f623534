"""Probe-normalised timing and the summary statistics every workload
reports.

Wall-clock time on a small shared machine drifts between identical
runs.  Every timed region is therefore bracketed by a fixed reference
probe -- code that never calls ``repro`` -- and scaled by how fast the
probe ran right beside it::

    normalised = wall * PROBE_REF_MS / mean(probe_before, probe_after)

so a timing reads as "milliseconds at the speed where the probe takes
``PROBE_REF_MS``".  A change to ``repro`` cannot speed the probe up or
slow it down, except by leaving the machine in a different state (a
grown heap, a warm or cold cache); the raw probe median is reported as
the ``probe_ms`` diagnostic to catch that.

The probe times four kinds of work an audit does: cache-resident array
arithmetic, interpreter steps, a streaming pass over 32 MB, far beyond a
core's private caches, and BLAKE2b hashing, the integer work of
fingerprinting.  The memory pass is preceded by an untimed pass that
brings the array back into the shared cache, so its time does not
depend on how much of it the op just evicted.  Hashing takes about two
thirds of the probe's time; without it, the probe followed less of the
machine's drift (see ``README.md``, *the probe*).
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

#: Reference probe duration, in milliseconds.  Normalised timings are
#: expressed at the machine speed where one probe takes this long.
PROBE_REF_MS = 16.0

#: The probe's array work: 15 passes of ``np.sin`` over 20k floats.
_PROBE_X = np.linspace(0.0, 1.0, 20_000)
_PROBE_SIN_PASSES = 15
#: The probe's interpreter work: a 10k-step Python loop.
_PROBE_LOOP = 10_000
#: The probe's memory work: 1 timed summing pass over 32 MB of float64.
_PROBE_BIG = np.ones(4_000_000)
_PROBE_BIG_PASSES = 1
#: The probe's integer work: BLAKE2b over the first 8 MB of that array,
#: the hash ``repro.fingerprint`` uses.
_PROBE_HASHED = _PROBE_BIG[:1_000_000]

#: Probes run on each side of a cold set-up; their median brackets it.
SETUP_PROBES = 5

#: Reference time of the spawn probe, in milliseconds: about its time
#: when the probe above takes ``PROBE_REF_MS``.
SPAWN_REF_MS = 160.0
#: Spawn probes run on each side of a set-up that starts a process.
SPAWN_PROBES = 3

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def probe_ms() -> float:
    """Run the reference probe once; returns its wall time in ms."""
    t0 = time.perf_counter()
    for _ in range(_PROBE_SIN_PASSES):
        np.sin(_PROBE_X)
    acc = 0
    for i in range(_PROBE_LOOP):
        acc += i
    compute = time.perf_counter() - t0
    _PROBE_BIG.sum()  # untimed: re-warms whatever the op evicted
    t1 = time.perf_counter()
    for _ in range(_PROBE_BIG_PASSES):
        _PROBE_BIG.sum()
    hashlib.blake2b(_PROBE_HASHED, digest_size=16).digest()
    return (compute + time.perf_counter() - t1) * 1e3


def probe_median_ms(n: int = SETUP_PROBES) -> float:
    """Median of ``n`` probes: the bracket of a long timed region, where
    one probe would sample too little of the machine's state."""
    return statistics.median(probe_ms() for _ in range(n))


def spawn_probe_ms() -> float:
    """Start a fresh interpreter that imports numpy and wait for it to
    exit; returns the wall time in ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3


def process_bracket_ms() -> float:
    """Bracket of a set-up that starts a process (the gateway's server).

    The in-process probe alone does not follow how fast the machine
    starts processes and imports modules, which is most of such a
    set-up; this is the mean of the probe median and the spawn-probe
    median rescaled to probe units, so it reads like
    :func:`probe_median_ms`.
    """
    spawn = statistics.median(spawn_probe_ms() for _ in range(SPAWN_PROBES))
    return (probe_median_ms() + spawn * PROBE_REF_MS / SPAWN_REF_MS) / 2.0


def warm_probe(rounds: int = 25) -> None:
    """Run the probe until caches and the allocator are warm."""
    for _ in range(rounds):
        probe_ms()


def speed_factor(before_ms: float, after_ms: float) -> float:
    """The multiplier that turns wall time into reference time."""
    mean = (before_ms + after_ms) / 2.0
    if mean <= 0.0:
        raise ValueError(f"probe means must be positive, got {mean}")
    return PROBE_REF_MS / mean


def tail_percentile(
    values, q: float = 0.9, beyond: int = TAIL_BEYOND
) -> float:
    """Nearest-rank ``q`` quantile that leaves at least ``beyond``
    samples strictly above its rank.

    Raises
    ------
    ValueError
        When there are too few samples for the rule (for ``q=0.9`` and
        ``beyond=10`` that means fewer than 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < beyond:
        raise ValueError(
            f"p{round(q * 100)} needs {beyond} samples beyond it; "
            f"{n} samples leave {max(n - rank, 0)}"
        )
    return ordered[rank - 1]


def min_samples(q: float = 0.9, beyond: int = TAIL_BEYOND) -> int:
    """The smallest sample count :func:`tail_percentile` accepts."""
    n = beyond
    while n - math.ceil(q * n) < beyond:
        n += 1
    return n


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def rss_peak_mb() -> float:
    """Peak resident set size of this process, in MB (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of another live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM line for pid {pid}")


class Outcomes:
    """Attempted/failed accounting behind ``ok_ratio``.

    An op counts as failed once, whether it raised, returned a non-2xx
    response or failed a correctness check -- or several of these.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: set = set()
        self.reasons: list = []

    def attempt(self) -> int:
        """Register one attempted op; returns its index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        """Mark op ``op`` failed (idempotent per op)."""
        if not 0 <= op < self.attempted:
            raise ValueError(f"op {op} was never attempted")
        self._failed.add(op)
        self.reasons.append(f"op {op}: {reason}")

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.fail_ratio
