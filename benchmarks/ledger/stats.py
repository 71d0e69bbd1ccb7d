"""Pure helpers: result digests, percentiles, and run-to-run spread."""

from __future__ import annotations

import hashlib
import json
import statistics
import time

# Samples that must lie beyond a reported percentile (choosing-metrics
# guide, section 1): p90 needs 100 samples, p99 needs 1000.
SAMPLES_BEYOND = 10


def result_digest(result) -> str:
    """SHA-256 over everything a ``SimulationResult`` promises bit-exact.

    Sorted match lists, cycles, stall cycles and the energy breakdown
    (floats by ``repr``, so one ulp of drift changes the digest).
    """
    doc = {
        "matches": sorted(
            (rid, sorted(ends)) for rid, ends in result.matches.items()
        ),
        "cycles": result.metrics.cycles,
        "stall_cycles": result.stall_cycles,
        "energy_pj": sorted(
            (name, repr(pj)) for name, pj in result.energy_breakdown_pj.items()
        ),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def sim_counts(result) -> dict:
    """The simulated statistics that must repeat exactly across runs."""
    return {
        "matches": result.match_count,
        "cycles": result.metrics.cycles,
        "energy_pj": sum(result.energy_breakdown_pj.values()),
    }


def percentile(samples, q: float, *, min_beyond: int = SAMPLES_BEYOND) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples would
    lie beyond it — a tail read off too few samples is noise.  (Only
    ``--smoke``, which measures nothing, passes 0.)
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    beyond = n * (100.0 - q) / 100.0
    if q > 50 and beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond:.1f} beyond it; "
            f"need at least {min_beyond}"
        )
    rank = (n - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def windowed_rate(latencies, op_bytes: int, windows: int = 10) -> float:
    """Bytes per second as the median over ``windows`` consecutive slices
    of the timed phase (each slice: bytes / seconds inside its ops).

    A plain total/total is a mean, and one burst of host interference
    moved it by 10-30 % between identical runs; the median slice ignores
    bursts that hit fewer than half the slices.
    """
    size = len(latencies) // windows
    if size == 0:
        return len(latencies) * op_bytes / sum(latencies)
    return statistics.median(
        size * op_bytes / sum(latencies[i * size : (i + 1) * size])
        for i in range(windows)
    )


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's own
    steadiness measure); 0.0 for fewer than two values."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# -- host-speed calibration ---------------------------------------------------

# Seconds the calibration loop takes on the reference box in its fast
# state.  It only fixes the scale of normalised values (so they read
# like this box's raw ones); any constant would do.
CAL_REF_S = 0.00105
CAL_WINDOW = 2  # rolling median over 2 neighbours either side
_CAL_SPIN = 10_000
_CAL_WALK = [i * 7919 + (1 << 40) for i in range(20_000)]  # distinct int objects


def calibration_spin() -> float:
    """Seconds for a fixed pure-Python loop that tracks host speed.

    Two halves, because this box slows down in two ways: a bytecode
    spin (CPU clock / sibling contention) and a walk over 20 000 boxed
    integers (memory latency / cache contention) — the second tracks
    the allocation-heavy NBVA scan far better than the first alone.
    The idea is ``benchmarks/check_regression.py``'s calibration anchor;
    the loop shares no code with ``repro``, so no change to the repo can
    move it.
    """
    start = time.perf_counter()
    x = 0
    for i in range(_CAL_SPIN):
        x += i
    for value in _CAL_WALK:
        x ^= value
    return time.perf_counter() - start


def normalise(latencies, spins) -> list[float]:
    """Latencies rescaled to the reference host speed.

    ``spins[i]`` is the calibration loop run right after operation
    ``i``.  Each latency is divided by the rolling median of the spins
    around it (so one descheduled spin cannot distort a sample) and
    multiplied by :data:`CAL_REF_S`.  On a box whose speed wanders by
    +-15 % over tens of seconds this removes most of the run-to-run
    spread; on a steady box it is a constant factor.
    """
    if len(latencies) != len(spins):
        raise ValueError("one calibration spin per latency sample")
    out = []
    last = len(spins)
    for index, latency in enumerate(latencies):
        window = spins[max(0, index - CAL_WINDOW) : min(last, index + CAL_WINDOW + 1)]
        out.append(latency * CAL_REF_S / statistics.median(window))
    return out


def host_factor(samples: int = 3) -> float:
    """Current host slowdown relative to the reference speed (1.0 = at
    reference), from a few calibration loops run back to back."""
    return statistics.median(calibration_spin() for _ in range(samples)) / CAL_REF_S
