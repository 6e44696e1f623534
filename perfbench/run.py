"""Probe-normalised benchmark of the ``repro`` audit stack.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload audit-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload audit-grid --seed 1 --seconds 15 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced reference phase, installs the layer wrappers (``layers.py``)
and prints the per-layer metrics.  Every metric is printed by name with
its unit, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every correctness check held, 1 when one
failed, and 2 when the run could not happen at all (no ``src/repro``
next to this directory, bad arguments).  See ``README.md`` for the
metrics, workloads and the probe.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_ref_ms_p50": "ms",
    "op_ref_ms_p90": "ms",
    "ops_per_s": "1/s",
    "rss_peak_mb": "MB",
    "ok_ratio": "ratio",
}


def _per_layer_units() -> dict:
    import layers

    units = {name: "ms" for name in layers.TIME_METRICS}
    units.update({
        "fingerprint.calls": "count",
        "fingerprint.bytes": "bytes",
        "ticketstore.writes": "count",
        "engine.worlds_simulated": "count",
        "engine.worlds_requested": "count",
        "engine.worlds_ratio": "ratio",
        "engine.draws": "count",
        "engine.chunks": "count",
        "index.nnz": "count",
        "index.recount_cells": "count",
        "index.builds": "count",
        "index.incremental_builds": "count",
        "budget.rounds": "count",
        "serve.cache_hit_ratio": "ratio",
        "serve.fused_specs_per_group": "ratio",
        "serve.stream_skip_ratio": "ratio",
        "gateway.rejected": "count",
        "gateway.queue_peak": "count",
        "probe_ms": "ms",
        "wall.op_ms_p50": "ms",
        "trace.overhead_pct": "%",
        "trace.coverage": "ratio",
    })
    return units


def workload_classes() -> dict:
    from gateway_load import GatewayMixed
    from workloads import AuditGrid, AuditScan, StreamWindow

    return {
        cls.name: cls
        for cls in (AuditGrid, AuditScan, GatewayMixed, StreamWindow)
    }


WORKLOAD_NAMES = ("audit-grid", "audit-scan", "gateway-mixed", "stream-window")

#: Burst numbers of the untimed warm pass (far from any measured one,
#: so their audit seeds never repeat a measured op's).
WARM_BURST = 1_000_000


# -- measurement ----------------------------------------------------------


class Loop:
    """What one measured phase recorded."""

    def __init__(self):
        self.latencies = []   # normalised ms per op
        self.raw = []         # raw ms per op
        self.busy = 0.0       # normalised seconds of bursts
        self.probes = []      # raw probe ms
        self.factors = {}     # op id -> speed factor
        self.requests = {}    # request id -> raw wall s
        self.op_index = {}    # op id -> outcomes index
        self.bursts = 0


def cold_setups(wl, loop, tracer=None) -> list:
    """``wl.setups`` cold set-ups, each normalised by the brackets
    (``wl.setup_bracket_ms``) on either side; returns the normalised
    seconds.  The last set-up stays up."""
    import measure

    values = []
    for k in range(wl.setups):
        if k:
            wl.teardown()
        before = wl.setup_bracket_ms()
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.op(f"s{k}"):
                wl.setup(k)
        else:
            wl.setup(k)
        wall = time.perf_counter() - t0
        after = wl.setup_bracket_ms()
        loop.probes += [before, after]
        factor = measure.speed_factor(before, after)
        loop.factors[f"s{k}"] = factor
        values.append(wall * factor)
    return values


def run_loop(wl, outcomes, loop, seconds=None, min_ops=1, bursts=None,
             tracer=None):
    """Measure bursts until ``seconds`` passed and ``min_ops`` ops ran
    (or exactly ``bursts`` bursts), probing between bursts."""
    import layers
    import measure

    before = measure.probe_ms()
    loop.probes.append(before)
    start = time.perf_counter()
    b = 0
    while True:
        if bursts is not None:
            if b >= bursts:
                break
        elif (time.perf_counter() - start >= seconds
              and len(loop.latencies) >= min_ops):
            break
        t0 = time.perf_counter()
        if tracer is not None and wl.in_process:
            with tracer.op(f"o{b}"), tracer.span(layers.ROOT):
                ops = wl.burst(b)
        else:
            ops = wl.burst(b)
        wall = time.perf_counter() - t0
        after = measure.probe_ms()
        loop.probes.append(after)
        factor = measure.speed_factor(before, after)
        loop.busy += wall * factor
        index = []
        for op in ops:
            i = outcomes.attempt()
            index.append(i)
            loop.op_index[op.id] = i
            loop.factors[op.id] = factor
            loop.requests.update(op.requests)
            loop.latencies.append(op.wall * factor * 1e3)
            loop.raw.append(op.wall * 1e3)
            if op.error is not None:
                outcomes.fail(i, op.error)
        # Checks run outside the timed region; a slow one is followed
        # by a fresh probe so the next op is still bracketed tightly.
        t_check = time.perf_counter()
        if all(op.error is None for op in ops):
            for j, reason in wl.check(b, ops):
                outcomes.fail(index[j], reason)
        if time.perf_counter() - t_check > 5e-4:
            before = measure.probe_ms()
            loop.probes.append(before)
        else:
            before = after
        b += 1
    loop.bursts = b


def warm_pass(wl, bursts: int = 4) -> None:
    """One untimed full-size set-up and a few ops, so the first measured
    ops do not pay for the process's first large allocations."""
    wl.setup(0)
    try:
        for i in range(bursts):
            wl.burst(WARM_BURST + i)
    finally:
        wl.teardown()


def stop_helpers() -> None:
    """Wait for every process this run started.  Shared memory (the fork
    pool's result buffer, the dataset registry) starts multiprocessing's
    resource tracker, which otherwise outlives the run until it reads
    EOF; closing its pipe and reaping it here ends it first."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def apply_final_checks(wl, outcomes, loop) -> None:
    last = max(loop.op_index.values(), default=0)
    for op_id, reason in wl.final_checks():
        outcomes.fail(loop.op_index.get(op_id, last), reason)


def run_untraced(wl, args, outcomes) -> dict:
    import measure

    loop = Loop()
    setups = cold_setups(wl, loop)
    run_loop(wl, outcomes, loop, seconds=args.seconds,
             min_ops=measure.min_samples())
    rss = wl.rss_mb()
    apply_final_checks(wl, outcomes, loop)
    wl.teardown()
    lat = loop.latencies
    return {
        "setup_s": measure.median(setups),
        "op_ref_ms_p50": measure.median(lat),
        "op_ref_ms_p90": measure.tail_percentile(lat),
        "ops_per_s": len(lat) / loop.busy,
        "rss_peak_mb": rss,
        "ok_ratio": outcomes.ok_ratio,
    }, {
        "samples": len(lat),
        "bursts": loop.bursts,
        "fail_ratio": outcomes.fail_ratio,
        "probe_ms (raw median)": measure.median(loop.probes),
        "wall op ms p50 (raw)": measure.median(loop.raw),
        "setups": len(setups),
    }


def run_traced(wl, args, tmp, outcomes) -> dict:
    import layers
    import measure
    import spans as spans_mod

    # Untraced reference phase: the same ops without wrappers.
    ref = Loop()
    wl.setup(0)
    run_loop(wl, outcomes, ref, bursts=wl.traced_ops)
    wl.teardown()

    traced = Loop()
    tracer = undo = None
    if wl.in_process:
        spill = tmp / "spill"
        spill.mkdir()
        tracer = spans_mod.Tracer(spill_dir=spill)
        undo = layers.install(tracer)
    else:
        wl.traced = True
    try:
        cold_setups(wl, traced, tracer)
        run_loop(wl, outcomes, traced, bursts=wl.traced_ops, tracer=tracer)
        counters = wl.service_counters()
    finally:
        if undo is not None:
            layers.uninstall(undo)
    if wl.in_process:
        spans, counts = spans_mod.load(sorted(spill.glob("*.jsonl")))
        spans += tracer.spans
        counts += tracer.counts
        client_walls = None
    else:
        wl.teardown()
        spans, counts = wl.collect_traces()
        client_walls = traced.requests
    apply_final_checks(wl, outcomes, traced)
    wl.teardown()

    setup_ops = [f"s{k}" for k in range(wl.setups)]
    metrics = layers.layer_metrics(
        spans, counts, traced.factors, setup_ops,
        list(traced.op_index), client_walls,
    )
    n_ops = len(traced.op_index)
    requested = sum(
        wl.worlds_requested(b) for b in range(traced.bursts)
    ) / n_ops
    metrics["engine.worlds_requested"] = requested
    metrics["engine.worlds_ratio"] = (
        metrics["engine.worlds_simulated"] / requested if requested else 0.0
    )
    for name in ("serve.cache_hit_ratio", "serve.fused_specs_per_group",
                 "serve.stream_skip_ratio", "gateway.rejected",
                 "gateway.queue_peak"):
        metrics[name] = float(counters.get(name, 0.0))
    metrics["probe_ms"] = measure.median(ref.probes + traced.probes)
    metrics["wall.op_ms_p50"] = measure.median(ref.raw)
    metrics["trace.overhead_pct"] = 100.0 * (
        measure.median(traced.latencies) / measure.median(ref.latencies)
        - 1.0
    )
    return metrics, {
        "reference ops": len(ref.latencies),
        "traced ops": n_ops,
        "spans": len(spans),
        "fail_ratio": outcomes.fail_ratio,
    }


# -- entry point ----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    outcomes = measure.Outcomes()
    wl = None
    try:
        wl = workload_classes()[args.workload](args.seed, tmp)
        wl.warm()
        if wl.in_process:
            warm_pass(wl)
        measure.warm_probe()
        if args.trace:
            values, notes = run_traced(wl, args, tmp, outcomes)
            units = _per_layer_units()
        else:
            values, notes = run_untraced(wl, args, outcomes)
            units = END_TO_END
    finally:
        try:
            if wl is not None:
                getattr(wl, "close", wl.teardown)()
        finally:
            stop_helpers()
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                tmp.parent.rmdir()
            except OSError:
                pass
    correct = outcomes.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for name, value in notes.items():
        print(f"  {name:<28} {value}")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    for reason in outcomes.reasons[:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
