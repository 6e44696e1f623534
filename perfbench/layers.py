"""Outside-in stage trace: wrappers around ``repro``'s layers, and the
per-layer metrics computed from the spans they record.

:func:`install` replaces public callables with span-recording wrappers
*where they are looked up* (``setattr`` on the owning module or class),
so nothing under ``src/`` changes.  Each entry of :data:`TARGETS` names
the owner, the attribute, the span name and an optional counter hook.

Span names map onto the per-layer metrics in :data:`LAYER_OF`.  Time
metrics are probe-normalised self time: the mean per measured op, except
the set-up layers in :data:`SETUP_LAYERS`, which are the mean per cold
set-up.  Means (not medians) keep the layers additive -- their sum is
the traced op time, up to ``trace.coverage`` -- and let a layer that
runs on a minority of ops (a cache hit, a ticket redeem) still show.
"""

from __future__ import annotations

import functools
import importlib

import spans as spans_mod

#: Span name -> per-layer time metric.  Several span names may feed one
#: metric (the engine's own glue lives in four places).
LAYER_OF = {
    "geometry.build": "geometry.build_ms",
    "index.build": "index.build_ms",
    "index.stack": "index.stack_ms",
    "index.recount": "index.recount_ms",
    "index.update": "index.update_ms",
    "engine.simulate": "engine.simulate_ms",
    "engine.null": "engine.self_ms",
    "engine.adaptive": "engine.self_ms",
    "engine.pool": "engine.self_ms",
    "engine.chunk": "engine.self_ms",
    "kernels.llr": "kernels.llr_ms",
    "core.run_scan": "core.assemble_ms",
    "api.resolve": "api.resolve_ms",
    "api.run": "api.run_ms",
    "api.append": "api.append_ms",
    "api.evict": "api.evict_ms",
    "api.to_dict": "api.to_dict_ms",
    "fingerprint": "fingerprint.ms",
    "serve.gather": "serve.gather_ms",
    "serve.wait": "serve.wait_ms",
    "serve.advance": "serve.advance_ms",
    "gateway.submit": "gateway.submit_ms",
    "gateway.handler": "gateway.handler_ms",
    "gateway.json": "gateway.json_ms",
    "registry.register": "registry.register_ms",
    "ticketstore.write": "ticketstore.write_ms",
}

#: Layers whose work belongs to set-up: reported per cold set-up.
SETUP_LAYERS = (
    "geometry.build_ms",
    "index.build_ms",
    "api.resolve_ms",
    "registry.register_ms",
)

#: Root spans the benchmark itself opens around each op; their self
#: time is the part of an op no layer span explains.
ROOT = "bench.op"

#: Counters reported as a mean per measured op.
OP_COUNTS = (
    "engine.worlds_simulated",
    "engine.draws",
    "engine.chunks",
    "index.recount_cells",
    "index.builds",
    "index.incremental_builds",
    "fingerprint.calls",
    "fingerprint.bytes",
    "ticketstore.writes",
    "budget.rounds",
)

#: Every per-layer time metric, in report order.
TIME_METRICS = tuple(dict.fromkeys(LAYER_OF.values())) + (
    "gateway.http_ms",
)


# -- wrappers ------------------------------------------------------------


def _wrap(tracer, func, name, pre=None, post=None):
    """A wrapper recording a span ``name`` (``None``: no span) and
    feeding ``post(tracer, args, result, state)`` afterwards, where
    ``state`` is ``pre(args)``."""
    start, finish = tracer.start, tracer.finish

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        state = pre(args) if pre is not None else None
        span = start(name) if name is not None else None
        try:
            result = func(*args, **kwargs)
        finally:
            if span is not None:
                finish(span)
        if post is not None:
            post(tracer, args, result, state)
        return result

    return wrapper


def _nbytes(args) -> int:
    return sum(int(getattr(a, "nbytes", 0) or 0) for a in args)


def _count_fingerprint(tracer, args, result, state):
    tracer.add("fingerprint.calls")
    tracer.add("fingerprint.bytes", _nbytes(args))


def _count_recount(tracer, args, result, state):
    member, worlds = args[0], args[1]
    nnz = member._matrix.nnz
    tracer.add("index.recount_calls")
    tracer.add("index.nnz", nnz)
    tracer.add("index.recount_cells", nnz * worlds.shape[1])


def _count_simulate(tracer, args, result, state):
    tracer.add("engine.chunks")
    tracer.add("engine.worlds_simulated", result.shape[1])
    tracer.add("engine.draws", result.size)


def _count_one(counter):
    def post(tracer, args, result, state):
        tracer.add(counter)

    return post


def _incremental_before(args):
    return args[0].incremental_builds


def _count_incremental(tracer, args, result, state):
    tracer.add("index.incremental_builds", args[0].incremental_builds - state)


def _count_round(tracer, args, result, state):
    if "engine.adaptive" in tracer.open_names():
        tracer.add("budget.rounds")


class _Missing:
    """Stands in for a module or class an older ``repro`` lacks; every
    attribute is another stand-in, so its targets are skipped."""

    def __getattr__(self, name):
        return self


def _module(name):
    try:
        return importlib.import_module(f"repro.{name}")
    except ImportError:
        return _Missing()


def _targets():
    """``(owner, attribute, span name, pre, post)`` for every wrapped
    callable.  Imported lazily: ``repro`` must be importable first."""
    api, engine, gateway, index, kernels, registry, serve, spec, \
        ticketstore = map(_module, (
            "api", "engine", "gateway", "index", "kernels", "registry",
            "serve", "spec", "ticketstore",
        ))

    eng = engine.MonteCarloEngine
    out = [
        (spec.RegionSpec, "build", "geometry.build", None, None),
        (eng, "_cold_build", "index.build", None,
         _count_one("index.builds")),
        (index.StackedMembership, "__init__", "index.stack", None, None),
        (eng, "null_distribution", "engine.null", None, None),
        (eng, "null_distribution_multi", "engine.null", None, None),
        (eng, "_adaptive_pass", "engine.adaptive", None, None),
        (eng, "_run_chunks", None, None, _count_round),
        (eng, "_null_parallel", "engine.pool", None, None),
        (engine, "_run_chunk", "engine.chunk", None, None),
        (eng, "append_points", None, _incremental_before,
         _count_incremental),
        (eng, "evict_points", None, _incremental_before,
         _count_incremental),
        (api, "run_scan", "core.run_scan", None, None),
        (api.AuditSession, "resolve", "api.resolve", None, None),
        (api.AuditSession, "run", "api.run", None, None),
        (api.AuditSession, "append", "api.append", None, None),
        (api.AuditSession, "evict", "api.evict", None, None),
        (api.AuditReport, "to_dict", "api.to_dict", None, None),
        (serve.AuditService, "_drain", "serve.gather", None, None),
        (serve.PendingAudit, "result", "serve.wait", None, None),
        (serve.AuditService, "advance", "serve.advance", None, None),
        (gateway.AuditGateway, "submit", "gateway.submit", None, None),
        (registry.DatasetRegistry, "register", "registry.register",
         None, None),
    ]
    for cls in (index.RegionMembership, index.StackedMembership):
        out.append(
            (cls, "positive_counts_batch", "index.recount", None,
             _count_recount)
        )
        for attr in ("append_points", "evict_points"):
            out.append((cls, attr, "index.update", None, None))
    for cls in (
        engine.BernoulliKernel, engine.PoissonKernel,
        engine.MultinomialKernel,
    ):
        out.append(
            (cls, "simulate", "engine.simulate", None, _count_simulate)
        )
    for attr in (
        "bernoulli_llr_batch", "poisson_llr_batch", "multinomial_llr_term",
    ):
        out.append((kernels, attr, "kernels.llr", None, None))
    # Fingerprints are wrapped where each caller looks them up.
    for owner, attr in (
        (api, "_dataset_fingerprint"),
        (api, "_array_fingerprint"),
        (serve, "array_fingerprint"),
        (engine, "array_fingerprint"),
        (registry, "dataset_fingerprint"),
    ):
        out.append((owner, attr, "fingerprint", None, _count_fingerprint))
    for attr in ("record_submit", "record_settle", "record_fetch"):
        out.append(
            (ticketstore.TicketStore, attr, "ticketstore.write", None,
             _count_one("ticketstore.writes"))
        )
    return out


def _traced_handler_factory(tracer, make_handler):
    """Wrap ``gateway._make_handler`` so every HTTP request runs in a
    ``gateway.handler`` span charged to the op id the benchmark's client
    sends in the ``X-Bench-Op`` header."""

    @functools.wraps(make_handler)
    def factory(gateway, quiet):
        base = make_handler(gateway, quiet)

        class TracedHandler(base):
            def _traced(self, method):
                with tracer.op(self.headers.get("X-Bench-Op")):
                    with tracer.span("gateway.handler"):
                        method(self)

            def do_GET(self):
                self._traced(base.do_GET)

            def do_POST(self):
                self._traced(base.do_POST)

            def _body(self):
                with tracer.span("gateway.json"):
                    return base._body(self)

            def _send(self, *args, **kwargs):
                with tracer.span("gateway.json"):
                    return base._send(self, *args, **kwargs)

        return TracedHandler

    return factory


def install(tracer) -> list:
    """Wrap every target; returns the undo list for :func:`uninstall`.

    A target the installed ``repro`` does not define is skipped, so the
    traced run also works on older commits (with fewer layers)."""
    undo = []
    for owner, attr, name, pre, post in _targets():
        raw = vars(owner).get(attr) if hasattr(owner, "__dict__") else None
        if raw is None:
            continue
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        wrapped = _wrap(tracer, func, name, pre, post)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        undo.append((owner, attr, raw))
    gateway = _module("gateway")
    if not isinstance(gateway, _Missing):
        raw = vars(gateway)["_make_handler"]
        gateway._make_handler = _traced_handler_factory(tracer, raw)
        undo.append((gateway, "_make_handler", raw))
    return undo


def uninstall(undo) -> None:
    """Restore every attribute :func:`install` replaced."""
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


# -- analysis ------------------------------------------------------------


def layer_metrics(
    spans, counts, factors, setup_ops, measure_ops, client_walls=None
) -> dict:
    """Per-layer metrics from merged spans and counts.

    Parameters
    ----------
    spans : list of spans.Span
        Every span of the traced phase, from every process.
    counts : list of (op, name, value)
    factors : dict
        Op id -> probe speed factor (``PROBE_REF / mean(probes)``).
    setup_ops, measure_ops : sequence
        Op ids of the traced cold set-ups and of the measured ops.
    client_walls : dict, optional
        Request id -> client-side wall seconds, for ``gateway.http_ms``
        (client latency minus the server handler's duration).  Request
        ids are op ids, or op ids followed by ``/<n>`` for ops that make
        several requests.

    Returns
    -------
    dict
        Metric name -> value, plus ``trace.coverage``.
    """
    setup_ops, measure_ops = set(setup_ops), set(measure_ops)
    n_setup, n_ops = max(len(setup_ops), 1), max(len(measure_ops), 1)
    selfs = spans_mod.self_times(spans)
    totals = {name: 0.0 for name in TIME_METRICS}
    unattributed = 0.0
    root_wall = 0.0
    handler_wall: dict = {}
    for span in spans:
        op = _op_of(span.op)
        if op not in measure_ops and op not in setup_ops:
            continue
        ms = selfs[span.id] * 1e3 * factors[op]
        metric = LAYER_OF.get(span.name)
        if metric is not None:
            if (metric in SETUP_LAYERS) == (op in setup_ops):
                totals[metric] += ms
        if op not in measure_ops:
            continue
        if span.name == ROOT:
            unattributed += ms
            root_wall += span.duration * 1e3 * factors[op]
        elif span.name == "gateway.handler" and span.parent is None:
            # The handler's own self time is HTTP parsing and routing
            # that no layer below it explains.
            unattributed += ms
            handler_wall[span.op] = (
                handler_wall.get(span.op, 0.0) + span.duration
            )
    # On the gateway the client's request is the root; the server's
    # handler span is its cross-process child, and the rest of the
    # client's wall time is the HTTP transport.
    for request, wall in (client_walls or {}).items():
        op = _op_of(request)
        if op not in measure_ops:
            continue
        factor = factors[op]
        totals["gateway.http_ms"] += (
            (wall - handler_wall.get(request, 0.0)) * 1e3 * factor
        )
        root_wall += wall * 1e3 * factor
    out = {}
    for metric, total in totals.items():
        out[metric] = total / (n_setup if metric in SETUP_LAYERS else n_ops)
    summed: dict = {}
    for op, name, value in counts:
        if _op_of(op) in measure_ops:
            summed[name] = summed.get(name, 0.0) + value
    for name in OP_COUNTS:
        out[name] = summed.get(name, 0.0) / n_ops
    calls = summed.get("index.recount_calls", 0.0)
    out["index.nnz"] = summed.get("index.nnz", 0.0) / calls if calls else 0.0
    out["trace.coverage"] = (
        1.0 - unattributed / root_wall if root_wall > 0 else 0.0
    )
    return out


def _op_of(op_id):
    """The op a span or request id belongs to (drops ``/<n>``)."""
    if isinstance(op_id, str) and "/" in op_id:
        return op_id.split("/", 1)[0]
    return op_id
