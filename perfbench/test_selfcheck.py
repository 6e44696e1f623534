"""Self-tests of the benchmark's own arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They cover probe normalisation, the "at least 10 samples beyond" tail
percentile rule, span self time with nested, threaded and forked spans,
failure accounting and the per-layer roll-up.  None of them calls into
``repro``.
"""

from __future__ import annotations

import os
import threading

import pytest

import layers
import measure
import spans as spans_mod
from spans import Span, Tracer


def _span(id, name, start, end, parent=None, op="o0"):
    span = Span(id, name, start, parent, op, 0, 0)
    span.end = end
    return span


# -- probe normalisation ---------------------------------------------------


def test_speed_factor_uses_the_mean_of_both_probes():
    assert measure.speed_factor(2.0, 6.0) == pytest.approx(
        measure.PROBE_REF_MS / 4.0
    )


def test_normalisation_is_identity_at_reference_speed():
    ref = measure.PROBE_REF_MS
    assert 0.123 * measure.speed_factor(ref, ref) == pytest.approx(0.123)
    # A machine running at half speed doubles both probe and op.
    assert 0.246 * measure.speed_factor(2 * ref, 2 * ref) == pytest.approx(
        0.123
    )


def test_speed_factor_rejects_non_positive_probes():
    with pytest.raises(ValueError):
        measure.speed_factor(0.0, 0.0)


def test_probe_is_timed_in_milliseconds():
    ms = measure.probe_ms()
    assert 0.05 < ms < 1000.0


# -- tail percentile -------------------------------------------------------


def test_p90_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 100 samples
    assert measure.tail_percentile(values) == 90
    assert sum(v > 90 for v in values) == 10


def test_p90_refuses_too_few_samples():
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        measure.tail_percentile(list(range(99)))
    with pytest.raises(ValueError):
        measure.tail_percentile([])


def test_min_samples_is_the_smallest_accepted_count():
    n = measure.min_samples()
    assert n == 100
    measure.tail_percentile(range(n))
    with pytest.raises(ValueError):
        measure.tail_percentile(range(n - 1))
    assert measure.min_samples(q=0.5, beyond=10) == 20


def test_tail_percentile_ignores_input_order():
    values = [5.0, 1.0, 3.0] * 40
    assert measure.tail_percentile(values) == 5.0
    assert measure.median(values) == 3.0


# -- failure accounting ----------------------------------------------------


def test_an_op_fails_once_whatever_the_number_of_reasons():
    out = measure.Outcomes()
    for _ in range(4):
        out.attempt()
    out.fail(1, "HTTP 500")
    out.fail(1, "bytes differ")
    out.fail(3, "verdict FAIR")
    assert out.attempted == 4
    assert out.failed == 2
    assert out.fail_ratio == pytest.approx(0.5)
    assert out.ok_ratio == pytest.approx(0.5)
    assert len(out.reasons) == 3


def test_failing_an_unattempted_op_is_an_error():
    out = measure.Outcomes()
    out.attempt()
    with pytest.raises(ValueError):
        out.fail(1, "never attempted")


def test_nothing_attempted_counts_as_all_failed():
    assert measure.Outcomes().fail_ratio == 1.0


# -- spans and self time ---------------------------------------------------


def test_union_length_merges_overlaps():
    assert spans_mod.union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    assert spans_mod.union_length([]) == 0


def test_self_time_subtracts_nested_children():
    spans = [
        _span("r", "root", 0.0, 10.0),
        _span("a", "a", 1.0, 4.0, parent="r"),
        _span("b", "b", 5.0, 9.0, parent="r"),
        _span("c", "c", 2.0, 3.0, parent="a"),
    ]
    selfs = spans_mod.self_times(spans)
    assert selfs == pytest.approx({"r": 3.0, "a": 2.0, "b": 4.0, "c": 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_concurrent_children_are_not_subtracted_twice():
    # Two pool workers under one parent, overlapping in time, and a
    # child reaching past its parent's end (clipped).
    spans = [
        _span("p", "pool", 0.0, 10.0),
        _span("w1", "chunk", 1.0, 7.0, parent="p"),
        _span("w2", "chunk", 2.0, 8.0, parent="p"),
        _span("late", "chunk", 9.0, 12.0, parent="p"),
    ]
    selfs = spans_mod.self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_nests_spans_and_charges_the_op():
    tracer = Tracer()
    with tracer.op("o7"):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.add("calls", 2)
    assert inner.parent == outer.id
    assert outer.parent is None
    assert {s.op for s in tracer.spans} == {"o7"}
    assert tracer.counts == [("o7", "calls", 2.0)]
    selfs = spans_mod.self_times(tracer.spans)
    assert selfs[outer.id] + selfs[inner.id] == pytest.approx(
        outer.duration
    )


def test_tracer_keeps_threads_apart():
    tracer = Tracer()
    ready = threading.Barrier(2)

    def handler(op):
        with tracer.op(op), tracer.span("handler"):
            ready.wait(timeout=10)
            with tracer.span("work"):
                pass

    threads = [
        threading.Thread(target=handler, args=(f"o{i}",)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    works = [s for s in tracer.spans if s.name == "work"]
    assert len(works) == 2
    for work in works:
        parent = by_id[work.parent]
        # Each child hangs off its own thread's handler and op, even
        # though both handlers were open at the same time.
        assert parent.name == "handler"
        assert parent.thread == work.thread
        assert parent.op == work.op
    assert {s.op for s in works} == {"o0", "o1"}


def test_forked_child_spills_spans_under_the_forking_span(tmp_path):
    tracer = Tracer(spill_dir=tmp_path)
    with tracer.op("o3"), tracer.span("engine.pool") as pool:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                with tracer.span("engine.chunk"):
                    tracer.add("engine.chunks")
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    spans, counts = spans_mod.load(sorted(tmp_path.glob("*.jsonl")))
    assert [s.name for s in spans] == ["engine.chunk"]
    assert spans[0].parent == pool.id
    assert spans[0].op == "o3"
    assert spans[0].pid == pid
    assert counts == [("o3", "engine.chunks", 1.0)]


def test_dump_and_load_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.op("s0"), tracer.span("api.resolve"):
        tracer.add("index.builds")
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    spans, counts = spans_mod.load([path])
    assert [(s.name, s.op, s.start, s.end) for s in spans] == [
        (s.name, s.op, s.start, s.end) for s in tracer.spans
    ]
    assert counts == [("s0", "index.builds", 1.0)]


# -- per-layer roll-up -----------------------------------------------------


def test_layer_metrics_normalise_self_time_and_coverage():
    ms = 1e-3
    spans = [
        _span("r", layers.ROOT, 0.0, 10 * ms, op="o0"),
        _span("s", "engine.simulate", 1 * ms, 7 * ms, parent="r", op="o0"),
        _span("c", "index.recount", 7 * ms, 9 * ms, parent="r", op="o0"),
        _span("b", "index.build", 0.0, 4 * ms, op="s0"),
    ]
    counts = [("o0", "engine.worlds_simulated", 64.0),
              ("s0", "engine.worlds_simulated", 999.0)]
    out = layers.layer_metrics(
        spans, counts, {"o0": 2.0, "s0": 0.5}, ["s0"], ["o0"]
    )
    assert out["engine.simulate_ms"] == pytest.approx(12.0)
    assert out["index.recount_ms"] == pytest.approx(4.0)
    assert out["index.build_ms"] == pytest.approx(2.0)
    assert out["engine.worlds_simulated"] == 64.0
    # 2 of the root's 10 ms are explained by no layer.
    assert out["trace.coverage"] == pytest.approx(0.8)


def test_layer_metrics_charge_http_transport_to_the_client():
    ms = 1e-3
    spans = [
        _span("h", "gateway.handler", 1 * ms, 7 * ms, op="o0c0/0"),
        _span("g", "serve.gather", 2 * ms, 6 * ms, parent="h", op="o0c0/0"),
    ]
    out = layers.layer_metrics(
        spans, [], {"o0c0": 1.0}, [], ["o0c0"],
        client_walls={"o0c0/0": 10 * ms},
    )
    assert out["gateway.http_ms"] == pytest.approx(4.0)
    assert out["serve.gather_ms"] == pytest.approx(4.0)
    assert out["trace.coverage"] == pytest.approx(0.8)
