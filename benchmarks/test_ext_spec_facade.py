"""Extension: the declarative façade on the LAR workload.

Drives a LAR partition audit through the :class:`repro.AuditSession`
front door and verifies its two promises at benchmark scale:

* **fidelity** — a spec that round-trips through JSON, as a served
  request does, reproduces the direct spec's findings bit for bit;
* **reuse** — a batch of requests over the same region design builds
  the membership index once, so the marginal audit costs a
  simulation, not a rebuild.
"""

import time
from dataclasses import replace

from conftest import ALPHA, N_WORLDS, report

import repro


def test_facade_survives_the_wire_and_reuses_index(benchmark, lar):
    grid = repro.RegionSpec.grid(50, 25)
    base = repro.AuditSpec(
        regions=grid, n_worlds=N_WORLDS, alpha=ALPHA, seed=1
    )
    batch = [
        base,
        replace(base, direction="lower"),
        replace(base, direction="higher"),
        base,  # repeated design: reuses the membership index
    ]

    def run():
        session = repro.AuditSession(lar.coords, lar.y_pred)
        t0 = time.perf_counter()
        first = session.run(repro.AuditSpec.from_json(base.to_json()))
        t_first = time.perf_counter() - t0
        t0 = time.perf_counter()
        reports = session.run_many(batch)
        t_batch = time.perf_counter() - t0
        return session, first, reports, t_first, t_batch

    session, first, reports, t_first, t_batch = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # The wired spec and the batch's direct one agree bit for bit.
    assert first.result == reports[0].result

    # One membership build serves the JSON-round-tripped run plus the
    # whole batch.
    assert session.index_builds == 1

    report(
        "Extension: declarative façade (LAR, 50x25 grid)",
        [
            ("membership builds for 5 audits", "1",
             str(session.index_builds)),
            ("first audit (build + simulate)", "-", f"{t_first:.2f}s"),
            ("4-spec batch over shared index", "-", f"{t_batch:.2f}s"),
            ("verdict", "unfair",
             "unfair" if not first.is_fair else "fair"),
        ],
    )
