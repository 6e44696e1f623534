"""Perf: adaptive world budgets — sequential stopping vs fixed.

The production question behind :mod:`repro.budget`: when a batch of
audits is clearly decided (the observed maximum either beats every
null world or lands deep inside the bulk), how many of the fixed
budget's worlds were wasted?  This benchmark runs the same fused
6-spec LAR batch as ``test_perf_serve.py`` twice:

* **fixed** — ``budget='fixed'``: the group simulates all
  ``N_WORLDS`` worlds, today's bit-identical baseline;
* **adaptive** — ``budget='adaptive'``: progressive rounds (128
  worlds, then 2x), each spec's segment stopping as soon as the
  Besag-Clifford / Clopper-Pearson rule settles its verdict.

Run at ``alpha=0.05`` (the adaptive story needs a reachable
threshold: at ``alpha=0.005`` the k=0 Clopper-Pearson upper bound
only clears alpha after ~1060 worlds, so a 1024-world budget never
stops early — see the golden tests in ``tests/test_adaptive.py``).

The test prints its numbers (field glossary in EXPERIMENTS.md).
Asserted unconditionally:
adaptive verdicts match fixed verdicts spec-for-spec, and adaptive
simulates >= 3x fewer worlds — a deterministic count immune to
machine noise.  Wall-clock is asserted only under ``BENCH_STRICT=1``.
"""

import os
import time

from repro import AuditService, AuditSession, AuditSpec, RegionSpec

#: The fused LAR batch of ``test_perf_serve.py``, at an adaptive
#: friendly significance level.
N_WORLDS = 1024
SEED = 29
ALPHA = 0.05


def _specs(budget: str) -> list:
    return [
        AuditSpec(regions=RegionSpec.grid(50, 25), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED, budget=budget),
        AuditSpec(regions=RegionSpec.grid(25, 12), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED, budget=budget),
        AuditSpec(regions=RegionSpec.grid(40, 20), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED, budget=budget),
        AuditSpec(regions=RegionSpec.grid(50, 25), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED, budget=budget,
                  correction="fdr-bh"),
        AuditSpec(regions=RegionSpec.squares(60, centers_seed=0),
                  n_worlds=N_WORLDS, alpha=ALPHA, seed=SEED,
                  budget=budget),
        AuditSpec(regions=RegionSpec.grid(10, 10), n_worlds=N_WORLDS,
                  alpha=ALPHA, seed=SEED, budget=budget),
    ]


def _run_fused(lar, budget: str):
    specs = _specs(budget)
    session = AuditSession(lar.coords, lar.y_pred)
    for spec in specs:
        session.resolve(spec)  # prebuild indexes outside the timing
    service = AuditService(session)
    t0 = time.perf_counter()
    reports = service.run_batch(specs)
    seconds = time.perf_counter() - t0
    assert service.stats()["fused_groups"] == 1
    return reports, seconds, session.worlds_simulated


def test_perf_adaptive(lar):
    fixed, t_fixed, worlds_fixed = _run_fused(lar, "fixed")
    adaptive, t_adaptive, worlds_adaptive = _run_fused(lar, "adaptive")

    verdicts_fixed = [r.result.is_fair for r in fixed]
    verdicts_adaptive = [r.result.is_fair for r in adaptive]
    per_spec_worlds = [r.result.n_worlds for r in adaptive]
    worlds_ratio = worlds_fixed / max(worlds_adaptive, 1)
    table = {
        "adaptive_fixed_worlds_simulated": worlds_fixed,
        "adaptive_worlds_simulated": worlds_adaptive,
        "adaptive_worlds_ratio": round(worlds_ratio, 2),
        "adaptive_speedup": round(t_fixed / t_adaptive, 3),
        "adaptive_per_spec_worlds": per_spec_worlds,
        "adaptive_verdicts_match_fixed": (
            verdicts_fixed == verdicts_adaptive
        ),
    }
    print("\n=== Adaptive budget perf ===")
    for key, value in table.items():
        print(f"{key}: {value}")

    # World counts and verdicts are deterministic — asserted
    # everywhere, any machine.
    assert verdicts_fixed == verdicts_adaptive
    assert worlds_fixed == N_WORLDS
    assert worlds_ratio >= 3.0
    assert all(n <= N_WORLDS for n in per_spec_worlds)
    # Wall-clock is machine-dependent; opt in like the engine bench.
    if os.environ.get("BENCH_STRICT") == "1":
        assert t_fixed / t_adaptive >= 2.0
