"""Unit tests for :mod:`repro.fingerprint` and the stale-cache fix.

Three layers:

* **digest semantics** — equal bytes/dtype/shape collide on purpose,
  any difference in value, precision, dimensions or presence
  separates; combination is insertion-order independent but
  name-aware;
* **session fingerprints** — a session holds read-only private
  copies of its arrays, so :meth:`AuditSession.dataset_fingerprint`
  is computed once per dataset state and in-place writes are refused;
* **stale-cache regression** — a service (or session) must never
  answer from caches built over other bytes: writing into the
  session's arrays raises, changing the caller's original arrays
  changes no report, and every report after a stream event is
  bit-identical to a fresh session over the new data.

Plus the stability goldens: the request hash and the dataset
fingerprint must never drift, or every persisted cache key, report id
and journalled ticket breaks.
"""

import numpy as np
import pytest

from repro import (
    AuditService,
    AuditSession,
    AuditSpec,
    RegionSpec,
)
from repro.fingerprint import (
    DIGEST_SIZE,
    array_fingerprint,
    combine_fingerprints,
    dataset_fingerprint,
)
from tests.conftest import N_WORLDS

#: The unit grid matching the ``unit_regions`` fixture's geometry.
UNIT_GRID = RegionSpec.grid(5, 5, bounds=(0.0, 0.0, 1.0, 1.0))


class TestArrayFingerprint:
    def test_copies_collide(self):
        a = np.arange(12.0).reshape(3, 4)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        assert len(array_fingerprint(a)) == 2 * DIGEST_SIZE

    def test_value_change_separates(self):
        a = np.arange(12.0)
        b = a.copy()
        b[7] += 1e-12
        assert array_fingerprint(a) != array_fingerprint(b)

    def test_dtype_separates(self):
        a = np.arange(4.0)
        assert array_fingerprint(a) != array_fingerprint(
            a.astype(np.float32)
        )

    def test_shape_separates_equal_bytes(self):
        a = np.arange(6.0)
        assert array_fingerprint(a) != array_fingerprint(
            a.reshape(2, 3)
        )

    def test_none_is_stable_and_distinct_from_empty(self):
        assert array_fingerprint(None) == array_fingerprint(None)
        assert array_fingerprint(None) != array_fingerprint(
            np.empty(0)
        )

    def test_non_contiguous_matches_contiguous_copy(self):
        a = np.arange(12.0).reshape(3, 4)
        t = a.T
        assert not t.flags["C_CONTIGUOUS"]
        assert array_fingerprint(t) == array_fingerprint(
            np.ascontiguousarray(t)
        )

    def test_lists_coerce_like_asarray(self):
        assert array_fingerprint([1.0, 2.0]) == array_fingerprint(
            np.asarray([1.0, 2.0])
        )


class TestCombineFingerprints:
    def test_insertion_order_irrelevant(self):
        assert combine_fingerprints(
            {"a": "x", "b": "y"}
        ) == combine_fingerprints({"b": "y", "a": "x"})

    def test_values_cannot_swap_names(self):
        assert combine_fingerprints(
            {"a": "x", "b": "y"}
        ) != combine_fingerprints({"a": "y", "b": "x"})

    def test_name_matters(self):
        assert combine_fingerprints({"a": "x"}) != combine_fingerprints(
            {"b": "x"}
        )


class TestDatasetFingerprint:
    def test_optional_arrays_and_n_classes_separate(self):
        rng = np.random.default_rng(0)
        coords = rng.random((50, 2))
        outcomes = (rng.random(50) < 0.5).astype(np.int8)
        base = dataset_fingerprint(coords, outcomes)
        assert base == dataset_fingerprint(coords, outcomes.copy())
        assert base != dataset_fingerprint(
            coords, outcomes, y_true=outcomes
        )
        assert base != dataset_fingerprint(
            coords, outcomes, n_classes=3
        )

    def test_session_method_matches_free_function(
        self, unit_coords, biased_labels
    ):
        session = AuditSession(unit_coords, biased_labels)
        assert session.dataset_fingerprint() == dataset_fingerprint(
            session.coords,
            session.outcomes,
            y_true=session.y_true,
            forecast=session.forecast,
            n_classes=session.n_classes,
        )

    def test_session_refuses_in_place_mutation(
        self, unit_coords, biased_labels
    ):
        outcomes = biased_labels.copy()
        session = AuditSession(unit_coords, outcomes)
        before = session.dataset_fingerprint()
        assert not np.shares_memory(session.outcomes, outcomes)
        with pytest.raises(ValueError, match="read-only"):
            session.outcomes[:] = 1 - session.outcomes
        with pytest.raises(AttributeError):
            session.outcomes = 1 - outcomes
        outcomes[:] = 1 - outcomes
        assert session.dataset_fingerprint() == before
        assert np.array_equal(session.outcomes, biased_labels)
        # A stream event is the one way to change the data.
        session.evict(np.arange(len(outcomes)) < 10)
        assert session.dataset_fingerprint() != before

    def test_equal_data_sessions_share(self, unit_coords, biased_labels):
        a = AuditSession(unit_coords, biased_labels)
        b = AuditSession(unit_coords.copy(), biased_labels.copy())
        assert a.dataset_fingerprint() == b.dataset_fingerprint()


class TestStaleCacheRegression:
    """A service/session must never answer from caches built over other
    bytes: the regression the fingerprints exist to prevent.  The
    session's arrays are read-only private copies, so the only way its
    dataset changes is a stream event, which every cache must see."""

    SPEC = AuditSpec(regions=UNIT_GRID, n_worlds=N_WORLDS, seed=3)

    #: The points each test evicts through the session.
    DROP = np.arange(600) < 60

    def test_service_report_tracks_mutated_dataset(
        self, unit_coords, biased_labels
    ):
        outcomes = biased_labels.copy()
        session = AuditSession(unit_coords, outcomes)
        service = AuditService(session)
        stale = service.run_batch([self.SPEC])[0]

        with pytest.raises(ValueError, match="read-only"):
            session.outcomes[:] = 1 - session.outcomes
        outcomes[:] = 1 - outcomes
        assert service.run_batch([self.SPEC])[0] is stale
        assert stale.to_dict(full=True) == (
            AuditSession(unit_coords, biased_labels)
            .run(self.SPEC)
            .to_dict(full=True)
        )

        session.evict(self.DROP)
        fresh_dict = (
            AuditSession(unit_coords[60:], biased_labels[60:])
            .run(self.SPEC)
            .to_dict(full=True)
        )
        again = service.run_batch([self.SPEC])[0]
        assert again is not stale
        assert again.to_dict(full=True) == fresh_dict
        assert service.stats()["report_cache_hits"] == 1

    def test_session_run_tracks_mutated_dataset(
        self, unit_coords, biased_labels
    ):
        outcomes = biased_labels.copy()
        session = AuditSession(unit_coords, outcomes)
        stale = session.run(self.SPEC)

        with pytest.raises(ValueError, match="read-only"):
            session.outcomes[:] = 1 - session.outcomes
        outcomes[:] = 1 - outcomes
        assert session.run(self.SPEC).to_dict(full=True) == (
            stale.to_dict(full=True)
        )

        session.evict(self.DROP)
        again = session.run(self.SPEC)
        fresh = AuditSession(
            unit_coords[60:], biased_labels[60:]
        ).run(self.SPEC)
        assert again.to_dict(full=True) == fresh.to_dict(full=True)
        assert again.to_dict(full=True) != stale.to_dict(full=True)

    def test_unchanged_dataset_still_hits_cache(
        self, unit_coords, biased_labels
    ):
        service = AuditService(
            AuditSession(unit_coords, biased_labels)
        )
        first = service.run_batch([self.SPEC])[0]
        again = service.run_batch([self.SPEC])[0]
        assert again is first
        assert service.stats()["report_cache_hits"] == 1

    def test_invalidate_targets_current_dataset(
        self, unit_coords, biased_labels
    ):
        outcomes = biased_labels.copy()
        session = AuditSession(unit_coords, outcomes)
        service = AuditService(session)
        service.run_batch([self.SPEC])
        # Changing the caller's array leaves the session's copy, and so
        # the cached entry's key, as they were.
        outcomes[:] = 1 - outcomes
        assert service.invalidate(self.SPEC) == 1
        service.run_batch([self.SPEC])
        session.evict(self.DROP)
        # The cached entry belongs to the *old* dataset contents, so a
        # targeted invalidate (keyed on the current data) cannot see
        # it; clearing everything still can.
        assert service.invalidate(self.SPEC) == 0
        assert service.invalidate() == 1


class TestDatasetFingerprintStability:
    def test_golden_value(self):
        coords = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]])
        outcomes = np.array([0, 1, 1], dtype=np.int8)
        session = AuditSession(coords, outcomes, n_classes=2)
        # Pinned: journalled tickets carry the dataset fingerprint, and
        # recovery refuses a ticket whose fingerprint no longer
        # matches, so the value must never drift between releases.
        golden = "8a2a9737011eff1c5a4096e05be1c24e"
        assert session.dataset_fingerprint() == golden
        assert dataset_fingerprint(coords, outcomes, n_classes=2) == golden


class TestSpecHashStability:
    def test_golden_value(self):
        spec = AuditSpec(
            regions=UNIT_GRID, n_worlds=N_WORLDS, seed=11
        )
        # Pinned: cache keys and report ids persist across processes,
        # so the request hash must never drift between releases.
        assert spec.spec_hash() == (
            "4334230dde1a8f4ebf7780ec5ac08fc63d3a80b8"
        )
