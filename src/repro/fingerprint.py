"""Fast content fingerprints for dataset arrays and cache keys.

A spec hash (:meth:`repro.spec.AuditSpec.spec_hash`) identifies the
*request*; it says nothing about the *data* the request ran against.
A report cache keyed on the spec hash alone therefore serves stale
reports the moment the dataset changes underneath it — a service
re-pointed at new data, a session whose arrays were mutated in place,
or a cache shared across processes holding different datasets.

This module closes that hole with content fingerprints: BLAKE2b
digests over an array's raw bytes together with its dtype and shape
(the umash-style "hash the bytes, fast" discipline — BLAKE2b because
it ships in :mod:`hashlib` and streams at memory bandwidth for the
array sizes audits carry).  :meth:`repro.api.AuditSession` exposes its
dataset's combined digest as
:meth:`~repro.api.AuditSession.dataset_fingerprint` and folds it into
every session cache key, and :class:`repro.serve.AuditService` folds
the fingerprints of each spec's measured slice into its report cache
key — a swapped or mutated dataset misses by construction.

Fingerprints are *content* hashes: two arrays with equal bytes, dtype
and shape collide on purpose (that is the cache-sharing feature), and
any difference in value, dtype or shape separates them.

When hashing happens: once on entry to each public call that reads or
changes the dataset (``AuditSession.append``/``evict``/``resolve``/
``run``/``run_many``, ``AuditService.gather``/``plan``), so an
in-place mutation made between calls is always seen.  Inside
``AuditService.advance`` the dataset is hashed once on entry and once
per new state (after the append, after the eviction); the gather that
follows reuses the last fingerprint.  A measured slice that *is* the
session's own arrays (``statistical_parity``), and a Poisson spec's
forecast, reuse the digests that fingerprint took; any other slice is
hashed once, however many watched specs read it.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "DIGEST_SIZE",
    "array_fingerprint",
    "combine_fingerprints",
    "dataset_fingerprint",
]

#: BLAKE2b digest size in bytes (16 -> 32 hex characters), plenty for
#: cache partitioning while keeping keys short.
DIGEST_SIZE = 16

#: Domain tag hashed in place of an absent (``None``) array, so
#: ``(a, None)`` and ``(a, empty)`` cannot collide.
_NONE_TAG = b"repro:none"


def array_fingerprint(arr) -> str:
    """Content fingerprint of one array (hex BLAKE2b).

    The digest covers the array's dtype, shape and raw bytes, so any
    change in values, precision or dimensions changes the
    fingerprint.  ``None`` is accepted (optional session arrays) and
    maps to a fixed, distinct digest.  Non-contiguous inputs are
    copied to C order first; lists and scalars are coerced through
    :func:`numpy.asarray`.

    Parameters
    ----------
    arr : array_like or None

    Returns
    -------
    str
        Hex digest of :data:`DIGEST_SIZE` bytes.

    Examples
    --------
    >>> import numpy as np
    >>> a = np.arange(4.0)
    >>> array_fingerprint(a) == array_fingerprint(a.copy())
    True
    >>> array_fingerprint(a) == array_fingerprint(a.astype(np.float32))
    False
    """
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    if arr is None:
        h.update(_NONE_TAG)
        return h.hexdigest()
    a = np.ascontiguousarray(arr)
    h.update(str(a.dtype).encode("ascii"))
    h.update(str(a.shape).encode("ascii"))
    h.update(a.view(np.uint8) if a.dtype == object else a)
    return h.hexdigest()


def combine_fingerprints(parts: dict) -> str:
    """One digest over several named fingerprints (hex BLAKE2b).

    Parameters are hashed in sorted-name order, each as
    ``name=value``, so the combination is independent of dict
    insertion order and a value can never masquerade under another
    name.

    Parameters
    ----------
    parts : dict of str -> str
        Component digests (or any stable strings) by name.

    Returns
    -------
    str
    """
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for name in sorted(parts):
        h.update(f"{name}={parts[name]};".encode("utf-8"))
    return h.hexdigest()


def dataset_fingerprint(
    coords,
    outcomes,
    y_true=None,
    forecast=None,
    n_classes: int | None = None,
    *,
    digests: dict | None = None,
) -> str:
    """Combined content fingerprint of one audit dataset.

    Covers every array (and scalar) that shapes audit results:
    coordinates, outcomes, optional ground truth and forecast, and
    the multinomial class count.  Two sessions with equal data share
    a fingerprint (their cached reports are interchangeable); any
    difference separates them.

    Parameters
    ----------
    coords, outcomes, y_true, forecast, n_classes
        As in :class:`repro.api.AuditSession`.
    digests : dict, optional
        Filled with each array's :func:`array_fingerprint` by name
        (``"coords"``, ``"outcomes"``, ``"y_true"``, ``"forecast"``),
        so a caller can reuse them without hashing the arrays again.

    Returns
    -------
    str
    """
    parts = {
        "coords": array_fingerprint(coords),
        "outcomes": array_fingerprint(outcomes),
        "y_true": array_fingerprint(y_true),
        "forecast": array_fingerprint(forecast),
    }
    if digests is not None:
        digests.update(parts)
    parts["n_classes"] = "none" if n_classes is None else str(int(n_classes))
    return combine_fingerprints(parts)

