"""Durable service snapshots through the ResultCache envelope.

A snapshot payload (:meth:`~repro.serve.service.PredictionService.
snapshot_payload`) is ``{"schema": SNAPSHOT_SCHEMA, "sessions":
{session_id: blob}}``.  Each blob is the pickled
:meth:`~repro.serve.session.Session.state_dict` (spec JSON, predictor,
served count), encoded once by the owning shard at its snapshot
barrier.  Everything above the shard — the fleet worker's
``snap_part`` frames, the router, this module's envelope — moves blobs
as opaque ``bytes``; only a restoring shard decodes them.

Storage uses the exact machinery of :mod:`repro.parallel.cache`: the
SHA-256 key binds the snapshot label and package version, writes are
atomic renames, and loads re-verify schema/version/material — a
corrupted snapshot degrades to "not found" instead of feeding garbage
predictor state back into a service.  The payload ``schema`` is the
caller's to check: a stored payload of another schema loads as is.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.parallel.cache import ResultCache, content_key, key_material

#: Payload format: 2 = per-session pickled blobs (1 held live
#: predictor objects and is no longer read).
SNAPSHOT_SCHEMA = 2


def snapshot_key(label: str) -> Tuple[str, str]:
    """(hex key, material) addressing one labelled snapshot."""
    material = key_material("serve-snapshot", label)
    return content_key(material), material


def snapshot_path(root: str, label: str) -> str:
    """The file a labelled snapshot is stored in under ``root``."""
    return ResultCache(root).path(snapshot_key(label)[0])


def save_snapshot(root: str, label: str,
                  payload: Dict[str, object]) -> str:
    """Store a snapshot payload under ``root``; returns its hex key."""
    cache = ResultCache(root)
    key, material = snapshot_key(label)
    cache.store(key, material, payload)
    return key


def load_snapshot(root: str, label: str) -> Optional[Dict[str, object]]:
    """The stored payload, or None when absent/stale/corrupt."""
    cache = ResultCache(root)
    key, material = snapshot_key(label)
    hit, payload = cache.load(key, material)
    return payload if hit else None
