"""Content-addressed on-disk cache for simulation results and traces.

Every entry is addressed by the SHA-256 of its *key material*: a
canonical JSON rendering of the full job identity — runner kind, job
key, every parameter (trace profile, seed, uop budget, machine
configuration, ...), the :class:`~repro.experiments.harness.
ExperimentSettings` in force — prefixed with the cache schema number
and the package version.  Anything that could change a result changes
the key, so stale entries *miss* instead of loading:

* a different ``ExperimentSettings`` -> different material -> miss;
* a different package version -> different material -> miss;
* a corrupted / truncated pickle -> load error -> warning + miss
  (the caller falls back to re-simulation and overwrites the entry).

Entries are pickled envelopes ``{schema, version, material, payload}``;
the envelope fields are re-verified at load time as a belt-and-braces
check against files copied between incompatible cache directories.
Writes go through a temp file + ``os.replace`` so concurrent workers
never observe a half-written entry.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import warnings
from typing import Iterable, Mapping, Optional, Tuple

import repro

#: Bump when the job/result encoding changes incompatibly: every
#: pre-existing cache entry then misses by construction.
CACHE_SCHEMA = 1

#: Code-relevant version tag baked into every key.  Module-level (not
#: inlined) so tests can simulate a package upgrade.
PACKAGE_VERSION = repro.__version__


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid currently running?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - e.g. pid out of range
        return False
    return True


def canonical(obj: object) -> object:
    """Reduce ``obj`` to JSON-encodable primitives, stably.

    Dataclasses carry their qualified type name (two configs with equal
    fields but different classes must not collide); enums their type
    and value; mappings are key-sorted.  Unknown objects fall back to
    ``repr`` — acceptable because job parameters are plain data by
    convention.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__module__}.{type(obj).__qualname__}",
                "value": canonical(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonical(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"__dataclass__":
                f"{type(obj).__module__}.{type(obj).__qualname__}",
                "fields": fields}
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, Mapping):
        return {str(k): canonical(v) for k, v in sorted(obj.items(),
                                                        key=lambda kv:
                                                        str(kv[0]))}
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(canonical(x)) for x in obj)
    return {"__repr__": repr(obj)}


def key_material(*parts: object) -> str:
    """The canonical string hashed into a cache key.

    The schema number and package version are always prepended, so a
    code upgrade invalidates the whole cache without any file scanning.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "version": PACKAGE_VERSION,
        "parts": [canonical(p) for p in parts],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(material: str) -> str:
    """The hex cache address of ``material``."""
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def cache_key(job, settings) -> Tuple[str, str]:
    """(hex key, material) addressing one job's result under
    ``settings``."""
    material = key_material("job", job.kind, job.key, job.params, settings)
    return content_key(material), material


class ResultCache:
    """A directory of content-addressed pickle envelopes.

    Safe for concurrent use by multiple worker processes: reads of
    missing/garbled entries degrade to misses, and writes are atomic
    renames.  ``hits`` / ``misses`` / ``stores`` count this instance's
    traffic only (each worker holds its own instance).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Test hook: called with ``(point, path)`` at named points of
        #: the write protocol (currently ``"store:tmp-written"``,
        #: between the temp-file write and the atomic rename).  Chaos
        #: tests kill the process here to prove a mid-write death can
        #: never leave a half-written ``.pkl`` behind.
        self.fault_hook = None

    def path(self, key: str) -> str:
        """The envelope file of ``key``."""
        return os.path.join(self.root, key[:2], key + ".pkl")

    def load(self, key: str, material: str) -> Tuple[bool, object]:
        """``(True, payload)`` on a verified hit, ``(False, None)``
        otherwise."""
        path = self.path(key)
        if not os.path.exists(path):
            self.misses += 1
            return False, None
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError) as exc:
            warnings.warn(
                f"corrupted cache entry {path!r} ({exc!r}); "
                f"falling back to re-simulation", RuntimeWarning,
                stacklevel=2)
            self.misses += 1
            return False, None
        if (not isinstance(envelope, dict)
                or envelope.get("schema") != CACHE_SCHEMA
                or envelope.get("version") != PACKAGE_VERSION
                or envelope.get("material") != material):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, envelope.get("payload")

    def store(self, key: str, material: str, payload: object) -> None:
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        envelope = {
            "schema": CACHE_SCHEMA,
            "version": PACKAGE_VERSION,
            "material": material,
            "payload": payload,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            if self.fault_hook is not None:
                self.fault_hook("store:tmp-written", tmp)
            os.replace(tmp, path)
            self.stores += 1
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def sweep_stale_tmp(self) -> list:
        """Remove ``*.tmp.<pid>`` droppings of dead writer processes.

        A worker killed between its temp-file write and the atomic
        rename leaves the temp file behind (its ``finally`` never ran).
        The entry itself is intact-or-absent either way; this reclaims
        the disk.  Only files whose embedded pid is no longer alive are
        touched, so live concurrent writers are never raced.  Returns
        the removed paths.
        """
        removed = []
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                base, sep, pid_text = filename.rpartition(".tmp.")
                if not sep or not pid_text.isdigit():
                    continue
                if _pid_alive(int(pid_text)):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - racing removal
                    continue
                removed.append(path)
        return removed

    def stats(self) -> Mapping[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


# --------------------------------------------------------------------------
# Trace caching
# --------------------------------------------------------------------------

def trace_cache_key(profile, name: str, n_uops: int,
                    seed: int) -> Tuple[str, str]:
    """Cache address of one built trace (profile + identity + budget)."""
    material = key_material("trace", profile, name, n_uops, seed)
    return content_key(material), material


def load_or_build_trace(profile, n_uops: int, seed: int, name: str,
                        cache: Optional[ResultCache]):
    """Fetch a built trace from ``cache``, building (and storing) on
    miss.

    Building is deterministic in ``(profile, n_uops, seed)``, so the
    cached uop stream is identical to a fresh build — the cache only
    removes the rebuild cost in cold worker processes and across runs.
    """
    from repro.trace.builder import build_trace

    if cache is None:
        return build_trace(profile, n_uops=n_uops, seed=seed, name=name)
    key, material = trace_cache_key(profile, name, n_uops, seed)
    hit, trace = cache.load(key, material)
    if hit:
        return trace
    trace = build_trace(profile, n_uops=n_uops, seed=seed, name=name)
    cache.store(key, material, trace)
    return trace
