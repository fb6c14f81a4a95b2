"""Pluggable result-store backends behind one ``ResultStore`` protocol.

The run cache (DESIGN.md §4) and the service results database (§9)
grew as separate storage stacks; this module unifies them behind a
single backend protocol over content-addressed keys::

    get(key) / put(key, spec, result) / contains(key) / keys() / gc()

with three implementations, selected by a URI-style ``--cache-dir`` /
``--store`` value:

* :class:`LocalDirStore` (``file://…`` or a plain path) — the
  historical envelope directory, a thin subclass of
  :class:`~repro.harness.cache.RunCache` (which is itself registered
  as a virtual ``ResultStore`` so every existing call site already
  satisfies the protocol).
* :class:`ServiceStore` (``http://…``) — HTTP against the results
  daemon (:mod:`repro.service`), which persists the envelope AND the
  queryable database row on every put, so ``gc`` is store-wide.
* :class:`LayeredStore` (``layered:<local>,<remote>``) — read-through
  local→remote with envelope write-back, so a fleet of hosts shares
  one remote store while hot keys are served from local disk.

Stores replicate *envelopes* (the cache's wire format) rather than
re-encoding results: ``json.dump(json.load(x))`` round-trips bytes,
so a key's file is identical on every host that holds it — the
byte-identity invariant the distributed-smoke CI job asserts.

The second half of the module is the work-claiming layer used by
distributed sweeps (:func:`repro.harness.pool.execute_sweep` with a
``claimer``): :class:`WorkClaimer` wraps the exactly-one-winner
``claim`` / ``release`` primitives of
:class:`repro.service.database.ResultsDatabase` (PR 7) either
directly (:class:`DatabaseClaimer`, shared SQLite file) or over HTTP
(:class:`ServiceClaimer`).  Multiple hosts pointing at one store
partition a sweep with no coordination beyond these two calls.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence

from repro.harness import cache as run_cache
from repro.harness.cache import GCReport, RunCache
from repro.harness.spec import RunSpec
from repro.cpu.result import RunResult


class ResultStore(abc.ABC):
    """Backend protocol for content-addressed run results.

    Keys are :func:`repro.harness.cache.cache_key` hex digests; the
    unit of storage is the envelope (schema / key / fingerprint /
    spec payload / result).  Implementations must treat any decode
    failure as a miss, never an error: a store is a cache, and the
    runner can always recompute.
    """

    #: URL scheme this backend answers to ("file", "http", "layered").
    scheme: str = ""
    #: Canonical URL that reopens this store via :func:`open_store`.
    url: str = ""

    @abc.abstractmethod
    def get(self, key: str) -> Optional[RunResult]:
        """The stored result for ``key``, or None."""

    @abc.abstractmethod
    def put(self, key: str, spec: RunSpec, result: RunResult) -> str:
        """Persist ``result`` under ``key``; returns a location hint
        (file path or URL) for provenance records."""

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        """Whether ``key`` is present (no result decode)."""

    @abc.abstractmethod
    def keys(self) -> List[str]:
        """Every stored key, sorted."""

    @abc.abstractmethod
    def gc(self, fingerprint: Optional[str] = None,
           dry_run: bool = False) -> GCReport:
        """Prune entries stale against the current code fingerprint."""

    def get_envelope(self, key: str) -> Optional[Dict]:
        """The raw envelope for ``key`` — optional; layered write-back
        degrades to a plain miss when a backend cannot serve it."""
        return None


# The historical envelope directory IS the reference implementation;
# registering it keeps isinstance() checks honest without making
# harness.cache depend on this module.
ResultStore.register(RunCache)


class LocalDirStore(RunCache):
    """The envelope directory, addressable as ``file://<root>``.

    Identical to :class:`RunCache` (it *is* one); the subclass exists
    so URI-configured stores round-trip through :func:`open_store`
    and expose the protocol's ``url`` attribute.
    """

    scheme = "file"

    @property
    def url(self) -> str:  # type: ignore[override]
        return f"file://{self.root}"


class ServiceStore(ResultStore):
    """Results-daemon-backed store (``http://host:port``).

    ``put`` ships the spec payload and encoded result to the daemon,
    which recomputes the cache key from its own sources (rejecting
    the write on mismatch — two hosts with different code must never
    cross-pollinate a store) and records both the envelope and the
    queryable database row.  ``gc`` is therefore store-wide on the
    server: envelopes and rows are swept together (the historical
    ``cache gc`` bug pruned only envelopes).

    Transport errors propagate as
    :class:`repro.service.client.ServiceError` after the client's
    bounded retries; a 404 is a miss.
    """

    scheme = "http"

    def __init__(self, base_url: str, client=None, timeout_s: float = 60.0):
        from repro.service.client import ServiceClient
        self.url = base_url.rstrip("/")
        self.client = client or ServiceClient(self.url, timeout_s=timeout_s)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, key: str) -> Optional[RunResult]:
        envelope = self.get_envelope(key)
        if envelope is None:
            self.misses += 1
            return None
        try:
            result = run_cache.result_from_json(envelope["result"])
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def get_envelope(self, key: str) -> Optional[Dict]:
        envelope = self.client.get_result(key)
        if not isinstance(envelope, dict) \
                or envelope.get("schema") != run_cache.SCHEMA_VERSION:
            return None
        return envelope

    def put(self, key: str, spec: RunSpec, result: RunResult) -> str:
        self.client.put_result(key, spec.key_payload(),
                               run_cache.result_to_json(result))
        self.stores += 1
        return f"{self.url}/api/v1/store/envelope/{key}"

    def contains(self, key: str) -> bool:
        return self.client.store_contains(key)

    def keys(self) -> List[str]:
        return sorted(self.client.store_keys())

    def gc(self, fingerprint: Optional[str] = None,
           dry_run: bool = False) -> GCReport:
        report = self.client.store_gc(dry_run=dry_run)
        merged = report.get("envelopes", {})
        rows = report.get("rows", {})
        stale = [tuple(entry) for entry in merged.get("stale", [])]
        stale += [tuple(entry) for entry in rows.get("stale", [])]
        return GCReport(stale=stale,
                        kept=merged.get("kept", 0) + rows.get("kept", 0),
                        removed=(merged.get("removed", 0)
                                 + rows.get("removed", 0)))


class LayeredStore(ResultStore):
    """Read-through local→remote with envelope write-back.

    ``get`` serves from local when possible; a remote hit is copied
    back into the local directory (verbatim envelope replication, so
    local and remote files stay byte-identical) before returning.
    ``put`` is write-through: local first — the envelope must be
    durable before any peer can observe the key — then remote.
    ``clear`` only ever touches the local layer: a shared remote
    store is never wiped by one host's cache reset.
    """

    scheme = "layered"

    def __init__(self, local: ResultStore, remote: ResultStore):
        self.local = local
        self.remote = remote
        self.url = f"layered:{store_url(local)},{store_url(remote)}"
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, key: str) -> Optional[RunResult]:
        result = self.local.get(key)
        if result is not None:
            self.hits += 1
            return result
        envelope = self.remote.get_envelope(key)
        if envelope is None:
            self.misses += 1
            return None
        try:
            result = run_cache.result_from_json(envelope["result"])
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        put_back = getattr(self.local, "put_envelope", None)
        if put_back is not None:
            try:
                put_back(key, envelope)
            except (OSError, ValueError):
                pass  # write-back is an optimization, never a failure
        self.hits += 1
        return result

    def get_envelope(self, key: str) -> Optional[Dict]:
        envelope = self.local.get_envelope(key)
        if envelope is not None:
            return envelope
        return self.remote.get_envelope(key)

    def put(self, key: str, spec: RunSpec, result: RunResult) -> str:
        location = self.local.put(key, spec, result)
        self.remote.put(key, spec, result)
        self.stores += 1
        return location

    def contains(self, key: str) -> bool:
        return self.local.contains(key) or self.remote.contains(key)

    def keys(self) -> List[str]:
        merged = dict.fromkeys(self.local.keys())
        merged.update(dict.fromkeys(self.remote.keys()))
        return sorted(merged)

    def gc(self, fingerprint: Optional[str] = None,
           dry_run: bool = False) -> GCReport:
        local = self.local.gc(fingerprint=fingerprint, dry_run=dry_run)
        remote = self.remote.gc(fingerprint=fingerprint, dry_run=dry_run)
        return GCReport(stale=list(local.stale) + list(remote.stale),
                        kept=local.kept + remote.kept,
                        removed=local.removed + remote.removed)

    def clear(self) -> int:
        """Clear the LOCAL layer only; the shared remote is not ours
        to wipe."""
        clear = getattr(self.local, "clear", None)
        return clear() if callable(clear) else 0

    def path_for(self, key: str) -> Optional[str]:
        """Local envelope path (provenance hint), if the local layer
        is a directory store."""
        path_for = getattr(self.local, "path_for", None)
        return path_for(key) if callable(path_for) else None


def store_url(store) -> Optional[str]:
    """The canonical URL that reopens ``store`` (None when unknown).

    Plain :class:`RunCache` instances predate URLs; their directory
    root is the address.
    """
    if store is None:
        return None
    url = getattr(store, "url", "")
    if url:
        return url
    root = getattr(store, "root", None)
    return f"file://{root}" if root else None


def is_store_url(text: Optional[str]) -> bool:
    """Whether a ``--cache-dir`` / ``--store`` value needs URL parsing
    (plain directory paths keep the historical fast path)."""
    return bool(text) and ("://" in text or text.startswith("layered:"))


def open_store(url: Optional[str] = None) -> ResultStore:
    """Open a result store from a URI-style address (or plain path).

    * ``None`` / plain path / ``file://<dir>`` → :class:`LocalDirStore`
    * ``http://…`` / ``https://…`` → :class:`ServiceStore`
    * ``layered:<local>,<remote>`` → :class:`LayeredStore`; the local
      part may be omitted (``layered:http://…``) to mean the default
      cache directory.
    """
    if url is None:
        return LocalDirStore(None)
    if url.startswith("layered:"):
        body = url[len("layered:"):]
        if not body:
            raise ValueError(
                "layered store needs a remote: layered:<local>,<remote> "
                "or layered:<remote-url>")
        local_part: Optional[str] = None
        remote_part = body
        # The remote URL itself contains no comma, so the LAST comma
        # separates the layers.
        if "," in body:
            local_part, remote_part = body.rsplit(",", 1)
        remote = open_store(remote_part)
        if isinstance(remote, LayeredStore):
            raise ValueError("layered stores do not nest")
        local = open_store(local_part)
        if not isinstance(local, RunCache):
            raise ValueError(
                f"layered store's local layer must be a directory, "
                f"got {local_part!r}")
        return LayeredStore(local, remote)
    if url.startswith("file://"):
        return LocalDirStore(url[len("file://"):] or None)
    if url.startswith("http://") or url.startswith("https://"):
        return ServiceStore(url)
    if "://" in url:
        scheme = url.split("://", 1)[0]
        raise ValueError(
            f"unknown store scheme {scheme!r} "
            f"(expected file://, http(s)://, or layered:)")
    return LocalDirStore(url)


# ----------------------------------------------------------------------
# Work claiming: the distributed sweep's only coordination primitive
# ----------------------------------------------------------------------

class WorkClaimer(abc.ABC):
    """Exactly-one-winner claim protocol for sweep partitioning.

    ``claim_many`` atomically claims a chunk of specs; exactly one
    racing claimer wins each key (the PR 7 ``INSERT OR IGNORE``
    invariant).  The winner computes, persists the envelope, then
    calls :meth:`done`; losers poll the shared store for the key.  A
    claim whose owner died is stealable after ``steal_stale_s`` of
    inactivity — staleness is judged by the database clock, so hosts
    need not agree on wall time.
    """

    @abc.abstractmethod
    def claim_many(self, specs: Sequence[RunSpec],
                   keys: Sequence[str]) -> List[bool]:
        """One win/lose flag per spec, claimed in one atomic batch."""

    @abc.abstractmethod
    def release(self, key: str) -> None:
        """Give up a claim without a result (worker failed)."""

    def done(self, spec: RunSpec, result: RunResult, key: str,
             envelope_path: Optional[str] = None) -> None:
        """Mark a claimed key complete (after the envelope is durable)."""

    def claim(self, spec: RunSpec, key: str) -> bool:
        return self.claim_many([spec], [key])[0]


class DatabaseClaimer(WorkClaimer):
    """Claims against a shared ``ResultsDatabase`` SQLite file.

    The cheapest fleet deployment: every host mounts the same
    directory, points ``--store`` at it and ``--db`` at one SQLite
    file; the database's FileLock serializes claim batches.
    """

    def __init__(self, database, owner: Optional[str] = None,
                 steal_stale_s: Optional[float] = None):
        from repro.service.database import ResultsDatabase
        if isinstance(database, str):
            database = ResultsDatabase(database)
        self.db = database
        self.owner = owner
        self.steal_stale_s = steal_stale_s

    def claim_many(self, specs: Sequence[RunSpec],
                   keys: Sequence[str]) -> List[bool]:
        return self.db.claim_many(specs, owner=self.owner, keys=keys,
                                  steal_stale_s=self.steal_stale_s)

    def release(self, key: str) -> None:
        self.db.release(key)

    def done(self, spec: RunSpec, result: RunResult, key: str,
             envelope_path: Optional[str] = None) -> None:
        self.db.record(spec, result, key=key,
                       envelope_path=envelope_path, owner=self.owner)


class ServiceClaimer(WorkClaimer):
    """Claims over HTTP against the results daemon.

    Pairs with :class:`ServiceStore` / :class:`LayeredStore`: the
    store's ``put`` already records the database row server-side, so
    :meth:`done` is a no-op here.
    """

    def __init__(self, store_or_url, owner: Optional[str] = None,
                 steal_stale_s: Optional[float] = None):
        client = getattr(store_or_url, "client", None)
        if client is None:
            remote = getattr(store_or_url, "remote", None)
            client = getattr(remote, "client", None)
        if client is None:
            from repro.service.client import ServiceClient
            client = ServiceClient(str(store_or_url))
        self.client = client
        self.owner = owner
        self.steal_stale_s = steal_stale_s

    def claim_many(self, specs: Sequence[RunSpec],
                   keys: Sequence[str]) -> List[bool]:
        payloads = [spec.key_payload() for spec in specs]
        return self.client.claim(payloads, owner=self.owner,
                                 steal_stale_s=self.steal_stale_s)

    def release(self, key: str) -> None:
        self.client.release(key)
