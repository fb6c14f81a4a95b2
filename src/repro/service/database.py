"""Concurrency-safe SQLite results store for the simulation service.

The content-addressed run cache (:mod:`repro.harness.cache`) already
holds every result as a JSON envelope, but it answers exactly one
question — "is this key done?" — by hashing a fully-formed spec.  The
service needs the inverse queries: *which* runs exist for a scenario,
a mechanism, a DRAM standard; which submissions are still in flight;
which client owns them.  :class:`ResultsDatabase` indexes the
envelopes by their cache key plus the spec payload fields that clients
filter on, so dashboards and CI fleets query in milliseconds without
ever parsing an envelope.

Concurrency model (DESIGN.md section 9):

* **Readers never lock.**  Every read opens a fresh SQLite connection
  and sees a consistent snapshot; rows are only ever inserted or
  monotonically promoted (``pending`` -> ``done``), never mutated into
  inconsistency.
* **Writers take one advisory file lock**
  (:class:`~repro.service.locking.FileLock` on ``<db>.lock``) around
  the whole transaction.  SQLite alone would serialize the SQL, but
  the lock also covers the *compound* invariants — claim-then-simulate
  (:meth:`claim` must admit exactly one winner per key across
  processes) and envelope-then-row ordering on :meth:`record`.
* **Lock ordering**: the JSON envelope is written *before* the
  database row that advertises it.  A row with ``status='done'``
  therefore always points at a complete, fsync-hardened envelope; a
  crash between the two leaves an envelope without a row, which the
  backfill (:meth:`import_run_cache`) repairs idempotently.

The store is deliberately insert-only from the service's perspective;
:meth:`release` (undo a claim after a failed run) and
:meth:`forget` are the only deletes.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.result import RunResult
from repro.harness import cache as run_cache
from repro.harness.cache import RunCache
from repro.harness.spec import RunSpec, spec_from_payload
from repro.service.locking import FileLock

#: Bump when the table layout changes; mismatched stores refuse to
#: open rather than mis-read (the data is rebuildable from the cache
#: directory via ``import_run_cache``).
DB_SCHEMA_VERSION = 1

#: Spec-payload fields surfaced as queryable columns, in table order.
QUERY_FIELDS = ("kind", "name", "scenario", "mechanism", "standard",
                "engine", "seed")

#: Result metrics denormalized into the row for query-time filtering
#: and table rendering without opening the envelope.
METRIC_FIELDS = ("total_ipc", "row_hit_rate", "mechanism_hit_rate",
                 "mem_cycles", "activations")

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    cache_key          TEXT PRIMARY KEY,
    kind               TEXT NOT NULL,
    name               TEXT NOT NULL,
    scenario           TEXT,
    mechanism          TEXT NOT NULL,
    standard           TEXT NOT NULL,
    engine             TEXT NOT NULL,
    seed               INTEGER NOT NULL,
    spec_json          TEXT NOT NULL,
    fingerprint        TEXT NOT NULL,
    result_schema      INTEGER NOT NULL,
    status             TEXT NOT NULL,
    owner              TEXT,
    total_ipc          REAL,
    row_hit_rate       REAL,
    mechanism_hit_rate REAL,
    mem_cycles         INTEGER,
    activations        INTEGER,
    envelope_path      TEXT,
    created_at         REAL NOT NULL,
    updated_at         REAL NOT NULL
)
"""

_INDEX_SQL = (
    "CREATE INDEX IF NOT EXISTS idx_runs_scenario ON runs(scenario)",
    "CREATE INDEX IF NOT EXISTS idx_runs_mechanism ON runs(mechanism)",
    "CREATE INDEX IF NOT EXISTS idx_runs_standard ON runs(standard)",
    "CREATE INDEX IF NOT EXISTS idx_runs_status ON runs(status)",
)


def spec_standard(spec: RunSpec) -> str:
    """The DRAM standard ``spec`` resolves to (a queryable axis).

    Scenario runs carry it in the scenario registry; the paper's fixed
    single/eight/alone platforms are all DDR3-1600.
    """
    if spec.kind == "scenario":
        from repro.harness import scenarios
        return scenarios.scenario(spec.scenario).standard
    return "DDR3-1600"


def _metrics_for(result: RunResult) -> Dict[str, float]:
    return {
        "total_ipc": result.total_ipc,
        "row_hit_rate": result.row_hit_rate,
        "mechanism_hit_rate": result.mechanism_hit_rate,
        "mem_cycles": result.mem_cycles,
        "activations": result.activations,
    }


def build_run_table(rows: Sequence[Dict],
                    columns: Optional[Sequence[str]] = None
                    ) -> Tuple[List[Dict], List[Dict]]:
    """DataTable-style (columns, rows) for a query result set.

    ``columns`` defaults to the queryable spec fields plus the
    denormalized metrics; each column is ``{"name", "id"}`` and each
    row a plain dict keyed by column id — the shape dashboards and the
    CLI's table renderer both consume directly.
    """
    if columns is None:
        columns = list(QUERY_FIELDS) + ["status"] + list(METRIC_FIELDS)
    cols = [{"name": c.replace("_", " "), "id": c} for c in columns]
    out = [{c: row.get(c) for c in columns} for row in rows]
    return cols, out


class ResultsDatabase:
    """One SQLite file of indexed run rows, safe for many processes.

    All writes funnel through :meth:`_write`, which takes the advisory
    file lock, opens a fresh connection, runs the mutation and commits
    — so a row is either fully present or absent, never half-written,
    and compound claim/record invariants hold across processes.
    """

    def __init__(self, path: str, lock_timeout_s: float = 30.0):
        self.path = os.path.abspath(path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self.lock = FileLock(self.path + ".lock",
                             timeout_s=lock_timeout_s)
        with self.lock:
            conn = self._connect()
            try:
                conn.execute(_TABLE_SQL)
                for sql in _INDEX_SQL:
                    conn.execute(sql)
                cur = conn.execute("PRAGMA user_version").fetchone()
                version = cur[0]
                if version == 0:
                    conn.execute(
                        f"PRAGMA user_version = {DB_SCHEMA_VERSION}")
                elif version != DB_SCHEMA_VERSION:
                    raise ValueError(
                        f"results database {self.path!r} has schema "
                        f"{version}, this code expects "
                        f"{DB_SCHEMA_VERSION}; rebuild it with "
                        "import_run_cache from the cache directory")
                conn.commit()
            finally:
                conn.close()

    # -- connections ---------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=self.lock.timeout_s)
        conn.row_factory = sqlite3.Row
        return conn

    def _write(self, fn):
        """Run ``fn(conn)`` under the file lock in one transaction."""
        with self.lock:
            conn = self._connect()
            try:
                out = fn(conn)
                conn.commit()
                return out
            finally:
                conn.close()

    # -- row construction ----------------------------------------------

    def _spec_columns(self, spec: RunSpec) -> Dict:
        payload = spec.key_payload()
        return {
            "kind": payload["kind"],
            "name": payload["name"],
            "scenario": payload["scenario"],
            "mechanism": payload["mechanism"],
            "standard": spec_standard(spec),
            "engine": payload["engine"],
            "seed": payload["seed"],
            "spec_json": json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")),
        }

    # -- writes --------------------------------------------------------

    def claim(self, spec: RunSpec, owner: Optional[str] = None,
              key: Optional[str] = None,
              steal_stale_s: Optional[float] = None) -> bool:
        """Atomically claim ``spec`` for computation.

        Inserts a ``pending`` row; returns True iff *this* call
        created it — across any number of racing processes exactly one
        caller wins and should simulate, everyone else should wait for
        the row to turn ``done`` (or for the envelope to appear).  A
        key that is already ``done`` is never re-claimed.

        ``steal_stale_s`` lets a claim *steal* a pending row whose
        ``updated_at`` is older than that many seconds — the recovery
        path for claims stranded by a dead worker.  Staleness is
        judged against this host's clock writing to the shared file;
        workers touch rows only at claim/record time, so any value
        comfortably above one chunk's runtime is safe.
        """
        keys = [key] if key is not None else None
        return self.claim_many([spec], owner=owner, keys=keys,
                               steal_stale_s=steal_stale_s)[0]

    def claim_many(self, specs: Sequence[RunSpec],
                   owner: Optional[str] = None,
                   keys: Optional[Sequence[str]] = None,
                   steal_stale_s: Optional[float] = None) -> List[bool]:
        """Claim a chunk of specs in ONE locked transaction.

        Returns one win/lose flag per spec.  Racing processes
        serialize on the file lock, so for every key exactly one
        process across the fleet sees True — the work-stealing
        primitive distributed sweeps partition on.  See :meth:`claim`
        for ``steal_stale_s``.
        """
        if keys is None:
            keys = [run_cache.cache_key(spec) for spec in specs]
        cols = [self._spec_columns(spec) for spec in specs]
        fingerprint = run_cache.code_fingerprint()
        now = time.time()  # repro: allow(determinism) -- row timestamp, not result data

        def txn(conn: sqlite3.Connection) -> List[bool]:
            wins = []
            for spec_key, col in zip(keys, cols):
                cur = conn.execute(
                    "INSERT OR IGNORE INTO runs (cache_key, kind, "
                    "name, scenario, mechanism, standard, engine, "
                    "seed, spec_json, fingerprint, result_schema, "
                    "status, owner, created_at, updated_at) VALUES "
                    "(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    (spec_key, col["kind"], col["name"],
                     col["scenario"], col["mechanism"], col["standard"],
                     col["engine"], col["seed"], col["spec_json"],
                     fingerprint, run_cache.SCHEMA_VERSION, "pending",
                     owner, now, now))
                won = cur.rowcount == 1
                if not won and steal_stale_s is not None:
                    cur = conn.execute(
                        "UPDATE runs SET owner = ?, updated_at = ? "
                        "WHERE cache_key = ? AND status = 'pending' "
                        "AND updated_at <= ?",
                        (owner, now, spec_key, now - steal_stale_s))
                    won = cur.rowcount == 1
                wins.append(won)
            return wins

        return self._write(txn)

    def release(self, key: str) -> bool:
        """Undo a claim whose computation failed (pending rows only)."""
        def txn(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                "DELETE FROM runs WHERE cache_key = ? "
                "AND status = 'pending'", (key,))
            return cur.rowcount == 1
        return self._write(txn)

    def record(self, spec: RunSpec, result: RunResult,
               key: Optional[str] = None,
               envelope_path: Optional[str] = None,
               owner: Optional[str] = None,
               fingerprint: Optional[str] = None) -> str:
        """Upsert the ``done`` row for one finished run; returns key.

        Idempotent: recording the same key again refreshes metrics and
        ``updated_at`` (results are content-addressed, so the values
        can only be bit-identical).  The caller must have written the
        envelope first — see the module docstring's lock ordering.
        ``fingerprint`` defaults to the current sources; the backfill
        passes the envelope's own so imported rows stay truthful.
        """
        key = key or run_cache.cache_key(spec)
        cols = self._spec_columns(spec)
        metrics = _metrics_for(result)
        fingerprint = fingerprint or run_cache.code_fingerprint()
        now = time.time()  # repro: allow(determinism) -- row timestamp, not result data

        def txn(conn: sqlite3.Connection) -> str:
            conn.execute(
                "INSERT INTO runs (cache_key, kind, name, scenario, "
                "mechanism, standard, engine, seed, spec_json, "
                "fingerprint, result_schema, status, owner, total_ipc, "
                "row_hit_rate, mechanism_hit_rate, mem_cycles, "
                "activations, envelope_path, created_at, updated_at) "
                "VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?) "
                "ON CONFLICT(cache_key) DO UPDATE SET "
                "status='done', owner=excluded.owner, "
                "fingerprint=excluded.fingerprint, "
                "total_ipc=excluded.total_ipc, "
                "row_hit_rate=excluded.row_hit_rate, "
                "mechanism_hit_rate=excluded.mechanism_hit_rate, "
                "mem_cycles=excluded.mem_cycles, "
                "activations=excluded.activations, "
                "envelope_path=excluded.envelope_path, "
                "updated_at=excluded.updated_at",
                (key, cols["kind"], cols["name"], cols["scenario"],
                 cols["mechanism"], cols["standard"], cols["engine"],
                 cols["seed"], cols["spec_json"], fingerprint,
                 run_cache.SCHEMA_VERSION, "done", owner,
                 metrics["total_ipc"], metrics["row_hit_rate"],
                 metrics["mechanism_hit_rate"], metrics["mem_cycles"],
                 metrics["activations"], envelope_path, now, now))
            return key

        return self._write(txn)

    def forget(self, key: str) -> bool:
        """Drop one row outright (maintenance; envelopes untouched)."""
        def txn(conn: sqlite3.Connection) -> bool:
            cur = conn.execute("DELETE FROM runs WHERE cache_key = ?",
                               (key,))
            return cur.rowcount == 1
        return self._write(txn)

    def gc(self, fingerprint: Optional[str] = None,
           dry_run: bool = False) -> run_cache.GCReport:
        """Prune rows orphaned by source changes or envelope gc.

        The companion to :meth:`RunCache.gc <repro.harness.cache.
        RunCache.gc>`: a row is stale when its fingerprint no longer
        matches the current sources, its result schema is obsolete, or
        it advertises an envelope file that was pruned out from under
        it.  Historically ``repro cache gc`` swept only envelopes and
        left these rows behind; the store protocol sweeps both.
        Returns the same :class:`~repro.harness.cache.GCReport` shape
        as the envelope gc, with (key, reason) stale entries.
        """
        fingerprint = fingerprint or run_cache.code_fingerprint()
        conn = self._connect()
        try:
            rows = conn.execute(
                "SELECT cache_key, fingerprint, result_schema, status, "
                "envelope_path FROM runs ORDER BY cache_key").fetchall()
        finally:
            conn.close()
        stale: List[Tuple[str, str]] = []
        kept = 0
        for row in rows:
            if row["fingerprint"] != fingerprint:
                stale.append((row["cache_key"],
                              "code fingerprint mismatch"))
            elif row["result_schema"] != run_cache.SCHEMA_VERSION:
                stale.append((row["cache_key"],
                              f"schema {row['result_schema']} != "
                              f"{run_cache.SCHEMA_VERSION}"))
            elif (row["status"] == "done" and row["envelope_path"]
                    and not os.path.exists(row["envelope_path"])):
                stale.append((row["cache_key"], "envelope missing"))
            else:
                kept += 1
        removed = 0
        if stale and not dry_run:
            stale_keys = [key for key, _ in stale]

            def txn(conn: sqlite3.Connection) -> int:
                deleted = 0
                for stale_key in stale_keys:
                    cur = conn.execute(
                        "DELETE FROM runs WHERE cache_key = ?",
                        (stale_key,))
                    deleted += cur.rowcount
                return deleted

            removed = self._write(txn)
        return run_cache.GCReport(stale=stale, kept=kept,
                                  removed=removed)

    # -- reads (lock-free) ---------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The row for ``key`` as a plain dict, or None."""
        conn = self._connect()
        try:
            row = conn.execute(
                "SELECT * FROM runs WHERE cache_key = ?",
                (key,)).fetchone()
        finally:
            conn.close()
        return dict(row) if row is not None else None

    def status_of(self, key: str) -> Optional[str]:
        row = self.get(key)
        return row["status"] if row else None

    def has_result(self, key: str) -> bool:
        return self.status_of(key) == "done"

    def query(self, scenario: Optional[str] = None,
              mechanism: Optional[str] = None,
              standard: Optional[str] = None,
              kind: Optional[str] = None,
              name: Optional[str] = None,
              engine: Optional[str] = None,
              status: Optional[str] = "done",
              limit: Optional[int] = None) -> List[Dict]:
        """Rows matching every given filter (exact match per column).

        ``status`` defaults to ``"done"`` — clients asking "what
        results exist" should not see half-finished claims; pass
        ``status=None`` to include pending rows.  Rows come back
        ordered by (scenario, name, mechanism, seed) so repeated
        queries render stable tables.
        """
        clauses, params = [], []
        for column, value in (("scenario", scenario),
                              ("mechanism", mechanism),
                              ("standard", standard), ("kind", kind),
                              ("name", name), ("engine", engine),
                              ("status", status)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += (" ORDER BY scenario IS NULL, scenario, kind, name, "
                "mechanism, seed")
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        conn = self._connect()
        try:
            rows = conn.execute(sql, params).fetchall()
        finally:
            conn.close()
        return [dict(row) for row in rows]

    def spec_for(self, key: str) -> Optional[RunSpec]:
        """Re-materialize the RunSpec a row indexed, or None."""
        row = self.get(key)
        if row is None:
            return None
        return spec_from_payload(json.loads(row["spec_json"]))

    def count(self, status: Optional[str] = None) -> int:
        sql = "SELECT COUNT(*) FROM runs"
        params: List = []
        if status is not None:
            sql += " WHERE status = ?"
            params.append(status)
        conn = self._connect()
        try:
            return conn.execute(sql, params).fetchone()[0]
        finally:
            conn.close()

    def __len__(self) -> int:
        return self.count()

    # -- backfill ------------------------------------------------------

    def import_run_cache(self, cache: RunCache) -> Tuple[int, int]:
        """Index every readable envelope in ``cache``.

        Returns ``(imported, skipped)``: corrupt, schema-mismatched or
        otherwise unreadable envelopes are skipped (they are misses to
        the cache layer too), and re-importing is idempotent — rows
        are upserted under their content-addressed key.  This is both
        the migration path for pre-service cache directories and the
        crash-repair path for envelopes whose row never landed.
        """
        imported = skipped = 0
        for key in cache.keys():
            try:
                with open(cache.path_for(key), "r",
                          encoding="ascii") as fh:
                    envelope = json.load(fh)
                if (not isinstance(envelope, dict)
                        or envelope.get("schema")
                        != run_cache.SCHEMA_VERSION):
                    raise ValueError("schema mismatch")
                spec = spec_from_payload(envelope["spec"])
                result = run_cache.result_from_json(envelope["result"])
            except (OSError, ValueError, KeyError, TypeError,
                    AttributeError):
                skipped += 1
                continue
            self.record(spec, result, key=key,
                        envelope_path=cache.path_for(key),
                        owner="import",
                        fingerprint=envelope.get("fingerprint"))
            imported += 1
        return imported, skipped
