"""The RunStore: durable, resumable persistence for campaign work units.

A :class:`RunStore` is one SQLite database in WAL mode holding every work
unit a campaign has seen: its content-hash ID, canonical spec JSON, seed,
status, attempt count, and (once executed) the result document.  Writes
are idempotent upserts keyed by unit ID, so re-running any slice of a
campaign — after a crash, a kill, or on purpose — converges on the same
rows.  Schema versioning is enforced on open: a store written by an
incompatible code revision refuses to resume rather than silently mixing
result generations.

Unit lifecycle::

    pending ──execute──▶ done
        │ └──retry×N──▶ quarantined (error recorded, sweep continues)
        └──(resume)───▶ skipped entirely when already done

Schema v2 adds the *work-queue* columns (``lease_owner``,
``lease_expires``, ``heartbeat_at``) that let several worker processes
share one store: :meth:`RunStore.claim_units` atomically leases pending
units to an owner, :meth:`RunStore.heartbeat` keeps live leases fresh,
and expired leases are reclaimable by any other worker — a stalled
worker's units simply flow back into the pending pool.  A v1 store is
migrated in place on open (pure ``ALTER TABLE ... ADD COLUMN``; no row
rewrites, so a v1 reader's data is never touched destructively).

Exports: :meth:`RunStore.export_jsonl` (one self-contained JSON document
per unit) and :meth:`RunStore.export_csv` (flat scalar summary per unit),
both consumed by ``repro runs export``.  ``export_jsonl``'s
*deterministic* mode omits wall-clock columns so two campaigns over the
same units produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path
import sqlite3

from repro.orchestrator.units import SCHEMA_VERSION, WorkUnit
from repro.util.errors import ConfigurationError

__all__ = ["STORE_SCHEMA_VERSION", "UnitRow", "RunStore"]

#: Version of the SQLite layout itself (tables/columns), independent of the
#: unit-content schema in :data:`repro.orchestrator.units.SCHEMA_VERSION`.
#: v2 added the lease/heartbeat work-queue columns; v1 stores migrate in
#: place on open.
STORE_SCHEMA_VERSION = 2

#: SQLite layout versions this code can open (older ones migrate forward).
_MIGRATABLE_VERSIONS = ("1",)

#: Unit states a row may be in.
_STATUSES = ("pending", "done", "quarantined")


def _id_filter(unit_ids: list[str] | None) -> tuple[str, list]:
    """SQL ``AND`` clause (plus parameters) restricting rows to *unit_ids*.

    The IDs travel as one JSON-array parameter, so any batch size stays
    under SQLite's bound-parameter cap.
    """
    if unit_ids is None:
        return "", []
    return (
        " AND unit_id IN (SELECT value FROM json_each(?))",
        [json.dumps(list(unit_ids))],
    )


@dataclass(frozen=True)
class UnitRow:
    """One stored work unit, as read back from the database."""

    unit_id: str
    kind: str
    label: str
    seed: int
    status: str
    attempts: int
    spec_json: str
    result_json: str | None
    error: str | None
    created_at: str
    updated_at: str

    def as_dict(
        self,
        include_payloads: bool = True,
        include_timestamps: bool = True,
    ) -> dict:
        """JSON-ready form (the ``runs export --format jsonl`` document).

        ``include_timestamps=False`` drops the wall-clock columns, which
        is what makes deterministic exports byte-comparable across
        machines and runs.
        """
        out = {
            "unit_id": self.unit_id,
            "kind": self.kind,
            "label": self.label,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }
        if include_timestamps:
            out["created_at"] = self.created_at
            out["updated_at"] = self.updated_at
        if include_payloads:
            out["spec"] = json.loads(self.spec_json)
            out["result"] = (
                json.loads(self.result_json) if self.result_json else None
            )
        return out


class RunStore:
    """SQLite-WAL persistence of campaign work units (see module docs)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        # Several QueueBackend workers share one database file; block (up
        # to this long) on a writer's lock instead of failing immediately.
        self._conn.execute("PRAGMA busy_timeout=10000")
        self._create()
        self._migrate()
        self._check_schema()

    # ------------------------------------------------------------------ #
    # lifecycle

    def _create(self) -> None:
        with self._conn:
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS meta (
                    key TEXT PRIMARY KEY,
                    value TEXT NOT NULL
                )
                """
            )
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS units (
                    unit_id TEXT PRIMARY KEY,
                    kind TEXT NOT NULL,
                    label TEXT NOT NULL,
                    seed INTEGER NOT NULL,
                    status TEXT NOT NULL,
                    attempts INTEGER NOT NULL DEFAULT 0,
                    spec_json TEXT NOT NULL,
                    result_json TEXT,
                    error TEXT,
                    created_at TEXT NOT NULL DEFAULT (datetime('now')),
                    updated_at TEXT NOT NULL DEFAULT (datetime('now')),
                    lease_owner TEXT,
                    lease_expires REAL,
                    heartbeat_at REAL
                )
                """
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_units_status ON units (status)"
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("store_schema_version", str(STORE_SCHEMA_VERSION)),
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("unit_schema_version", SCHEMA_VERSION),
            )

    def _migrate(self) -> None:
        """Upgrade an older on-disk layout in place (v1 -> v2).

        v2 only *adds* nullable columns, so the migration is a pure
        ``ALTER TABLE ... ADD COLUMN`` — existing rows, IDs, and result
        payloads are untouched and the store stays resumable.
        """
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'store_schema_version'"
        ).fetchone()
        if row is None or row[0] not in _MIGRATABLE_VERSIONS:
            return
        with self._conn:
            have = {
                r[1]
                for r in self._conn.execute("PRAGMA table_info(units)")
            }
            for column, decl in (
                ("lease_owner", "TEXT"),
                ("lease_expires", "REAL"),
                ("heartbeat_at", "REAL"),
            ):
                if column not in have:
                    self._conn.execute(
                        f"ALTER TABLE units ADD COLUMN {column} {decl}"
                    )
            self._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'store_schema_version'",
                (str(STORE_SCHEMA_VERSION),),
            )

    def _check_schema(self) -> None:
        stored = dict(
            self._conn.execute("SELECT key, value FROM meta").fetchall()
        )
        store_version = stored.get("store_schema_version")
        unit_version = stored.get("unit_schema_version")
        if store_version != str(STORE_SCHEMA_VERSION):
            raise ConfigurationError(
                f"run store {self.path} has store schema {store_version!r}; "
                f"this code writes {STORE_SCHEMA_VERSION!r} — use a fresh store"
            )
        if unit_version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"run store {self.path} holds units of schema {unit_version!r}; "
                f"this code produces {SCHEMA_VERSION!r} — its results are not "
                "comparable, use a fresh store"
            )

    def close(self) -> None:
        """Flush and close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # writes (all idempotent upserts keyed by unit ID)

    def register(self, units: list[WorkUnit], kind: str = "run") -> None:
        """Ensure a pending row exists for every unit (no-op when present)."""
        with self._conn:
            self._conn.executemany(
                """
                INSERT OR IGNORE INTO units
                    (unit_id, kind, label, seed, status, spec_json)
                VALUES (?, ?, ?, ?, 'pending', ?)
                """,
                [
                    (u.unit_id, kind, u.label, u.seed, u.spec_json)
                    for u in units
                ],
            )

    def _upsert(
        self,
        unit_id: str,
        kind: str,
        label: str,
        seed: int,
        spec_json: str,
        status: str,
        attempts: int,
        result_json: str | None,
        error: str | None,
    ) -> None:
        with self._conn:
            self._conn.execute(
                """
                INSERT INTO units
                    (unit_id, kind, label, seed, status, attempts,
                     spec_json, result_json, error)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT(unit_id) DO UPDATE SET
                    status = excluded.status,
                    attempts = excluded.attempts,
                    result_json = excluded.result_json,
                    error = excluded.error,
                    lease_owner = NULL,
                    lease_expires = NULL,
                    updated_at = datetime('now')
                """,
                (unit_id, kind, label, seed, status, attempts,
                 spec_json, result_json, error),
            )

    def record_result(
        self,
        unit: WorkUnit,
        payload: dict,
        attempts: int = 1,
        kind: str = "run",
    ) -> None:
        """Mark a unit done with its result document (idempotent)."""
        self._upsert(
            unit.unit_id, kind, unit.label, unit.seed, unit.spec_json,
            "done", attempts,
            json.dumps(payload, sort_keys=True, separators=(",", ":")),
            None,
        )

    def record_quarantine(
        self,
        unit: WorkUnit,
        error: str,
        attempts: int,
        kind: str = "run",
    ) -> None:
        """Mark a unit quarantined with its final error (idempotent)."""
        self._upsert(
            unit.unit_id, kind, unit.label, unit.seed, unit.spec_json,
            "quarantined", attempts, None, error,
        )

    # ------------------------------------------------------------------ #
    # work-queue (schema v2): lease-based claims shared across processes

    def claim_units(
        self,
        owner: str,
        limit: int = 1,
        lease_seconds: float = 60.0,
        max_attempts: int | None = None,
        unit_ids: list[str] | None = None,
    ) -> list[UnitRow]:
        """Atomically lease up to *limit* pending units to *owner*.

        A unit is claimable when it is ``pending`` and unleased — or its
        lease has expired, which is how a crashed or stalled worker's
        units flow back into the pool — and, when *unit_ids* is given,
        one of them (a batch never runs another batch's units).  Each
        claim increments the row's
        attempt counter; when *max_attempts* is set, candidates that have
        already burned that many claims are quarantined here instead of
        leased (their worker evidently never lived long enough to report
        a failure).  Claims are serialised by an immediate transaction,
        so two workers never hold the same unit concurrently.
        """
        now = time.time()
        claimed: list[UnitRow] = []
        where, params = _id_filter(unit_ids)
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            rows = self._conn.execute(
                "SELECT unit_id, attempts FROM units"
                " WHERE status = 'pending'"
                "   AND (lease_owner IS NULL OR lease_expires < ?)"
                f"{where} ORDER BY rowid LIMIT ?",
                (now, *params, limit),
            ).fetchall()
            for unit_id, attempts in rows:
                if max_attempts is not None and attempts >= max_attempts:
                    self._conn.execute(
                        "UPDATE units SET status = 'quarantined',"
                        " error = ?, lease_owner = NULL, lease_expires = NULL,"
                        " updated_at = datetime('now') WHERE unit_id = ?",
                        (
                            f"exhausted {attempts} claim(s) without a result "
                            "(worker crashed or stalled; lease reclaimed)",
                            unit_id,
                        ),
                    )
                    continue
                self._conn.execute(
                    "UPDATE units SET attempts = attempts + 1,"
                    " lease_owner = ?, lease_expires = ?, heartbeat_at = ?,"
                    " updated_at = datetime('now') WHERE unit_id = ?",
                    (owner, now + lease_seconds, now, unit_id),
                )
                row = self.get(unit_id)
                assert row is not None
                claimed.append(row)
        return claimed

    def heartbeat(
        self,
        owner: str,
        unit_ids: list[str],
        lease_seconds: float = 60.0,
    ) -> None:
        """Refresh *owner*'s leases so live in-flight units stay claimed."""
        if not unit_ids:
            return
        now = time.time()
        marks = ",".join("?" * len(unit_ids))
        with self._conn:
            self._conn.execute(
                f"UPDATE units SET lease_expires = ?, heartbeat_at = ?"
                f" WHERE lease_owner = ? AND unit_id IN ({marks})",
                (now + lease_seconds, now, owner, *unit_ids),
            )

    def reset_units(self, unit_ids: list[str]) -> None:
        """Return units to ``pending``: result, error, attempts and lease cleared.

        A work queue runs only pending rows, so this is how a batch that
        re-executes units (``--no-resume``, or quarantined units rerun)
        enqueues them again.
        """
        where, params = _id_filter(unit_ids)
        with self._conn:
            self._conn.execute(
                "UPDATE units SET status = 'pending', attempts = 0,"
                " result_json = NULL, error = NULL, lease_owner = NULL,"
                " lease_expires = NULL, updated_at = datetime('now')"
                f" WHERE 1{where}",
                params,
            )

    def release_unit(self, unit_id: str) -> None:
        """Return a leased unit to the pool without recording an outcome."""
        with self._conn:
            self._conn.execute(
                "UPDATE units SET lease_owner = NULL, lease_expires = NULL"
                " WHERE unit_id = ?",
                (unit_id,),
            )

    # ------------------------------------------------------------------ #
    # control flags (campaign-level signalling through the shared store)

    def set_control(self, key: str, value: str) -> None:
        """Set a campaign control flag (e.g. cancellation) in the store."""
        with self._conn:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (f"control:{key}", value),
            )

    def get_control(self, key: str) -> str | None:
        """Read a control flag set by :meth:`set_control` (None if unset)."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (f"control:{key}",)
        ).fetchone()
        return row[0] if row is not None else None

    def request_cancel(self, batch: str | None = None) -> None:
        """Ask workers to stop claiming units: those serving one *batch*,
        or — with no *batch* — every worker sharing this store."""
        self.set_control("cancel" if batch is None else f"cancel:{batch}", "1")

    def cancel_requested(self, batch: str | None = None) -> bool:
        """Whether workers serving *batch* must stop (a store-wide or that
        batch's cancel); with no *batch*, whether any cancel was requested."""
        if batch is None:
            query = "key = 'control:cancel' OR key LIKE 'control:cancel:%'"
            params: tuple = ()
        else:
            query = "key IN ('control:cancel', ?)"
            params = (f"control:cancel:{batch}",)
        row = self._conn.execute(
            f"SELECT 1 FROM meta WHERE ({query}) AND value = '1' LIMIT 1",
            params,
        ).fetchone()
        return row is not None

    # ------------------------------------------------------------------ #
    # reads

    def completed(self, unit_ids: list[str]) -> dict[str, dict]:
        """Result payloads of the given IDs that are already ``done``."""
        out: dict[str, dict] = {}
        # SQLite caps bound parameters; chunk generously below the limit.
        for i in range(0, len(unit_ids), 500):
            chunk = unit_ids[i : i + 500]
            marks = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT unit_id, result_json FROM units "
                f"WHERE status = 'done' AND unit_id IN ({marks})",
                chunk,
            ).fetchall()
            for uid, result_json in rows:
                out[uid] = json.loads(result_json)
        return out

    def get(self, unit_id: str) -> UnitRow | None:
        """One unit by exact ID, or by unique ID prefix (>= 6 chars)."""
        row = self._conn.execute(
            "SELECT unit_id, kind, label, seed, status, attempts, spec_json,"
            " result_json, error, created_at, updated_at"
            " FROM units WHERE unit_id = ?",
            (unit_id,),
        ).fetchone()
        if row is None and len(unit_id) >= 6:
            rows = self._conn.execute(
                "SELECT unit_id, kind, label, seed, status, attempts, spec_json,"
                " result_json, error, created_at, updated_at"
                " FROM units WHERE unit_id LIKE ? LIMIT 2",
                (unit_id + "%",),
            ).fetchall()
            if len(rows) == 1:
                row = rows[0]
        return UnitRow(*row) if row is not None else None

    def units(
        self,
        status: str | None = None,
        kind: str | None = None,
        unit_ids: list[str] | None = None,
    ) -> list[UnitRow]:
        """Every stored unit (optionally filtered), in insertion order."""
        where, params = _id_filter(unit_ids)
        query = (
            "SELECT unit_id, kind, label, seed, status, attempts, spec_json,"
            " result_json, error, created_at, updated_at FROM units"
            f" WHERE 1{where}"
        )
        if status is not None:
            query += " AND status = ?"
            params.append(status)
        if kind is not None:
            query += " AND kind = ?"
            params.append(kind)
        query += " ORDER BY rowid"
        return [
            UnitRow(*row) for row in self._conn.execute(query, params).fetchall()
        ]

    def counts(self, unit_ids: list[str] | None = None) -> dict[str, int]:
        """Unit tally per status (statuses with zero units included),
        over every unit or only *unit_ids*."""
        out = {status: 0 for status in _STATUSES}
        where, params = _id_filter(unit_ids)
        for status, n in self._conn.execute(
            f"SELECT status, COUNT(*) FROM units WHERE 1{where} GROUP BY status",
            params,
        ).fetchall():
            out[status] = n
        return out

    # ------------------------------------------------------------------ #
    # exports

    @staticmethod
    def _strip_result_wall_clock(result: object) -> None:
        """Drop per-run span timings (``*_s`` keys) from an embedded
        telemetry block, in place.

        Span *counts* are simulation-driven and stay; the timing moments
        are wall clock, so a deterministic export must shed them the same
        way it sheds the row timestamps.
        """
        if not isinstance(result, dict):
            return
        stats = result.get("stats")
        telemetry = stats.get("telemetry") if isinstance(stats, dict) else None
        spans = telemetry.get("spans") if isinstance(telemetry, dict) else None
        if not isinstance(spans, dict):
            return
        for span in spans.values():
            if isinstance(span, dict):
                for key in [k for k in span if k.endswith("_s")]:
                    del span[key]

    def export_jsonl(
        self, path: str | Path, deterministic: bool = False
    ) -> int:
        """Write one JSON document per unit; returns the line count.

        *deterministic* omits every wall-clock field — the timestamp
        columns and the per-run telemetry span timings embedded in
        results — and sorts rows by unit ID instead of insertion order,
        so two stores holding the same unit outcomes export byte-identical
        files regardless of which worker, backend, or machine produced
        them (the service byte-identity contract rides on this).
        """
        rows = self.units()
        if deterministic:
            rows = sorted(rows, key=lambda r: r.unit_id)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "record": "header",
                        "schema": "repro-runstore/1",
                        "store_schema_version": STORE_SCHEMA_VERSION,
                        "unit_schema_version": SCHEMA_VERSION,
                        "units": len(rows),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            for row in rows:
                doc = row.as_dict(include_timestamps=not deterministic)
                if deterministic:
                    self._strip_result_wall_clock(doc.get("result"))
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        return len(rows) + 1

    def export_csv(self, path: str | Path) -> int:
        """Write a flat per-unit scalar summary; returns the row count.

        Series payloads are reduced to their per-run means (the scalars
        campaign aggregates are built from), keeping the CSV joinable
        against figures without re-parsing JSON.
        """
        rows = self.units()
        columns = [
            "unit_id", "kind", "label", "seed", "status", "attempts", "error",
            "connectivity", "tx_range", "logical_degree", "physical_degree",
            "strict",
        ]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for row in rows:
                record = {
                    "unit_id": row.unit_id,
                    "kind": row.kind,
                    "label": row.label,
                    "seed": row.seed,
                    "status": row.status,
                    "attempts": row.attempts,
                    "error": row.error or "",
                }
                if row.result_json and row.kind == "run":
                    series = json.loads(row.result_json).get("series", {})

                    def mean(name: str) -> float | str:
                        values = series.get(name)
                        if not values:
                            return ""
                        return sum(values) / len(values)

                    record.update(
                        connectivity=mean("delivery_ratios"),
                        tx_range=mean("mean_extended_ranges"),
                        logical_degree=mean("mean_logical_degrees"),
                        physical_degree=mean("mean_physical_degrees"),
                        strict=mean("strict_connected"),
                    )
                writer.writerow(record)
        return len(rows)
