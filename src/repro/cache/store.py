"""The on-disk store: versioned JSON records, atomically replaced.

Layout: ``<root>/objects/<key>.json``, one record per content address.
Records are canonical JSON (sorted keys, compact separators) so that two
processes writing the same result produce byte-identical files; writes go
through a per-process temporary file and ``os.replace`` so readers never
observe a torn record.  Records carry no timestamps and no machine
identity — the cache is a pure function of its inputs, which is what lets
CI runs, benchmark runs and local sweeps share it safely.

``merge`` is read-modify-replace: ``communication_complexity``,
``optimal_protocol_tree`` and ``partition_number`` each contribute their
field (``d`` / ``tree`` / ``leaves``) to the same record, so a warm record
accumulates whichever results have ever been computed for that matrix.

Activation is opt-in: explicitly via :func:`configure`, ambiently via the
``REPRO_CACHE_DIR`` environment variable.  With neither, every lookup is a
no-op and the library behaves exactly as if this package did not exist.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from threading import Lock

from repro import obs
from repro.cache.keys import matrix_key, shard_name

#: Record schema version; readers ignore records from other versions.
RECORD_VERSION = 1

#: Result fields a record may carry (beyond v/engine/shape).
RECORD_FIELDS = ("d", "leaves", "tree")

#: Shard manifest schema version; readers ignore foreign versions.
SHARD_MANIFEST_VERSION = 1

#: Scenario-matrix cell record version; readers ignore foreign versions.
CELL_RECORD_VERSION = 1

ENV_VAR = "REPRO_CACHE_DIR"


def encode_record(record: dict) -> str:
    """Canonical JSON of a record: sorted keys, compact separators.

    Iterating ``sorted(record)`` (never raw dict/set order) keeps the bytes
    deterministic across processes — the property the DET lint rules and the
    byte-identity tests pin down.
    """
    clean = {}
    for field in sorted(record):
        clean[field] = record[field]
    return json.dumps(clean, sort_keys=True, separators=(",", ":")) + "\n"


def decode_record(text: str) -> dict | None:
    """Parse one record; None for malformed or foreign-version content."""
    try:
        record = json.loads(text)
    except (ValueError, TypeError):
        return None
    if not isinstance(record, dict) or record.get("v") != RECORD_VERSION:
        return None
    return record


def _valid_tree(serial) -> bool:
    """Shape-check a serialized protocol tree (see exhaustive.py)."""
    if not isinstance(serial, list) or not serial:
        return False
    if serial[0] == "L":
        return len(serial) == 2 and serial[1] in (0, 1)
    if serial[0] != "N" or len(serial) != 5:
        return False
    _tag, axis, right, left_subtree, right_subtree = serial
    if axis not in (0, 1):
        return False
    if not isinstance(right, list) or not all(
        isinstance(i, int) and i >= 0 for i in right
    ):
        return False
    return _valid_tree(left_subtree) and _valid_tree(right_subtree)


def _walk_tree(
    serial, rows: frozenset, cols: frozenset
) -> tuple[int, int] | None:
    """``(depth, leaves)`` of a shape-valid tree rooted at the ``rows`` x
    ``cols`` rectangle, or None when some node's ``right`` set is not a
    non-empty proper subset of the side it splits."""
    if serial[0] == "L":
        return 0, 1
    _tag, axis, right, left_subtree, right_subtree = serial
    side = cols if axis else rows
    chosen = frozenset(right)
    if not chosen or not chosen < side:
        return None
    if axis:
        walks = (
            _walk_tree(left_subtree, rows, side - chosen),
            _walk_tree(right_subtree, rows, chosen),
        )
    else:
        walks = (
            _walk_tree(left_subtree, side - chosen, cols),
            _walk_tree(right_subtree, chosen, cols),
        )
    if None in walks:
        return None
    (depth_a, leaves_a), (depth_b, leaves_b) = walks
    return 1 + max(depth_a, depth_b), leaves_a + leaves_b


def _tree_problems(record: dict, n_rows: int, n_cols: int) -> list[str]:
    """What a shape-valid tree contradicts in its own record.

    Checkable without the truth matrix: every split cuts the current
    rectangle into two non-empty parts, the depth is the record's ``d``,
    and no protocol has fewer leaves than the record's ``leaves``.
    """
    walked = _walk_tree(
        record["tree"], frozenset(range(n_rows)), frozenset(range(n_cols))
    )
    if walked is None:
        return ["tree splits a side into an empty or out-of-rectangle part"]
    depth, leaves = walked
    problems = []
    if isinstance(record.get("d"), int) and depth != record["d"]:
        problems.append(f"tree depth {depth} != d {record['d']}")
    if isinstance(record.get("leaves"), int) and leaves < record["leaves"]:
        problems.append(f"tree has {leaves} leaves < leaves {record['leaves']}")
    return problems


def record_problems(record: dict | None, text: str | None = None) -> list[str]:
    """Schema violations of one parsed record (empty list when clean)."""
    if record is None:
        return ["unparseable or foreign-version record"]
    problems = []
    if not isinstance(record.get("engine"), str) or not record["engine"]:
        problems.append("missing or empty engine tag")
    shape = record.get("shape")
    shape_ok = (
        isinstance(shape, list)
        and len(shape) == 2
        and all(isinstance(s, int) and s > 0 for s in shape)
    )
    if not shape_ok:
        problems.append("shape is not a pair of positive ints")
    for field in ("d", "leaves"):
        if field in record and not (
            isinstance(record[field], int) and record[field] >= 0
        ):
            problems.append(f"{field} is not a non-negative int")
    if "tree" in record:
        if not _valid_tree(record["tree"]):
            problems.append("tree fails the serialized-protocol shape check")
        elif shape_ok:
            problems.extend(_tree_problems(record, *shape))
    unknown = [
        field
        for field in sorted(record)
        if field not in ("v", "engine", "shape") + RECORD_FIELDS
    ]
    if unknown:
        problems.append(f"unknown fields: {', '.join(unknown)}")
    if text is not None and not problems and encode_record(record) != text:
        problems.append("record bytes are not in canonical JSON form")
    return problems


def shard_manifest_record(
    rows: int, cols: int, block: int, engine: str
) -> dict:
    """The manifest describing one sharded truth-matrix build.

    Fixes the block *grid* (column ranges ``[i·block, min((i+1)·block,
    cols))``) so every process — the builder, a resumer, the CLI — derives
    the identical shard set from the same four integers/strings.
    """
    return {
        "v": SHARD_MANIFEST_VERSION,
        "rows": int(rows),
        "cols": int(cols),
        "block": int(block),
        "engine": str(engine),
    }


def shard_manifest_problems(manifest: dict | None) -> list[str]:
    """Schema violations of one parsed shard manifest."""
    if manifest is None:
        return ["unparseable or foreign-version manifest"]
    problems = []
    for field in ("rows", "cols", "block"):
        if not (isinstance(manifest.get(field), int) and manifest[field] > 0):
            problems.append(f"{field} is not a positive int")
    if not isinstance(manifest.get("engine"), str) or not manifest["engine"]:
        problems.append("missing or empty engine tag")
    unknown = [
        field
        for field in sorted(manifest)
        if field not in ("v", "rows", "cols", "block", "engine")
    ]
    if unknown:
        problems.append(f"unknown fields: {', '.join(unknown)}")
    return problems


def block_ranges(cols: int, block: int) -> list[tuple[int, int]]:
    """The half-open column ranges of a build's block grid."""
    if cols < 0 or block < 1:
        raise ValueError(f"bad block grid: cols={cols}, block={block}")
    return [(start, min(start + block, cols)) for start in range(0, cols, block)]


class CacheStore:
    """One cache directory: get / merge / stats / verify / clear.

    Three kinds of content live side by side: exact-search result records
    under ``objects/``, truth-matrix column-block shards under ``shards/``
    (a manifest JSON plus one raw ``.bin`` per block — see
    :meth:`put_shard`), and scenario-matrix cell documents under
    ``cells/`` (see :meth:`put_cell`).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.shards = self.root / "shards"
        self.shards.mkdir(parents=True, exist_ok=True)
        self.cells = self.root / "cells"
        self.cells.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.objects / f"{key}.json"

    # -- lookups --------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The record at ``key``, or None (counts hits/misses in obs)."""
        obs.counter("cache.lookups").inc()
        try:
            text = self._path(key).read_text()
        except OSError:
            obs.counter("cache.misses").inc()
            return None
        record = decode_record(text)
        if record is None:
            obs.counter("cache.misses").inc()
            return None
        obs.counter("cache.hits").inc()
        return record

    def get_matrix(self, engine_version: str, shape, data_bytes: bytes):
        """Convenience: :func:`repro.cache.keys.matrix_key` then ``get``."""
        return self.get(matrix_key(engine_version, shape, data_bytes))

    # -- writes ---------------------------------------------------------
    def merge(self, key: str, fields: dict, engine: str, shape) -> dict:
        """Fold ``fields`` into the record at ``key`` (atomic replace).

        Unknown fields are rejected loudly — the record schema is the
        compatibility contract between processes.
        """
        for field in sorted(fields):
            if field not in RECORD_FIELDS:
                raise ValueError(f"unknown record field {field!r}")
        path = self._path(key)
        try:
            existing = decode_record(path.read_text())
        except OSError:
            existing = None
        record = {
            "v": RECORD_VERSION,
            "engine": str(engine),
            "shape": [int(shape[0]), int(shape[1])],
        }
        if existing is not None and existing.get("engine") == record["engine"]:
            for field in RECORD_FIELDS:
                if field in existing:
                    record[field] = existing[field]
        record.update(fields)
        # pid + thread id make the scratch name unique across processes AND
        # threads; neither ever reaches the persisted bytes.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(encode_record(record))
        os.replace(tmp, path)
        obs.counter("cache.stores").inc()
        return record

    # -- truth-matrix shards --------------------------------------------
    def _manifest_path(self, key: str) -> Path:
        return self.shards / f"{key}.manifest.json"

    def _shard_path(self, key: str, start: int, stop: int) -> Path:
        return self.shards / f"{shard_name(key, start, stop)}.bin"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def get_shard_manifest(self, key: str) -> dict | None:
        """The manifest of build ``key``, or None."""
        try:
            text = self._manifest_path(key).read_text()
        except OSError:
            return None
        try:
            manifest = json.loads(text)
        except (ValueError, TypeError):
            return None
        if (
            not isinstance(manifest, dict)
            or manifest.get("v") != SHARD_MANIFEST_VERSION
        ):
            return None
        return manifest

    def put_shard_manifest(self, key: str, manifest: dict) -> dict:
        """Commit the build manifest (canonical JSON, atomic replace)."""
        problems = shard_manifest_problems(manifest)
        if problems:
            raise ValueError(f"bad shard manifest: {'; '.join(problems)}")
        self._atomic_write(
            self._manifest_path(key), encode_record(manifest).encode()
        )
        return manifest

    def get_shard(self, key: str, start: int, stop: int) -> bytes | None:
        """The raw bytes of one column-block shard, or None."""
        try:
            data = self._shard_path(key, start, stop).read_bytes()
        except OSError:
            obs.counter("cache.shard.misses").inc()
            return None
        obs.counter("cache.shard.hits").inc()
        return data

    def put_shard(self, key: str, start: int, stop: int, data: bytes) -> None:
        """Spill one column block (raw C-order uint8 bytes, atomic).

        The length must tile against the committed manifest — a shard that
        cannot be reassembled byte-identically is refused at write time,
        not discovered at resume time.
        """
        manifest = self.get_shard_manifest(key)
        if manifest is None:
            raise ValueError(f"no manifest for build {key}; commit one first")
        expected = manifest["rows"] * (int(stop) - int(start))
        if len(data) != expected:
            raise ValueError(
                f"shard [{start}, {stop}) carries {len(data)} bytes; "
                f"manifest demands {expected}"
            )
        self._atomic_write(self._shard_path(key, start, stop), data)
        obs.counter("cache.shard.stores").inc()

    def _shard_bin_paths(self) -> list[Path]:
        try:
            return sorted(self.shards.glob("*.bin"))
        except OSError:
            return []

    def _manifest_paths(self) -> list[Path]:
        try:
            return sorted(self.shards.glob("*.manifest.json"))
        except OSError:
            return []

    @staticmethod
    def _parse_shard_name(path: Path) -> tuple[str, int, int] | None:
        """``(build_key, start, stop)`` of a ``.bin`` path, or None."""
        stem = path.name[: -len(".bin")]
        key, dot, span = stem.rpartition(".")
        if not dot or "-" not in span:
            return None
        start_text, _, stop_text = span.partition("-")
        try:
            start, stop = int(start_text), int(stop_text)
        except ValueError:
            return None
        if not key or start < 0 or stop <= start:
            return None
        return key, start, stop

    def shard_builds(self) -> dict[str, dict]:
        """Every build with a manifest: key -> manifest + completeness.

        A build is *complete* when every grid block's shard is present;
        otherwise it is a resumable partial (``missing`` counts the holes).
        """
        builds: dict[str, dict] = {}
        for path in self._manifest_paths():
            key = path.name[: -len(".manifest.json")]
            manifest = self.get_shard_manifest(key)
            if manifest is None:
                builds[key] = {"manifest": None, "missing": None}
                continue
            ranges = block_ranges(manifest["cols"], manifest["block"])
            missing = sum(
                0 if self._shard_path(key, start, stop).exists() else 1
                for start, stop in ranges
            )
            builds[key] = {
                "manifest": manifest,
                "blocks": len(ranges),
                "missing": missing,
            }
        return builds

    def shard_stats(self) -> dict:
        """Shard-side counts: builds, partials, shard files/bytes, orphans."""
        builds = self.shard_builds()
        shard_files = 0
        shard_bytes = 0
        orphaned = 0
        for path in self._shard_bin_paths():
            parsed = self._parse_shard_name(path)
            try:
                size = path.stat().st_size
            except OSError:
                continue
            shard_files += 1
            shard_bytes += size
            if parsed is None or parsed[0] not in builds:
                orphaned += 1
        partial = sum(
            1
            for info in builds.values()
            if info["missing"] is None or info["missing"] > 0
        )
        return {
            "builds": len(builds),
            "complete_builds": len(builds) - partial,
            "partial_builds": partial,
            "shards": shard_files,
            "bytes": shard_bytes,
            "orphaned_shards": orphaned,
        }

    def verify_shards(self) -> list[str]:
        """Problems across every manifest and shard (empty means clean)."""
        problems = []
        builds: dict[str, dict] = {}
        for path in self._manifest_paths():
            key = path.name[: -len(".manifest.json")]
            manifest = self.get_shard_manifest(key)
            for problem in shard_manifest_problems(manifest):
                problems.append(f"{path.name}: {problem}")
            if manifest is not None and not shard_manifest_problems(manifest):
                builds[key] = manifest
        for path in self._shard_bin_paths():
            parsed = self._parse_shard_name(path)
            if parsed is None:
                problems.append(f"{path.name}: unparseable shard name")
                continue
            key, start, stop = parsed
            manifest = builds.get(key)
            if manifest is None:
                problems.append(
                    f"{path.name}: orphaned shard (no valid manifest for "
                    "its build; run `repro cache clear`)"
                )
                continue
            if (start, stop) not in set(
                block_ranges(manifest["cols"], manifest["block"])
            ):
                problems.append(
                    f"{path.name}: range off the manifest's block grid"
                )
                continue
            try:
                data = path.read_bytes()
            except OSError as exc:
                problems.append(f"{path.name}: unreadable ({exc})")
                continue
            expected = manifest["rows"] * (stop - start)
            if len(data) != expected:
                problems.append(
                    f"{path.name}: {len(data)} bytes, manifest demands "
                    f"{expected}"
                )
            elif any(byte > 1 for byte in data):
                problems.append(f"{path.name}: non-0/1 truth-matrix bytes")
        return problems

    def clear_shards(self) -> int:
        """Delete every shard and manifest; returns files removed."""
        removed = 0
        for path in self._shard_bin_paths() + self._manifest_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    # -- scenario-matrix cells ------------------------------------------
    def _cell_path(self, key: str) -> Path:
        return self.cells / f"{key}.json"

    def _cell_paths(self) -> list[Path]:
        try:
            return sorted(self.cells.glob("*.json"))
        except OSError:
            return []

    def get_cell(self, key: str) -> dict | None:
        """The cell document at ``key``, or None (obs-counted).

        The document comes back exactly as :meth:`put_cell` canonicalized
        it (nested keys sorted), so a warm sweep re-emits byte-identical
        report JSON.
        """
        obs.counter("cache.cell.lookups").inc()
        try:
            text = self._cell_path(key).read_text()
        except OSError:
            obs.counter("cache.cell.misses").inc()
            return None
        try:
            record = json.loads(text)
        except (ValueError, TypeError):
            obs.counter("cache.cell.misses").inc()
            return None
        if (
            not isinstance(record, dict)
            or record.get("v") != CELL_RECORD_VERSION
            or not isinstance(record.get("cell"), dict)
        ):
            obs.counter("cache.cell.misses").inc()
            return None
        obs.counter("cache.cell.hits").inc()
        return record["cell"]

    def put_cell(self, key: str, cell: dict) -> None:
        """Persist one finished cell document (canonical JSON, atomic).

        Like every other tier, the bytes are a pure function of the
        content: no timestamps, no machine identity, sorted keys all the
        way down.
        """
        if not isinstance(cell, dict):
            raise ValueError("a cell document must be a dict")
        record = {"v": CELL_RECORD_VERSION, "cell": cell}
        self._atomic_write(
            self._cell_path(key), encode_record(record).encode()
        )
        obs.counter("cache.cell.stores").inc()

    def cell_stats(self) -> dict:
        """Cell-side counts: documents, bytes, per-verdict tally."""
        entries = 0
        total_bytes = 0
        verdicts: dict[str, int] = {}
        for path in self._cell_paths():
            try:
                text = path.read_text()
            except OSError:
                continue
            entries += 1
            total_bytes += len(text.encode())
            try:
                record = json.loads(text)
            except (ValueError, TypeError):
                continue
            if (
                isinstance(record, dict)
                and record.get("v") == CELL_RECORD_VERSION
                and isinstance(record.get("cell"), dict)
            ):
                verdict = record["cell"].get("verdict")
                if isinstance(verdict, str):
                    verdicts[verdict] = verdicts.get(verdict, 0) + 1
        return {
            "entries": entries,
            "bytes": total_bytes,
            "verdicts": {name: verdicts[name] for name in sorted(verdicts)},
        }

    def verify_cells(self) -> list[str]:
        """Problems across every cell document (empty means clean)."""
        problems = []
        for path in self._cell_paths():
            try:
                text = path.read_text()
            except OSError as exc:
                problems.append(f"{path.name}: unreadable ({exc})")
                continue
            try:
                record = json.loads(text)
            except (ValueError, TypeError):
                problems.append(f"{path.name}: unparseable cell record")
                continue
            if (
                not isinstance(record, dict)
                or record.get("v") != CELL_RECORD_VERSION
            ):
                problems.append(f"{path.name}: foreign cell record version")
                continue
            if not isinstance(record.get("cell"), dict):
                problems.append(f"{path.name}: record carries no cell dict")
                continue
            if encode_record(record) != text:
                problems.append(
                    f"{path.name}: cell bytes are not canonical JSON"
                )
        return problems

    def clear_cells(self) -> int:
        """Delete every cell document; returns files removed."""
        removed = 0
        for path in self._cell_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    # -- maintenance ----------------------------------------------------
    def _record_paths(self) -> list[Path]:
        try:
            return sorted(self.objects.glob("*.json"))
        except OSError:
            return []

    def stats(self) -> dict:
        """Entry count, byte total and per-field coverage, JSON-ready."""
        entries = 0
        total_bytes = 0
        fields = {field: 0 for field in RECORD_FIELDS}
        engines: dict[str, int] = {}
        for path in self._record_paths():
            try:
                text = path.read_text()
            except OSError:
                continue
            entries += 1
            total_bytes += len(text.encode())
            record = decode_record(text)
            if record is None:
                continue
            for field in RECORD_FIELDS:
                if field in record:
                    fields[field] += 1
            engine = record.get("engine")
            if isinstance(engine, str):
                engines[engine] = engines.get(engine, 0) + 1
        return {
            "dir": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "fields": fields,
            "engines": {name: engines[name] for name in sorted(engines)},
            "shards": self.shard_stats(),
            "cells": self.cell_stats(),
            "tmp": {
                "files": len(self._tmp_paths()),
                "orphaned": len(self.orphaned_tmp()),
            },
        }

    def _tmp_paths(self) -> list[Path]:
        paths = []
        for directory in (self.objects, self.shards, self.cells):
            try:
                paths.extend(directory.glob("*.tmp"))
            except OSError:
                continue
        return sorted(paths)

    @staticmethod
    def _tmp_target(path: Path) -> str | None:
        """The file a ``<name>.<pid>.<tid>.tmp`` scratch was headed for."""
        parts = path.name.split(".")
        if len(parts) < 4 or parts[-1] != "tmp":
            return None
        if not (parts[-3].isdigit() and parts[-2].isdigit()):
            return None
        return ".".join(parts[:-3])

    def orphaned_tmp(self) -> list[Path]:
        """Scratch ``.tmp`` files left behind by writers killed mid-commit.

        Record and cell writes hold their ``<name>.<pid>.<tid>.tmp`` only
        for the instant before ``os.replace``, so any such scratch present
        at inspection time is an orphan.  Shard ``.bin`` scratches are
        different: a sharded build commits its manifest *first* and then
        streams blocks for seconds to minutes, so a shard tmp at least as
        new as its build's manifest is treated as **in-flight** and
        excluded here.  The residual race is unavoidable without a lock
        and is documented in ``repro cache sweep-tmp``: a builder that
        crashed mid-stream leaves tmps that still look in-flight, and they
        are only demoted to orphans once a resumed build recommits the
        manifest (``repro cache clear`` removes them unconditionally).
        """
        orphans = []
        for path in self._tmp_paths():
            if path.parent == self.shards:
                target = self._tmp_target(path)
                if target is not None and target.endswith(".bin"):
                    parsed = self._parse_shard_name(Path(target))
                    if parsed is not None:
                        try:
                            manifest_mtime = (
                                self._manifest_path(parsed[0])
                                .stat()
                                .st_mtime_ns
                            )
                            tmp_mtime = path.stat().st_mtime_ns
                        except OSError:
                            orphans.append(path)
                            continue
                        if tmp_mtime >= manifest_mtime:
                            continue  # in-flight shard write
            orphans.append(path)
        return orphans

    def sweep_tmp(self) -> int:
        """Delete orphaned ``.tmp`` scratch files; returns how many.

        In-flight shard scratches (newer than their build's committed
        manifest) are left alone — see :meth:`orphaned_tmp` for the
        detection rule and its documented residual race.
        """
        removed = 0
        for path in self.orphaned_tmp():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def verify(self) -> list[str]:
        """Problems across every record (empty means the store is clean)."""
        problems = []
        for path in self._record_paths():
            try:
                text = path.read_text()
            except OSError as exc:
                problems.append(f"{path.name}: unreadable ({exc})")
                continue
            for problem in record_problems(decode_record(text), text):
                problems.append(f"{path.name}: {problem}")
        problems.extend(self.verify_shards())
        problems.extend(self.verify_cells())
        for path in self.orphaned_tmp():
            problems.append(
                f"{path.name}: orphaned tmp scratch file (writer died "
                "mid-commit; run `repro cache sweep-tmp` or `cache clear`)"
            )
        return problems

    def clear(self) -> int:
        """Delete every record, shard, cell and scratch file; returns
        records removed (shard/cell files are counted separately by the
        CLI).  Unlike :meth:`sweep_tmp`, tmp files go unconditionally —
        clearing invalidates any in-flight build anyway."""
        removed = 0
        for path in self._record_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        self.clear_shards()
        self.clear_cells()
        for path in self._tmp_paths():
            try:
                path.unlink()
            except OSError:
                continue
        return removed


# ---------------------------------------------------------------------------
# Active-store resolution: explicit configure() beats the environment.
# ---------------------------------------------------------------------------

_LOCK = Lock()
_CONFIGURED: CacheStore | None = None
_CONFIGURED_SET = False
_ENV_STORES: dict[str, CacheStore] = {}


def configure(path) -> CacheStore | None:
    """Pin the process-wide store to ``path`` (None disables the cache even
    when ``REPRO_CACHE_DIR`` is set).  Returns the active store."""
    global _CONFIGURED, _CONFIGURED_SET
    store = CacheStore(path) if path is not None else None
    with _LOCK:
        _CONFIGURED = store
        _CONFIGURED_SET = True
    return store


def unconfigure() -> None:
    """Drop any explicit configuration; the environment rules again."""
    global _CONFIGURED, _CONFIGURED_SET
    with _LOCK:
        _CONFIGURED = None
        _CONFIGURED_SET = False


def active_store() -> CacheStore | None:
    """The store consulted by the exact-search entry points, or None.

    Explicit :func:`configure` wins; otherwise a non-empty
    ``REPRO_CACHE_DIR`` activates (and memoizes) a store at that path.
    """
    with _LOCK:
        if _CONFIGURED_SET:
            return _CONFIGURED
    env = os.environ.get(ENV_VAR)
    if env is None or not env.strip():
        return None
    path = env.strip()
    with _LOCK:
        store = _ENV_STORES.get(path)
    if store is None:
        store = CacheStore(path)
        with _LOCK:
            store = _ENV_STORES.setdefault(path, store)
    return store


@contextmanager
def directory(path):
    """Scoped :func:`configure`: activate ``path``, restore the previous
    resolution state afterwards."""
    with _LOCK:
        saved = (_CONFIGURED, _CONFIGURED_SET)
    configure(path)
    try:
        yield active_store()
    finally:
        _restore(saved)


@contextmanager
def disabled():
    """Scoped off-switch: no persistent cache inside the block (used by
    timing code so engine timings never read a warm user cache)."""
    with _LOCK:
        saved = (_CONFIGURED, _CONFIGURED_SET)
    configure(None)
    try:
        yield
    finally:
        _restore(saved)


def _restore(saved) -> None:
    global _CONFIGURED, _CONFIGURED_SET
    with _LOCK:
        _CONFIGURED, _CONFIGURED_SET = saved
