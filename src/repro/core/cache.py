"""``repro.core.cache`` — persistent, content-addressed compile-artifact store.

The paper's platform makes shader compilation expensive relative to
kernel runtime, and the repro models that cost explicitly (the
wall-time model's compile term, ``relinks_on_relaunch`` in the bench
report).  The in-process caches already make *relaunches* free; this
module makes *process launches* cheap too, by persisting the compile
pipeline's artifacts on disk so every later process — a cold CLI run,
a pytest session — warm-starts from the store instead of re-running
parse → typecheck → IR-optimise → JIT-codegen.

Two artifact kinds are stored:

``frontend``
    The pickled :class:`~repro.glsl.typecheck.CheckedShader` (the
    parse/typecheck result), keyed by (stage, source digest).
``jit``
    The generated NumPy source, its marshalled code object, and its
    captured namespace in a pickle-safe encoding (arrays as-is, builtin
    implementations by registry key), plus what a draw reads of the IR
    program (its :class:`~repro.glsl.ir.nodes.Bindings` and
    :class:`~repro.glsl.ir.cost.StaticCost`), keyed additionally by
    the float model, the wide-global set and the fusion signature.

The optimised IR program is not stored: a warm JIT draw runs from its
``jit`` entry alone, and what still needs the program (IR-executor
draws, programs outside the JIT subset, unfolded global initialisers,
pooled draws) lowers it once per process.

Every key mixes in the cache schema version and the Python/NumPy
versions (:func:`env_fingerprint`), so interpreter or dependency
upgrades silently invalidate the whole store rather than feeding a new
runtime stale artifacts.

Storage is crash- and concurrency-safe by construction: entries are
single files written to a temp name and published with an atomic
``os.replace`` (readers never observe torn writes), the LRU trim
runs under the publish's exclusive lock on the running total, and
*any* invalid entry — truncated, garbage, checksum-mismatched, wrong
schema — is treated as a miss, deleted, and recompiled.  A racing second writer simply
republishes bit-identical content.

A publish costs the same whatever the store holds: one ``fsync`` and
one update of the running byte total in ``v<SCHEMA_VERSION>/.usage``
under an exclusive ``flock``.  The store is scanned (one ``os.scandir``
pass, which also sweeps orphaned publish temps) only when that total
is unknown or over the bound; the scan's measured total then replaces
it.  Deletions outside a trim leave the total high — the safe side —
until the next scan.

Knobs (environment, read lazily so tests can flip them):

``REPRO_CACHE=0``
    Disable the disk layer entirely (in-process caches unaffected).
``REPRO_CACHE_DIR``
    Store location (default ``~/.cache/repro``).
``REPRO_CACHE_MAX_BYTES``
    LRU size bound (default 256 MiB); once the running total of a
    publish exceeds it, the store is scanned and trimmed to 80 % of
    the bound, oldest-access first.

Observability: every lookup/eviction/corruption tallies into the
``cache.disk.*`` counters of :mod:`repro.perf.counters`; GL contexts
attribute the part accrued during their own compiles and draws, and
``python -m repro.cache`` reports the store's contents (see that
module for the maintenance CLI).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import marshal
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..perf import counters, trace

#: Bump to invalidate every existing store (key *and* entry header).
#: 3: generated JIT code calls ``_fetch``; schema-2 entries call the
#: removed ``_gather`` and would fail at run time into the IR executor.
#: 4: ``_fetch`` takes the site number first; schema-3 code would call
#: it with the old arguments.
#: 5: generated JIT code defines decoder functions and passes them to
#: ``_fetch``; IR entries carry ``FetchSite.tail``.
#: 6: ``_fetch`` takes the flat index instead of ``x``/``y``; IR
#: entries carry ``FetchSite.index`` and ``FetchSite.categories``.
#: 7: JIT entries carry the program's bindings and static cost, which
#: a warm JIT draw reads instead of loading the IR program.
#: 8: IR programs and ``unsupported`` JIT markers are no longer stored.
SCHEMA_VERSION = 8

_MAGIC = b"repro-artifact-v1\n"
_ENTRY_SUFFIX = ".art"
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024
#: Trim target once the size bound is hit (fraction of the bound).
_EVICT_TO = 0.8

#: The ``cache.disk.*`` counters under their short names, read-only,
#: for the benchmark ledger.
stats = counters.View("cache.disk.")


# ----------------------------------------------------------------------
# Configuration (lazy env reads so monkeypatched tests see changes)
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Whether the disk layer is active (``REPRO_CACHE=0`` disables)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def cache_dir() -> Path:
    """The store root (``REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def max_bytes() -> int:
    from .knobs import int_knob

    return int_knob(
        "REPRO_CACHE_MAX_BYTES", _DEFAULT_MAX_BYTES, minimum=1
    )


def env_fingerprint() -> str:
    """The runtime component of every key: artifacts are pickles and
    generated Python source, so they are only valid within one
    (Python minor, NumPy) combination."""
    return (
        f"py{sys.version_info.major}.{sys.version_info.minor}"
        f"-np{np.__version__}"
    )


def model_tag(fmodel) -> str:
    """The float-model key component — mirrors the in-memory IR cache
    key (:func:`repro.glsl.ir._model_key`)."""
    return (
        f"{getattr(fmodel, 'name', fmodel.__class__.__name__)}"
        f":{np.dtype(fmodel.dtype).str}"
    )


def artifact_key(
    kind: str,
    source_digest: str,
    *,
    stage: str = "",
    model: str = "",
    wide: Iterable[str] = (),
    fusion: str = "",
) -> str:
    """Compose one content-addressed key.

    Every knob that changes the artifact's bytes is a component:
    the GLSL source digest, the shader stage, the float model, the
    wide-global set (JIT only), the fusion signature of composed map
    chains, the schema version, and the Python/NumPy versions.
    Execution-irrelevant knobs (``shade_workers``, ``graph_mode``)
    deliberately have no component: they change scheduling, never
    generated code.
    """
    parts = (
        f"schema={SCHEMA_VERSION}",
        f"env={env_fingerprint()}",
        f"kind={kind}",
        f"src={source_digest}",
        f"stage={stage}",
        f"model={model}",
        f"wide={','.join(sorted(wide))}",
        f"fusion={fusion}",
    )
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def _entry_path(key: str) -> Path:
    return cache_dir() / f"v{SCHEMA_VERSION}" / key[:2] / (key + _ENTRY_SUFFIX)


# ----------------------------------------------------------------------
# Raw entry I/O
# ----------------------------------------------------------------------
def _pack(payload: bytes, kind: str) -> bytes:
    header = json.dumps({
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "len": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True).encode("utf-8")
    return _MAGIC + header + b"\n" + payload


def _unpack(blob: bytes) -> Optional[Tuple[Dict, bytes]]:
    """Validate one entry blob; None for anything malformed."""
    if not blob.startswith(_MAGIC):
        return None
    rest = blob[len(_MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        return None
    try:
        header = json.loads(rest[:newline].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
        return None
    payload = rest[newline + 1:]
    if len(payload) != header.get("len"):
        return None
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        return None
    return header, payload


def get(key: str) -> Optional[bytes]:
    """Look one entry up; validates integrity and refreshes its LRU
    access time.  Corrupt entries are deleted and reported as misses."""
    if not enabled():
        return None
    path = _entry_path(key)
    try:
        blob = path.read_bytes()
    except OSError:
        counters.values["cache.disk.misses"] += 1
        trace.instant("cache.miss", "cache", {"key": key[:16]})
        return None
    from ..testing import faults

    if faults.fire("cache_corrupt"):
        # Simulated bit rot: hand the validator garbage bytes so the
        # corrupt-entry path below (count, delete, recompile) runs
        # against a real on-disk entry.
        blob = blob[: len(_MAGIC)] + b"\x00" + blob[len(_MAGIC) + 1:]
    unpacked = _unpack(blob)
    if unpacked is None:
        counters.values["cache.disk.corrupt"] += 1
        counters.values["cache.disk.misses"] += 1
        trace.instant("cache.corrupt", "cache", {"key": key[:16]})
        try:
            path.unlink()
        except OSError:
            pass
        return None
    counters.values["cache.disk.hits"] += 1
    trace.instant("cache.hit", "cache", {
        "key": key[:16], "kind": unpacked[0].get("kind", "unknown"),
    })
    try:
        os.utime(path)
    except OSError:
        pass
    return unpacked[1]


def put(key: str, payload: bytes, kind: str) -> bool:
    """Publish one entry atomically (tmp file + rename); the rename and
    the running-total update (:func:`_account`) share one lock hold,
    which is all a publish into a store under its bound locks.  Failures
    never break a compile — they are counted (``write_failures``),
    optionally logged (``REPRO_DEBUG_FAULTS=1``), and the caller
    proceeds uncached."""
    if not enabled():
        return False
    from ..testing import faults

    path = _entry_path(key)
    blob = _pack(payload, kind)
    tmp = None
    try:
        if faults.fire("cache_enospc"):
            raise OSError(28, "injected fault: no space left on device")
        try:
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        except FileNotFoundError:  # first entry of this shard
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        with _usage_locked() as usage_fd:
            try:
                replaced = os.stat(path).st_size
            except FileNotFoundError:
                replaced = 0
            os.replace(tmp, path)
            tmp = None
            _account(usage_fd, len(blob) - replaced)
        trace.instant("cache.publish", "cache", {
            "key": key[:16], "kind": kind, "bytes": len(payload),
        })
    except OSError as exc:
        counters.values["cache.disk.write_failures"] += 1
        faults.note_swallowed("cache_write", exc)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return False
    return True


def invalidate(key: str) -> None:
    """Drop one entry (deserialisation-level corruption: the envelope
    checksum passed but the payload would not load)."""
    counters.values["cache.disk.corrupt"] += 1
    try:
        _entry_path(key).unlink()
    except OSError:
        pass


def iter_entries() -> Iterator[Path]:
    root = cache_dir() / f"v{SCHEMA_VERSION}"
    try:
        yield from root.glob(f"*/*{_ENTRY_SUFFIX}")
    except OSError:
        return


def usage() -> Tuple[int, int]:
    """(entry count, total bytes) of the store."""
    entries = 0
    total = 0
    for path in iter_entries():
        try:
            total += path.stat().st_size
            entries += 1
        except OSError:
            continue
    return entries, total


def clear() -> int:
    """Remove every entry and reset the running total to 0; returns
    the number removed."""
    removed = 0
    with _usage_locked() as fd:
        for path in iter_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        if fd is not None:
            _write_total(fd, 0)
    return removed


def verify() -> Dict[str, int]:
    """Re-validate every entry (magic, header, payload digest, payload
    deserialisation) and drop the invalid ones."""
    kept = 0
    dropped = 0
    for path in iter_entries():
        ok = False
        try:
            unpacked = _unpack(path.read_bytes())
            if unpacked is not None:
                header, payload = unpacked
                if header.get("kind") == "frontend":
                    ok = load_checked(payload) is not None
                elif header.get("kind") == "jit":
                    ok = load_jit_entry(payload) is not None
                else:
                    ok = True
        except OSError:
            continue
        if ok:
            kept += 1
        else:
            dropped += 1
            counters.values["cache.disk.corrupt"] += 1
            try:
                path.unlink()
            except OSError:
                pass
    return {"kept": kept, "dropped": dropped}


# ----------------------------------------------------------------------
# Size bound: running total, scan, LRU trim
# ----------------------------------------------------------------------
#: The store-wide running byte total of the ``*.art`` entries, one
#: decimal line, read and rewritten under an exclusive ``flock``.
_USAGE_FILE = ".usage"

#: How old an unpublished ``.tmp-*`` file must be before the scan
#: treats it as an orphan (a writer killed between mkstemp and
#: os.replace).  One hour: comfortably past any legitimate in-flight
#: publish, so a racing live writer is never swept.
_ORPHAN_MAX_AGE_SECONDS = 3600.0


@contextlib.contextmanager
def _usage_locked(exclusive: bool = True) -> Iterator[Optional[int]]:
    """The running-total file, open and ``flock``-ed (exclusive: read
    and write, created if missing; shared: read only).  Yields None
    where there is no ``fcntl`` or the file cannot be opened — the
    ``cache_lock`` fault site acts as the latter."""
    from ..testing import faults

    try:
        import fcntl
    except ImportError:
        yield None
        return
    path = cache_dir() / f"v{SCHEMA_VERSION}" / _USAGE_FILE
    try:
        if faults.fire("cache_lock"):
            raise OSError(13, "injected fault: .usage will not open")
        fd = os.open(
            path, os.O_RDWR | os.O_CREAT if exclusive else os.O_RDONLY, 0o644
        )
    except OSError:
        yield None
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield fd
    finally:
        os.close(fd)


def _read_total(fd: int) -> Optional[int]:
    raw = os.pread(fd, 32, 0)
    if raw.endswith(b"\n") and raw[:-1].isdigit():
        return int(raw)
    return None  # missing, torn or garbled: the caller rescans


def _write_total(fd: int, total: int) -> None:
    data = b"%d\n" % total
    os.pwrite(fd, data, 0)
    os.ftruncate(fd, len(data))


def tracked_bytes() -> Optional[int]:
    """The running total as recorded, or None when it is unknown (the
    next publish then rescans)."""
    try:
        with _usage_locked(exclusive=False) as fd:
            return None if fd is None else _read_total(fd)
    except OSError:
        return None


def _account(fd: Optional[int], delta: int) -> None:
    """Add one publish's ``delta`` bytes to the running total open on
    ``fd``.  Only when the total is unknown or the new one exceeds
    ``max_bytes()`` does the full scan (and maybe the trim) of
    :func:`_maybe_evict` run; its measured total then replaces the
    running one.  The caller holds the lock across its rename and this
    update, scan and trim included, so concurrent publishes keep the
    total exact.

    Only deletions outside a trim — ``invalidate``, corrupt-entry
    drops, ``verify`` — make it drift, and they leave it high: that
    bound.  The scan corrects it.  A writer of an older version sharing
    the store does not update the total; the next scan counts its
    entries.  Without the total (``fd`` None: no ``fcntl``, or
    ``.usage`` would not open) the publish scans, and trims unlocked,
    counted in ``cache.disk.lock_skips``."""
    if fd is None:
        counters.values["cache.disk.lock_skips"] += 1
        _maybe_evict()
        return
    try:
        total = _read_total(fd)
        if total is not None:
            total += delta
            if total <= max_bytes():
                _write_total(fd, total)
                return
        scanned = _maybe_evict()
        if scanned is not None:
            total = scanned
        if total is not None:
            _write_total(fd, total)
    except OSError:
        pass  # a missed update leaves the total unknown or high


def _scan(root: Path) -> Tuple[list, int]:
    """One pass over the shard directories: ``(mtime, size, path)`` of
    every entry and their total size.  Publish temps older than
    ``_ORPHAN_MAX_AGE_SECONDS`` are removed on the way — a writer that
    died between ``mkstemp`` and ``os.replace`` leaves one, and nothing
    else ever deletes it."""
    import time

    cutoff = time.time() - _ORPHAN_MAX_AGE_SECONDS
    with os.scandir(root) as listing:
        shards = [
            item.path for item in listing
            if not item.name.startswith(".") and item.is_dir()
        ]
    entries = []
    total = 0
    for shard in shards:
        try:
            listing = os.scandir(shard)
        except OSError:
            continue
        with listing:
            for item in listing:
                name = item.name
                try:
                    if name.startswith(".tmp-"):
                        if item.stat().st_mtime < cutoff:
                            os.unlink(item.path)
                            counters.values["cache.disk.orphans_removed"] += 1
                    elif (name.endswith(_ENTRY_SUFFIX)
                          and not name.startswith(".")):
                        meta = item.stat()
                        entries.append((meta.st_mtime, meta.st_size, item.path))
                        total += meta.st_size
                except OSError:
                    continue
    return entries, total


def _maybe_evict() -> Optional[int]:
    """Full scan (:func:`_scan`) and LRU size bound: trim oldest-access
    entries to ``_EVICT_TO`` of ``max_bytes()`` once the store
    overflows it.  Returns the store's total bytes after the trim, or
    None when the store cannot be listed."""
    bound = max_bytes()
    try:
        entries, total = _scan(cache_dir() / f"v{SCHEMA_VERSION}")
    except OSError:
        return None
    if total <= bound:
        return total
    entries.sort()  # oldest access first
    target = bound * _EVICT_TO
    for __, size, path in entries:
        if total <= target:
            break
        try:
            os.unlink(path)
            total -= size
            counters.values["cache.disk.evictions"] += 1
        except OSError:
            continue
    return total


# ----------------------------------------------------------------------
# Artifact (de)serialisation
# ----------------------------------------------------------------------
def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=4)


#: What deserialising a stale or hostile payload can legitimately
#: raise: the pickle protocol's own errors (``UnpicklingError``,
#: ``EOFError``, ``AttributeError``, ``ImportError``, ``IndexError``
#: per the pickle docs), and ``KeyError`` / ``TypeError`` /
#: ``ValueError`` / ``UnicodeDecodeError`` from malformed opcodes and
#: reconstructed state.  Anything else (``KeyboardInterrupt``,
#: ``MemoryError``, a genuine repro bug) propagates — a cache must
#: degrade on bad *data*, not mask broken *code*.
_DESERIALISE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
    UnicodeDecodeError,
)


def _loads(data: bytes):
    return pickle.loads(data)


def _note_load_failure(kind: str, exc: BaseException) -> None:
    from ..testing import faults

    faults.note_swallowed(f"cache_load[{kind}]", exc)


def dump_checked(checked) -> bytes:
    return _dumps(checked)


def load_checked(data: bytes):
    """Deserialise a front-end artifact; None on any data failure
    (counted in ``load_failures``, logged under
    ``REPRO_DEBUG_FAULTS=1``)."""
    from ..glsl.typecheck import CheckedShader

    try:
        checked = _loads(data)
    except _DESERIALISE_ERRORS as exc:
        counters.values["cache.disk.load_failures"] += 1
        _note_load_failure("frontend", exc)
        return None
    return checked if isinstance(checked, CheckedShader) else None


def encode_captured(captured: Dict[str, object]) -> Optional[Dict]:
    """Pickle-safe encoding of a JIT function's captured namespace:
    ndarrays as-is, builtin implementations by registry key.  None when
    some captured object has no shippable encoding (the entry is then
    simply not cached)."""
    from ..glsl.builtins import OVERLOADS_BY_KEY

    impl_keys = {
        id(overload.impl): key
        for key, overload in OVERLOADS_BY_KEY.items()
    }
    encoded: Dict[str, Tuple[str, object]] = {}
    for name in sorted(captured):
        obj = captured[name]
        if isinstance(obj, np.ndarray):
            encoded[name] = ("array", obj)
        else:
            key = impl_keys.get(id(obj))
            if key is None:
                return None
            encoded[name] = ("builtin", key)
    return encoded


def decode_captured(encoded: Dict) -> Dict[str, object]:
    from ..glsl.builtins import OVERLOADS_BY_KEY

    return {
        name: (payload if kind == "array" else OVERLOADS_BY_KEY[payload].impl)
        for name, (kind, payload) in encoded.items()
    }


def dump_jit_entry(source: str, encoded_captured: Dict, code,
                   bindings, cost) -> bytes:
    """The generated source, its captured namespace and its compiled
    code object (``marshal``: valid within one Python minor version,
    which the key pins), so a warm load execs without ``compile()``;
    and the program's bindings and static cost, so a warm draw runs
    without the IR program."""
    return _dumps({
        "source": source,
        "captured": encoded_captured,
        "code": marshal.dumps(code),
        "bindings": bindings,
        "cost": cost,
    })


def load_jit_entry(data: bytes) -> Optional[Dict]:
    """Deserialise a JIT artifact — ``{"source", "captured", "code",
    "bindings", "cost"}``; None on any data failure."""
    try:
        entry = _loads(data)
    except _DESERIALISE_ERRORS as exc:
        counters.values["cache.disk.load_failures"] += 1
        _note_load_failure("jit", exc)
        return None
    if not isinstance(entry, dict):
        return None
    if not isinstance(entry.get("source"), str):
        return None
    if not isinstance(entry.get("captured"), dict):
        return None
    if not isinstance(entry.get("code"), bytes):
        return None
    if not isinstance(entry.get("bindings"), tuple) \
            or entry.get("cost") is None:
        return None
    return entry
