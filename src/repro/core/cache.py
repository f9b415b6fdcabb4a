"""``repro.core.cache`` — persistent, content-addressed compile-artifact store.

The paper's platform makes shader compilation expensive relative to
kernel runtime, and the repro models that cost explicitly (the
wall-time model's compile term, ``relinks_on_relaunch`` in the bench
report).  The in-process caches already make *relaunches* free; this
module makes *process launches* cheap too, by persisting the compile
pipeline's artifacts on disk so every later process — a cold CLI run,
a pytest session, a ``gles2.parallel`` worker — warm-starts from the
store instead of re-running parse → typecheck → IR-optimise →
JIT-codegen.

Three artifact kinds are stored, one per pipeline stage:

``frontend``
    The pickled :class:`~repro.glsl.typecheck.CheckedShader` (the
    parse/typecheck result), keyed by (stage, source digest).
``ir``
    The pickled optimised :class:`~repro.glsl.ir.nodes.CompiledProgram`
    (lowering + the whole pass pipeline), keyed additionally by the
    float model and fusion signature.
``jit``
    The generated NumPy source, its marshalled code object, and its
    captured namespace in a pickle-safe encoding (arrays as-is, builtin
    implementations by registry key), keyed additionally by the
    texture-gather flag and the wide-global set.  Programs outside the
    JIT subset store an ``unsupported`` marker so the negative result
    is warm too.

Every key mixes in the cache schema version and the Python/NumPy
versions (:func:`env_fingerprint`), so interpreter or dependency
upgrades silently invalidate the whole store rather than feeding a new
runtime stale artifacts.

Storage is crash- and concurrency-safe by construction: entries are
single files written to a temp name and published with an atomic
``os.replace`` (readers never observe torn writes), the LRU eviction
scan serialises on an advisory ``fcntl`` lock, and *any* invalid entry
— truncated, garbage, checksum-mismatched, wrong schema — is treated
as a miss, deleted, and recompiled.  A racing second writer simply
republishes bit-identical content.

Knobs (environment, read lazily so tests can flip them):

``REPRO_CACHE=0``
    Disable the disk layer entirely (in-process caches unaffected).
``REPRO_CACHE_DIR``
    Store location (default ``~/.cache/repro``).
``REPRO_CACHE_MAX_BYTES``
    LRU size bound (default 256 MiB); the store is trimmed to 80 % of
    the bound, oldest-access first, when a write overflows it.

Observability: every lookup/eviction/corruption tallies into the
``cache.disk.*`` counters of :mod:`repro.perf.counters`; GL contexts
attribute the part accrued during their own compiles and draws, and
``python -m repro.cache`` reports the store's contents (see that
module for the maintenance CLI).
"""

from __future__ import annotations

import hashlib
import io
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
SCHEMA_VERSION = 6

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
    gather: Optional[bool] = None,
    wide: Iterable[str] = (),
    fusion: str = "",
) -> str:
    """Compose one content-addressed key.

    Every knob that changes the artifact's bytes is a component:
    the GLSL source digest, the shader stage, the float model, the
    texture-gather flag, the wide-global set (JIT only), the fusion
    signature of composed map chains, the schema version, and the
    Python/NumPy versions.  Execution-irrelevant knobs
    (``shade_workers``, ``graph_mode``) deliberately have no component:
    they change scheduling, never generated code.
    """
    parts = (
        f"schema={SCHEMA_VERSION}",
        f"env={env_fingerprint()}",
        f"kind={kind}",
        f"src={source_digest}",
        f"stage={stage}",
        f"model={model}",
        f"gather={'' if gather is None else int(bool(gather))}",
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


def contains(key: str) -> bool:
    """Entry presence without reading it (no hit/miss accounting)."""
    if not enabled():
        return False
    try:
        return _entry_path(key).is_file()
    except OSError:
        return False


def put(key: str, payload: bytes, kind: str) -> bool:
    """Publish one entry atomically (tmp file + rename); runs the LRU
    trim afterwards.  Failures never break a compile — they are
    counted (``write_failures``), optionally logged
    (``REPRO_DEBUG_FAULTS=1``), and the caller proceeds uncached."""
    if not enabled():
        return False
    from ..testing import faults

    path = _entry_path(key)
    tmp = None
    try:
        if faults.fire("cache_enospc"):
            raise OSError(28, "injected fault: no space left on device")
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        with os.fdopen(fd, "wb") as handle:
            handle.write(_pack(payload, kind))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        tmp = None
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
    _maybe_evict()
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
    """Remove every entry; returns the number removed."""
    removed = 0
    for path in iter_entries():
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
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
                elif header.get("kind") == "ir":
                    ok = load_program(payload, None) is not None
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


#: How old an unpublished ``.tmp-*`` file must be before the trim
#: treats it as an orphan (a writer killed between mkstemp and
#: os.replace).  One hour: comfortably past any legitimate in-flight
#: publish, so a racing live writer is never swept.
_ORPHAN_MAX_AGE_SECONDS = 3600.0


def _sweep_orphans(root: Path) -> None:
    """Remove stale mkstemp leftovers the atomic-publish protocol can
    leak when a writer dies mid-publish.  Without this the LRU trim
    never touches them (it only scans ``*.art``) and they accumulate
    forever in the cache dir."""
    import time

    cutoff = time.time() - _ORPHAN_MAX_AGE_SECONDS
    try:
        candidates = list(root.glob("*/.tmp-*"))
    except OSError:
        return
    for path in candidates:
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
                counters.values["cache.disk.orphans_removed"] += 1
        except OSError:
            continue


def _maybe_evict() -> None:
    """LRU size bound: trim oldest-access entries once the store
    overflows ``max_bytes()``.  The scan serialises on an advisory
    lock; a contended lock skips the trim (another process is already
    doing it, counted in ``lock_skips``).  Every run also sweeps
    orphaned publish temp files (:func:`_sweep_orphans`)."""
    bound = max_bytes()
    root = cache_dir() / f"v{SCHEMA_VERSION}"
    from ..testing import faults

    _sweep_orphans(root)
    lock_handle = None
    try:
        entries = []
        total = 0
        for path in root.glob(f"*/*{_ENTRY_SUFFIX}"):
            try:
                meta = path.stat()
            except OSError:
                continue
            entries.append((meta.st_mtime, meta.st_size, path))
            total += meta.st_size
        if total <= bound:
            return
        if faults.fire("cache_lock"):
            counters.values["cache.disk.lock_skips"] += 1
            return  # injected contention: someone else is trimming
        try:
            import fcntl

            lock_handle = open(root / ".lock", "a+b")
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except ImportError:
            lock_handle = None
        except OSError:
            counters.values["cache.disk.lock_skips"] += 1
            if lock_handle is not None:
                lock_handle.close()
            return  # someone else is trimming
        entries.sort()  # oldest access first
        target = bound * _EVICT_TO
        for __, size, path in entries:
            if total <= target:
                break
            try:
                path.unlink()
                total -= size
                counters.values["cache.disk.evictions"] += 1
            except OSError:
                continue
    except OSError:
        return
    finally:
        if lock_handle is not None:
            lock_handle.close()


# ----------------------------------------------------------------------
# Artifact (de)serialisation
# ----------------------------------------------------------------------
def _builtin_by_key(key: str):
    """Unpickle target for a builtin overload shipped by registry key
    (its ``impl`` lambda does not pickle).  A key the registry no
    longer holds raises ``KeyError``: a counted load failure."""
    from ..glsl.builtins import OVERLOADS_BY_KEY

    return OVERLOADS_BY_KEY[key]


def _reduce_builtin(overload):
    return (_builtin_by_key, (overload.key,))


def _fresh_program():
    from ..glsl.ir.nodes import CompiledProgram

    program = CompiledProgram.__new__(CompiledProgram)
    program.checked = None
    program._const_cache = {}
    program.linear = None
    program.global_linear = None
    return program


def _reduce_program(program):
    """Strip a :class:`CompiledProgram` down to its persistent fields —
    the structured IR, register count and constant pool — dropping the
    attached runtime caches and the live CheckedShader reference."""
    state = {
        "globals_plan": program.globals_plan,
        "body": program.body,
        "nregs": program.nregs,
        "consts": program.consts,
    }
    return (_fresh_program, (), state)


_dispatch_table = None


def _artifact_dispatch_table():
    """The copyreg table plus the two artifact reducers.  A dispatch
    table is looked up by exact type inside the C pickler, so unlike a
    ``persistent_id``/``reducer_override`` hook it costs no Python call
    per pickled object.  Built on first use: the GLSL modules import
    this one."""
    global _dispatch_table
    if _dispatch_table is None:
        import copyreg

        from ..glsl.builtins import BuiltinOverload
        from ..glsl.ir.nodes import CompiledProgram

        table = copyreg.dispatch_table.copy()
        table[BuiltinOverload] = _reduce_builtin
        table[CompiledProgram] = _reduce_program
        _dispatch_table = table
    return _dispatch_table


def _dumps(obj) -> bytes:
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.dispatch_table = _artifact_dispatch_table()
    pickler.dump(obj)
    return buffer.getvalue()


#: What deserialising a stale or hostile payload can legitimately
#: raise: the pickle protocol's own errors (``UnpicklingError``,
#: ``EOFError``, ``AttributeError``, ``ImportError``, ``IndexError``
#: per the pickle docs), ``KeyError`` from :func:`_builtin_by_key`
#: resolving a builtin key that no longer exists in the registry, and
#: ``TypeError`` / ``ValueError`` / ``UnicodeDecodeError`` from
#: malformed opcodes and reconstructed state.  Anything else (``KeyboardInterrupt``,
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


def dump_program(program) -> bytes:
    return _dumps(program)


def load_program(data: bytes, checked):
    """Deserialise an IR artifact and re-attach the live CheckedShader;
    None on any failure."""
    from ..glsl.ir.nodes import CompiledProgram

    try:
        program = _loads(data)
    except _DESERIALISE_ERRORS as exc:
        counters.values["cache.disk.load_failures"] += 1
        _note_load_failure("ir", exc)
        return None
    if not isinstance(program, CompiledProgram):
        return None
    program.checked = checked
    return program


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


def dump_jit_entry(source: str, encoded_captured: Dict, code) -> bytes:
    """The generated source, its captured namespace and its compiled
    code object (``marshal``: valid within one Python minor version,
    which the key pins), so a warm load execs without ``compile()``."""
    return _dumps({
        "source": source,
        "captured": encoded_captured,
        "code": marshal.dumps(code),
    })


def dump_jit_unsupported(reason: str) -> bytes:
    return _dumps({"unsupported": reason})


def load_jit_entry(data: bytes) -> Optional[Dict]:
    """Deserialise a JIT artifact — either ``{"source", "captured",
    "code"}`` or ``{"unsupported": reason}``; None on any data
    failure."""
    try:
        entry = _loads(data)
    except _DESERIALISE_ERRORS as exc:
        counters.values["cache.disk.load_failures"] += 1
        _note_load_failure("jit", exc)
        return None
    if not isinstance(entry, dict):
        return None
    if "unsupported" in entry:
        return entry
    if not isinstance(entry.get("source"), str):
        return None
    if not isinstance(entry.get("captured"), dict):
        return None
    if not isinstance(entry.get("code"), bytes):
        return None
    return entry
