"""Optional multiprocess fragment shading for the JIT backend.

Every fragment-stage quantity is per-lane, so any split of a draw's
fragment batch shades to the same values.  The pipeline splits a large
draw into one contiguous range per worker
(``raster.partition_tiles``), and this module shades the ranges on a
lazily-created :class:`~concurrent.futures.ProcessPoolExecutor` and
writes each result back into its range of the full batch.

Only the JIT backend parallelises: its generated function is *numpy
source by construction*, so a draw ships as

* a per-draw **plan** — the generated source text, the codegen's
  captured namespace objects (constant arrays as-is; builtin
  implementations by their registry key, since the lambdas themselves
  do not pickle), the float model, and the width-1 register bindings
  (uniforms, global-initializer results, sampler Textures), and
* per-chunk **jobs** — just the wide (per-fragment) register arrays,
  sliced to the chunk's range.

A worker rebuilds the function once per plan (cached by content
digest) and then runs ``fn(regs, n, maxit)`` exactly as the in-process
:class:`~repro.glsl.jit.JitExecutor` would, returning the
output-colour register, the discard mask and the outcome of each
fused-read site.  One chunk per worker pays the generated function's
fixed per-invocation numpy-dispatch cost once per worker.  Anything
that cannot be shipped (program outside the JIT subset, unknown
captured object) or any pool failure makes :func:`shade_draw` return
``None`` and the pipeline shades the draw in-process — the IR backend
always takes that path.

Counter semantics: the leader charges the draw's op counters and its
fused-read sites exactly as one in-process ``JitExecutor.execute``
would (dynamic global-init tally plus the static per-invocation
projection; each site once, a fallback if it missed in any chunk), but
only after the workers succeed; a failed dispatch leaves the counters
untouched so the in-process fallback can do its own accounting.

Failure policy (the paper's platform assumes flaky infrastructure, so
every pool failure mode has a typed, counted, bounded response — see
``docs/architecture.md`` §8):

* **Typed detection.**  Dispatch distinguishes shader semantics
  (:class:`~repro.glsl.errors.GlslLimitError` propagates), healthy-pool
  races (:class:`PlanCacheMiss` → immediate in-process fallback),
  malformed worker results (:class:`ChunkFormatError`), pool-transport
  death (``BrokenExecutor``/``OSError``/``EOFError``/pickling
  failures), and per-draw timeouts (``REPRO_POOL_TIMEOUT`` seconds per
  draw, 0 disables).  Nothing is caught bare.
* **Bounded retry.**  A transport death or timeout tears the pool down
  and rebuilds it (``pool.restarts``); the draw is re-dispatched at
  most once (``pool.retries``).  A draw that exhausts its attempts
  falls back to in-process shading (``fault.fallbacks``) with
  untouched counters — bit-identical by construction.
* **Circuit breaker.**  ``_MAX_CONSECUTIVE_FAILURES`` failed draws in
  a row mark the pool broken for the process (every later draw shades
  in-process without paying restart latency); any successful dispatch
  resets the streak.

The counters live in :mod:`repro.perf.counters`; each worker chunk
returns its fused-read site outcomes and the ``draw``-scope counters it
changed (disk plan loads), and the leader merges them only once the
whole draw has succeeded.  Deterministic fault injection for every one
of these paths is provided by :mod:`repro.testing.faults`
(``worker_crash`` / ``worker_hang`` / ``worker_garble`` sites; the
leader ships the active plan inside each worker payload so overrides
reach forked workers).
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..perf import counters, trace
from ..perf.counters import OpCounters

_POOL = None
_POOL_WORKERS = 0
_POOL_BROKEN = False
#: Draw-level pool failures since the last successful dispatch; at
#: ``_MAX_CONSECUTIVE_FAILURES`` the pool is marked broken for the
#: process (circuit breaker — see the module docstring).
_CONSECUTIVE_FAILURES = 0
_MAX_CONSECUTIVE_FAILURES = 5
#: Dispatch attempts per draw (initial + retries over a rebuilt pool).
_MAX_ATTEMPTS = 2
#: Default per-draw pool timeout in seconds (``REPRO_POOL_TIMEOUT``;
#: 0 disables).  Generous: a healthy worker chunk runs in milliseconds
#: to seconds, so the timeout only trips on genuinely wedged workers.
_DEFAULT_POOL_TIMEOUT = 300.0

#: What a dying pool can legitimately raise at submit or result time:
#: executor death (``BrokenExecutor`` covers ``BrokenProcessPool``),
#: transport failure to/from the worker (``OSError``/``EOFError``),
#: and payloads that fail to pickle.  Anything else is a repro bug and
#: propagates.
_POOL_ERRORS = (BrokenExecutor, OSError, EOFError, pickle.PicklingError)


class PlanCacheMiss(Exception):
    """A worker was handed a key-only plan whose disk entry vanished
    (eviction race).  The leader falls back to in-process shading —
    the pool itself is healthy."""


class ChunkFormatError(Exception):
    """A worker returned a structurally invalid chunk result (wrong
    tuple arity, non-broadcastable colour array, bogus discard mask,
    counters that are not ``draw``-scope integers).  The draw is
    retried once, then falls back in-process — garbage never reaches
    the framebuffer."""


def __getattr__(name):
    # ``parallel_draws``: the ``pool.draws`` counter, read-only, for
    # the benchmark ledger.
    if name == "parallel_draws":
        return counters.values["pool.draws"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def shutdown_pool() -> None:
    """Tear down the worker pool (test isolation / interpreter exit)."""
    global _POOL, _POOL_WORKERS, _POOL_BROKEN, _CONSECUTIVE_FAILURES
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
    _POOL = None
    _POOL_WORKERS = 0
    _POOL_BROKEN = False
    _CONSECUTIVE_FAILURES = 0


# Release a live pool before interpreter teardown clears module
# globals; collecting it later makes its manager thread's weakref
# callback fail noisily on the way out.
atexit.register(shutdown_pool)


def _get_pool(workers: int):
    """The shared pool, (re)created on first use or worker-count change.
    Returns None when process pools are unavailable on this platform
    or the circuit breaker has tripped."""
    global _POOL, _POOL_WORKERS, _POOL_BROKEN
    if workers <= 0 or _POOL_BROKEN:
        return None
    if _POOL is not None and _POOL_WORKERS == workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
    try:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context("spawn")
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        _POOL_WORKERS = workers
    except (ImportError, OSError, ValueError, RuntimeError) as exc:
        # Platform without usable process pools (no multiprocessing
        # primitives, fork refused, sandboxed).  Permanent for the
        # process: retrying pool *creation* cannot succeed later.
        from ..testing import faults

        faults.note_swallowed("pool_create", exc)
        _POOL_BROKEN = True
        _POOL = None
        return None
    return _POOL


def _restart_pool() -> None:
    """Tear the pool down after a transport failure or timeout so the
    next ``_get_pool`` builds a fresh one (counted by the caller in
    ``pool.restarts``).  Unlike pool-creation
    failure, this is *not* permanent — a crashed worker says nothing
    about the next pool.

    ``shutdown(wait=False)`` only abandons the executor: a worker
    wedged mid-chunk (the timeout case) stays alive, holding its CPU
    and — under fork — whatever memory the draw shipped, for the rest
    of the leader process's life.  Terminate the old pool's worker
    processes outright so the retry attempt starts on healthy workers
    with nothing competing for their cores."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        # _processes is ProcessPoolExecutor internals (pid → Process);
        # absent or reshaped on some platforms, hence the broad guard —
        # missing the kill only degrades to the old leak, never breaks
        # the restart.
        try:
            stale = list(getattr(_POOL, "_processes", {}).values())
        except (AttributeError, TypeError, RuntimeError):
            stale = []
        _POOL.shutdown(wait=False, cancel_futures=True)
        for proc in stale:
            try:
                if proc.is_alive():
                    proc.terminate()
            except (AttributeError, OSError, ValueError):
                pass
    _POOL = None
    _POOL_WORKERS = 0


def _note_draw_outcome(success: bool) -> None:
    """Feed the circuit breaker: repeated draw-level failures mark the
    pool broken for the process; one success resets the streak."""
    global _CONSECUTIVE_FAILURES, _POOL_BROKEN
    if success:
        _CONSECUTIVE_FAILURES = 0
        return
    _CONSECUTIVE_FAILURES += 1
    if _CONSECUTIVE_FAILURES >= _MAX_CONSECUTIVE_FAILURES:
        _POOL_BROKEN = True


# ----------------------------------------------------------------------
# Plan encoding (leader side)
# ----------------------------------------------------------------------
def _encode_captured(fn) -> Optional[Tuple[Dict, str]]:
    """Picklable form of the generated function's captured namespace,
    plus a content digest identifying (source, captured, model) for the
    worker-side function cache.  Returns None when some captured object
    has no shippable encoding."""
    cached = getattr(fn, "_parallel_encoding", None)
    if cached is not None:
        return cached if cached != "unsupported" else None
    from ..glsl.builtins import OVERLOADS_BY_KEY

    impl_keys = {
        id(overload.impl): key
        for key, overload in OVERLOADS_BY_KEY.items()
    }
    encoded: Dict[str, Tuple[str, object]] = {}
    digest = hashlib.sha1(fn._jit_source.encode())
    for name in sorted(fn._jit_captured):
        obj = fn._jit_captured[name]
        digest.update(name.encode())
        if isinstance(obj, np.ndarray):
            encoded[name] = ("array", obj)
            digest.update(str(obj.dtype).encode())
            digest.update(str(obj.shape).encode())
            digest.update(np.ascontiguousarray(obj).tobytes())
        else:
            key = impl_keys.get(id(obj))
            if key is None:
                fn._parallel_encoding = "unsupported"
                return None
            encoded[name] = ("builtin", key)
            digest.update(key.encode())
    result = (encoded, digest.hexdigest())
    fn._parallel_encoding = result
    return result


def shade_draw(
    fs_interp,
    presets: Dict[str, "object"],
    chunks: List[slice],
    workers: int,
    out_name: str,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Shade one draw on the worker pool, one job per chunk.

    ``fs_interp`` must be a :class:`~repro.glsl.jit.JitExecutor` for
    the fragment shader; ``presets`` the full-batch fragment presets;
    ``chunks`` contiguous ranges covering the batch
    (:func:`~repro.gles2.raster.partition_tiles`); ``out_name`` the
    written colour builtin (``gl_FragColor`` or ``gl_FragData``).
    Returns the merged full-batch ``(color, discarded)`` — (n, 4)
    float64 colours and the (n,) discard mask, as an in-process run
    would produce them — or ``None`` when the draw cannot run out of
    process (caller shades in-process).

    :class:`~repro.glsl.errors.GlslLimitError` raised inside a worker
    (loop-cap overflow) propagates, matching in-process semantics.
    """
    from ..glsl.errors import GlslLimitError
    from ..glsl.ir import get_compiled
    from ..glsl.interp import Interpreter
    from ..glsl.jit import JitExecutor, _jit_function
    from ..glsl.jit.codegen import count_sites

    if not isinstance(fs_interp, JitExecutor):
        return None
    pool = _get_pool(workers)
    if pool is None:
        return None

    program = fs_interp.program
    if program is None or program.checked is not fs_interp.checked:
        program = get_compiled(fs_interp.checked, fs_interp.fmodel)
        fs_interp.program = program
    wide = frozenset(
        name for name, value in presets.items() if value.batch > 1
    )
    fn = _jit_function(program, fs_interp.fmodel, wide)
    if fn is None:
        return None
    encoding = _encode_captured(fn)
    if encoding is None:
        return None
    captured, digest = encoding

    # ------------------------------------------------------------------
    # Bind the registers with the executors' shared binding, tallying
    # global-initializer ops into a scratch sink that is only merged on
    # success (see module docstring), then split them into what every
    # chunk shares and the per-fragment (wide) arrays to slice.
    # ------------------------------------------------------------------
    n = chunks[-1].stop
    scratch = OpCounters()
    saved_counters = fs_interp.counters
    fs_interp.counters = scratch
    try:
        Interpreter.execute(fs_interp, n, presets)
    finally:
        fs_interp.counters = saved_counters
    out_reg = None
    base_regs: Dict[int, Tuple[str, object]] = {}
    wide_regs: Dict[int, np.ndarray] = {}
    for plan in program.globals_plan:
        value = fs_interp.regs[plan.reg]
        if plan.name == out_name:
            out_reg = plan.reg
        if plan.is_sampler:
            base_regs[plan.reg] = ("sampler", value.sampler)
        elif plan.name in wide:
            wide_regs[plan.reg] = value.data
        else:
            base_regs[plan.reg] = ("data", value.data)
    if out_reg is None:
        return None

    plan_payload = {
        "uid": digest,
        "fmodel": fs_interp.fmodel,
        "nregs": program.nregs,
        "base": base_regs,
        "out_reg": out_reg,
        "maxit": fs_interp.max_loop_iterations,
    }
    # Ship a disk-cache reference instead of the generated source when
    # the shared artifact store holds this function: workers then load
    # the artifact by key (once per plan per worker) and the pickle
    # stream carries only the key string.  The source payload remains
    # the fallback whenever no entry exists (cache disabled, capture
    # unsupported for storage, entry evicted).
    from ..core import cache as artifact_cache

    cache_key = getattr(fn, "_jit_disk_key", None)
    shipped_by_ref = cache_key is not None and artifact_cache.contains(cache_key)
    if shipped_by_ref:
        plan_payload["cache_key"] = cache_key
    else:
        plan_payload["source"] = fn._jit_source
        plan_payload["captured"] = captured
    # Ship the active fault-injection plan (if any) with the payload:
    # forked workers inherited the environment of pool-creation time,
    # so the leader's *current* view — including test-scoped overrides
    # and suppression — must travel by value.
    from ..testing import faults

    plan_payload["faults"] = faults.encode_active()
    # Tracing travels the same way: workers record their spans locally
    # and ship them back inside the chunk-result tuple (the leader's
    # recorder object itself never crosses the pool boundary).
    plan_payload["trace"] = trace.enabled()
    from ..core.knobs import float_knob

    timeout = float_knob(
        "REPRO_POOL_TIMEOUT", _DEFAULT_POOL_TIMEOUT, minimum=0.0
    )
    dispatched = None
    for attempt in range(_MAX_ATTEMPTS):
        if attempt:
            counters.values["pool.retries"] += 1
            pool = _get_pool(workers)
            if pool is None:
                break
        try:
            dispatched = _dispatch_chunks(
                pool, plan_payload, wide_regs, chunks, timeout, out_name,
            )
            break
        except GlslLimitError:
            # Shader semantics, not infrastructure: surface it like the
            # in-process executors do (the pool itself is still
            # healthy, but the counters charged below never happen —
            # matching a monolithic run, which raises before its
            # static accounting).
            raise
        except PlanCacheMiss:
            # The shared entry vanished between the leader's existence
            # check and the worker's load (eviction/clear race), or
            # the plan would not materialise worker-side.  The pool is
            # healthy; shade this draw in-process and let the next
            # draw re-ship (the leader will republish or fall back to
            # source).
            return None
        except (NameError, UnboundLocalError):
            # The generated function hit an unbound cross-region
            # CSE'd local on this draw's control-flow shape — the same
            # condition JitExecutor.execute handles in-process.  The
            # pool is healthy; this draw just needs the IR executor.
            counters.values["fault.fallbacks"] += 1
            return None
        except ChunkFormatError as exc:
            # Garbage result from one worker.  The pool transport is
            # intact, so retry on the same pool; a second helping of
            # garbage falls through to the in-process path.
            faults.note_swallowed("pool_dispatch", exc)
            trace.instant("pool.retry", "pool", {"reason": "chunk_format"})
        except (_FuturesTimeout, *_POOL_ERRORS) as exc:
            # Worker death, wedged worker past the per-draw deadline,
            # or broken transport: this pool is unusable.  Tear it
            # down and retry once on a fresh one.
            faults.note_swallowed("pool_dispatch", exc)
            _restart_pool()
            counters.values["pool.restarts"] += 1
            trace.instant("pool.restart", "pool",
                          {"reason": type(exc).__name__})
    if dispatched is None:
        # Retry budget exhausted (or the pool could not be rebuilt):
        # degrade to in-process shading with untouched counters.
        counters.values["fault.fallbacks"] += 1
        _note_draw_outcome(success=False)
        trace.instant("pool.fallback", "pool", {"reason": "exhausted"})
        return None
    _note_draw_outcome(success=True)
    results, sites, worker_counts, worker_spans = dispatched
    recorder = trace.active()
    if recorder is not None and worker_spans:
        recorder.ingest(worker_spans)

    with trace.span("draw.merge", "draw",
                    {"chunks": len(chunks), "fragments": n}):
        color = np.empty((n, 4), dtype=np.float64)
        discarded = np.zeros(n, dtype=bool)
        for chunk, chunk_color, chunk_discarded in results:
            if out_name == "gl_FragData":
                cn = chunk.stop - chunk.start
                chunk_color = np.broadcast_to(chunk_color, (cn, 1, 4))[:, 0]
            color[chunk] = chunk_color
            if chunk_discarded is not None:
                discarded[chunk] = chunk_discarded

    if saved_counters is not None:
        saved_counters.merge(scratch)
        fs_interp.counters = saved_counters
        fs_interp._charge_static(program, n)
    # Each fused site counts once for the whole draw, exactly as one
    # in-process run of the same generated function would count it.
    count_sites(sites)
    counters.merge(worker_counts)
    counters.values["pool.draws"] += 1
    if shipped_by_ref:
        counters.values["pool.plan_cache_refs"] += 1
    return color, discarded


def _dispatch_chunks(pool, plan_payload, wide_regs, chunks, timeout,
                     out_name):
    """Submit every chunk and gather validated results.

    Returns ``(results, sites, counts, spans)`` — ``results`` one
    ``(chunk, color, discarded)`` triple per chunk, ``sites`` the
    fused-read site outcomes of the whole draw (a site hit only if it
    hit in every chunk that ran it), ``counts`` the summed
    ``draw``-scope counter changes of every chunk, ``spans`` their
    worker-recorded trace events (empty while tracing is off); raises
    the typed failure taxonomy the caller's retry loop dispatches on.
    The per-draw timeout is a shared deadline across the chunk
    futures — the draw as a whole gets ``timeout`` seconds, not each
    chunk.
    """
    futures = []
    with trace.span("pool.submit", "pool", {"chunks": len(chunks)}):
        for chunk in chunks:
            job = {reg: data[chunk] for reg, data in wide_regs.items()}
            futures.append(pool.submit(
                _shade_chunk, plan_payload, job, chunk.stop - chunk.start
            ))
    deadline = (time.monotonic() + timeout) if timeout else None
    results: List[Tuple[slice, np.ndarray, Optional[np.ndarray]]] = []
    sites: Dict[int, bool] = {}
    counts: Dict[str, int] = {}
    spans: List[dict] = []
    try:
        for chunk_no, (chunk, future) in enumerate(zip(chunks, futures)):
            count = chunk.stop - chunk.start
            with trace.span("pool.chunk", "pool",
                            {"chunk": chunk_no, "fragments": count}):
                if deadline is None:
                    raw = future.result()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise _FuturesTimeout(
                            "per-draw pool timeout exhausted"
                        )
                    raw = future.result(timeout=remaining)
                color, discarded, chunk_sites, chunk_counts, chunk_spans = (
                    _validate_chunk(raw, count, out_name)
                )
            for site, hit in chunk_sites.items():
                sites[site] = sites.get(site, True) and hit
            counters.merge(chunk_counts, counts)
            spans.extend(chunk_spans)
            results.append((chunk, color, discarded))
    finally:
        # Whatever the outcome, never leave stragglers queued: a
        # failed draw's pending chunks would otherwise burn workers
        # shading a framebuffer nobody will assemble.
        for future in futures:
            future.cancel()
    return results, sites, counts, spans


def _validate_chunk(raw, count: int, out_name: str):
    """Structural validation of one worker result — the leader's
    defence against a sick worker returning garbage.  Raises
    :class:`ChunkFormatError`; returns the normalised tuple."""
    try:
        color, discarded, sites, chunk_counts, chunk_spans = raw
    except (TypeError, ValueError) as exc:
        raise ChunkFormatError(f"malformed chunk tuple: {exc}") from None
    if not isinstance(color, np.ndarray) or not np.issubdtype(
        color.dtype, np.floating
    ):
        raise ChunkFormatError(
            f"chunk colour is {type(color).__name__}, not a float array"
        )
    target = (count, 1, 4) if out_name == "gl_FragData" else (count, 4)
    try:
        np.broadcast_to(color, target)
    except ValueError:
        raise ChunkFormatError(
            f"chunk colour shape {color.shape} does not broadcast "
            f"to {target}"
        ) from None
    if discarded is not None:
        if (
            not isinstance(discarded, np.ndarray)
            or discarded.dtype != np.bool_
            or discarded.ndim != 1
            or discarded.shape[0] not in (1, count)
        ):
            raise ChunkFormatError("chunk discard mask is malformed")
    if not isinstance(sites, dict) or not all(
        type(site) is int and type(hit) is bool
        for site, hit in sites.items()
    ):
        raise ChunkFormatError(f"malformed chunk site outcomes: {sites!r}")
    if not isinstance(chunk_counts, dict) or not all(
        counters.SCOPES.get(name) == counters.DRAW
        and type(count) is int and count >= 0
        for name, count in chunk_counts.items()
    ):
        raise ChunkFormatError(f"malformed chunk counters: {chunk_counts!r}")
    if not isinstance(chunk_spans, (list, tuple)):
        raise ChunkFormatError("chunk trace spans are not a sequence")
    # Individual span dicts are validated (and bad ones dropped) by
    # TraceRecorder.ingest — observability must never fail the draw.
    return color, discarded, sites, chunk_counts, chunk_spans


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _Reg:
    """Minimal stand-in for :class:`~repro.glsl.values.Value`: the
    generated function touches only ``.data`` and ``.sampler``."""

    __slots__ = ("data", "sampler")

    def __init__(self, data=None, sampler=None):
        self.data = data
        self.sampler = sampler


_WORKER_FNS: Dict[str, object] = {}


def _materialize(plan):
    """Build (or reuse) the worker-side function for one plan; a load
    from the shared disk cache counts in ``pool.worker_disk_loads``."""
    fn = _WORKER_FNS.get(plan["uid"])
    if fn is not None:
        return fn
    # Any failure to turn the plan into a callable — a stale builtin
    # key, a source that no longer execs against this worker's helper
    # registry — is reported as the typed PlanCacheMiss so the leader
    # shades the draw in-process instead of seeing an arbitrary
    # exception cross the pool boundary.
    try:
        if "source" in plan:
            from ..glsl.builtins import OVERLOADS_BY_KEY
            from ..glsl.jit.codegen import make_helpers

            ns = make_helpers(plan["fmodel"])
            for name, (kind, payload) in plan["captured"].items():
                ns[name] = (
                    payload if kind == "array"
                    else OVERLOADS_BY_KEY[payload].impl
                )
            exec(compile(plan["source"], "<jit:worker>", "exec"), ns)
            fn = ns["_jit_main"]
        else:
            # Key-only plan: the generated source lives in the shared
            # artifact store; load it by digest instead of receiving
            # it through the pickle stream.
            from ..core import cache as artifact_cache
            from ..glsl import jit as jit_mod

            payload = artifact_cache.get(plan["cache_key"])
            entry = (artifact_cache.load_jit_entry(payload)
                     if payload is not None else None)
            if entry is None or "unsupported" in entry:
                raise PlanCacheMiss(plan["cache_key"])
            fn = jit_mod.materialize(
                entry["source"],
                artifact_cache.decode_captured(entry["captured"]),
                plan["fmodel"],
                entry["code"],
            )
            counters.values["pool.worker_disk_loads"] += 1
    except PlanCacheMiss:
        raise
    except (SyntaxError, KeyError, NameError, TypeError, ValueError,
            AttributeError, EOFError) as exc:
        raise PlanCacheMiss(f"plan not materialisable: {exc!r}")
    _WORKER_FNS[plan["uid"]] = fn
    return fn


def _shade_chunk(plan, wide_regs, count):
    """Shade one contiguous chunk of a draw in a single invocation;
    returns ``(color_data, discarded, sites, counts, spans)`` —
    ``sites`` the chunk's fused-read site outcomes (site number → hit
    on every execution; the leader merges them across chunks),
    ``counts`` the ``draw``-scope counters this chunk changed (a plan
    materialised from the shared disk cache), and ``spans`` this
    worker's trace events (empty unless the leader shipped
    ``plan["trace"]``; the leader ingests them so a multiprocess draw
    renders as one timeline).

    Fault-injection hooks run first, under the leader-shipped plan:
    ``worker_crash`` hard-kills this process (``os._exit``, so the
    leader sees ``BrokenProcessPool`` exactly as a segfaulting driver
    would present), ``worker_hang`` sleeps past the leader's per-draw
    deadline, and ``worker_garble`` swaps the colour result for
    garbage to exercise the leader's chunk validation."""
    from ..glsl.jit.codegen import begin_draw, site_outcomes
    from ..testing import faults

    faults.install_encoded(plan.get("faults"))
    if faults.fire("worker_crash"):
        import os as _os

        _os._exit(3)
    if faults.fire("worker_hang"):
        time.sleep(faults.hang_seconds())
    garble = faults.fire("worker_garble")
    traced = bool(plan.get("trace"))
    before = counters.snapshot(counters.DRAW)
    t0 = time.perf_counter() if traced else 0.0
    fn = _materialize(plan)
    t1 = time.perf_counter() if traced else 0.0
    regs: List[Optional[_Reg]] = [None] * plan["nregs"]
    for reg, (kind, payload) in plan["base"].items():
        if kind == "sampler":
            regs[reg] = _Reg(sampler=payload)
        else:
            regs[reg] = _Reg(data=payload)
    for reg, data in wide_regs.items():
        regs[reg] = _Reg(data=data)
    t2 = time.perf_counter() if traced else 0.0
    begin_draw()
    discarded = fn(regs, count, plan["maxit"])
    sites = dict(site_outcomes)
    changed = counters.delta(before)
    spans = ()
    if traced:
        t3 = time.perf_counter()
        spans = [
            trace.raw_event("worker.materialize", "pool", t0, t1, {
                "from_disk": changed.get("pool.worker_disk_loads", 0),
            }),
            trace.raw_event("worker.shade", "pool", t2, t3,
                            {"fragments": int(count)}),
        ]
    if garble:
        return np.full(3, np.nan), discarded, sites, changed, spans
    return regs[plan["out_reg"]].data, discarded, sites, changed, spans
