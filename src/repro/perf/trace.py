"""``repro.perf.trace`` — structured span/event tracing for the stack.

The paper's §V claims are about *where application wall time goes*
(compile, transfer, pack/unpack, shade).  The counters answer that in
aggregate; this module answers it per event: a low-overhead recorder
that the whole stack threads spans through — context lifecycle,
``execute_draw`` phases, pool dispatch, artifact-cache traffic, and
launch-graph replay — and that exports Chrome trace-event JSON
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Design rules:

* **Disabled is free.**  No recorder installed → :func:`span` returns
  a shared no-op context manager and :func:`instant` returns after one
  global read.  Nothing is timed, nothing allocates per call beyond
  the argument tuple.  ``perf_smoke`` holds the regression under 2 %.
* **One global recorder.**  Tracing is process-wide observability, not
  per-context state: ``REPRO_TRACE=path.json`` installs a recorder at
  import (written atexit), ``device.trace()`` installs one for a
  scope, tests use :func:`start`/:func:`stop` directly.
* **Fork-safe.**  The atexit writer checks the owner pid, so forked
  pool workers inheriting the recorder never clobber the leader's
  file.  Workers do not write at all — their spans travel back to the
  leader inside the chunk-result tuple (see
  :mod:`repro.gles2.parallel`) and are ingested with the worker's pid,
  so a multiprocess draw renders as one timeline with one track per
  process.
* **Bounded.**  ``REPRO_TRACE_MAX_EVENTS`` (default 200000) caps the
  in-memory buffer; overflow is counted in ``otherData.dropped_events``
  rather than silently truncated.

Timestamps are ``time.perf_counter()`` microseconds.  On Linux that is
CLOCK_MONOTONIC, which forked workers share, so leader and worker
spans land on one consistent axis (spawned workers get their own
epoch — their spans remain valid events on separate tracks).

Span taxonomy (``cat`` / ``name``):

=========  =====================================================
category   names
=========  =====================================================
device     device.context (instant)
compile    compile.shader, compile.ir, compile.jit
upload     upload.texture, upload.buffer
readback   readback.pixels
draw       draw, draw.vertex, draw.raster, draw.varyings,
           draw.shade, draw.merge, draw.quantise, draw.write
pool       pool.submit, pool.chunk, worker.materialize,
           worker.shade; instants pool.retry, pool.restart,
           pool.fallback
cache      instants cache.hit, cache.miss, cache.corrupt,
           cache.publish
graph      graph.replay; instants graph.fuse, graph.fallback
=========  =====================================================

The ``draw`` span carries the draw's :class:`DrawStats` numbers, the
registry counters (:mod:`repro.perf.counters`) that changed during the
draw under ``counters``, and the modeled
:class:`~repro.perf.gpu_model.GpuModel` cost next to the real elapsed
time, so one span shows measured wall time and the VideoCore-IV
prediction side by side.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from typing import Dict, List, Optional

__all__ = [
    "TraceRecorder",
    "active",
    "configure_from_env",
    "enabled",
    "instant",
    "raw_event",
    "session",
    "span",
    "start",
    "stop",
]

_DEFAULT_MAX_EVENTS = 200_000

#: The process-wide recorder, or None when tracing is disabled.
_recorder: Optional["TraceRecorder"] = None


class _NullSpan:
    """Shared no-op context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times its ``with`` block and emits one complete
    ("X") event on exit.  ``args`` may be filled in (or replaced)
    inside the block — counter deltas are usually known only at the
    end."""

    __slots__ = ("_recorder", "name", "cat", "args", "_t0")

    def __init__(self, recorder, name, cat, args):
        self._recorder = recorder
        self.name = name
        self.cat = cat
        self.args = args if args is not None else {}

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._recorder.complete(
            self.name, self.cat, self._t0, time.perf_counter(), self.args
        )
        return False


def raw_event(
    name: str,
    cat: str,
    t0: float,
    t1: float,
    args: Optional[Dict] = None,
    pid: Optional[int] = None,
) -> Dict:
    """A complete event dict from explicit ``perf_counter`` readings —
    the form pool workers build locally and ship back to the leader."""
    event = {
        "ph": "X",
        "name": name,
        "cat": cat,
        "ts": t0 * 1e6,
        "dur": max(t1 - t0, 0.0) * 1e6,
        "pid": pid if pid is not None else os.getpid(),
        "tid": 0,
    }
    if args:
        event["args"] = args
    return event


class TraceRecorder:
    """In-memory Chrome trace-event buffer with bounded growth."""

    def __init__(self, path: Optional[str] = None,
                 max_events: Optional[int] = None):
        if max_events is None:
            from ..core.knobs import int_knob

            max_events = int_knob(
                "REPRO_TRACE_MAX_EVENTS", _DEFAULT_MAX_EVENTS, minimum=1
            )
        self.path = path
        self.max_events = max_events
        self.pid = os.getpid()
        self.events: List[Dict] = []
        self.dropped = 0

    # -- recording -----------------------------------------------------
    def _append(self, event: Dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def complete(self, name: str, cat: str, t0: float, t1: float,
                 args: Optional[Dict] = None) -> None:
        self._append(raw_event(name, cat, t0, t1, args, pid=self.pid))

    def instant(self, name: str, cat: str,
                args: Optional[Dict] = None) -> None:
        event = {
            "ph": "i",
            "name": name,
            "cat": cat,
            "ts": time.perf_counter() * 1e6,
            "pid": self.pid,
            "tid": 0,
            "s": "p",
        }
        if args:
            event["args"] = args
        self._append(event)

    def ingest(self, events) -> int:
        """Fold worker-shipped event dicts into this buffer.  Events
        that fail the structural check (a sick worker can garble
        anything) are dropped, not raised — tracing must never take a
        draw down.  Returns the number accepted."""
        accepted = 0
        for event in events:
            if not isinstance(event, dict):
                continue
            if not isinstance(event.get("name"), str):
                continue
            if not isinstance(event.get("ts"), (int, float)):
                continue
            if event.get("ph") == "X" and not isinstance(
                event.get("dur"), (int, float)
            ):
                continue
            self._append(dict(event))
            accepted += 1
        return accepted

    # -- export --------------------------------------------------------
    def to_chrome_trace(self) -> Dict:
        """The exported document: Chrome trace-event JSON object form."""
        return {
            "traceEvents": sorted(self.events, key=lambda e: e["ts"]),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.perf.trace",
                "clock": "perf_counter_us",
                "dropped_events": self.dropped,
            },
        }

    def export(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)


# ----------------------------------------------------------------------
# Module-level API (what instrumented code calls)
# ----------------------------------------------------------------------
def active() -> Optional[TraceRecorder]:
    """The installed recorder, or None when tracing is disabled."""
    return _recorder


def enabled() -> bool:
    return _recorder is not None


def span(name: str, cat: str = "", args: Optional[Dict] = None):
    """A context manager timing its block into one complete event —
    or the shared no-op when tracing is off (the disabled fast path:
    one global read, zero allocation beyond the call itself)."""
    recorder = _recorder
    if recorder is None:
        return _NULL_SPAN
    return _Span(recorder, name, cat, args)


def instant(name: str, cat: str = "", args: Optional[Dict] = None) -> None:
    """Record a point event (no duration); no-op when disabled."""
    recorder = _recorder
    if recorder is not None:
        recorder.instant(name, cat, args)


def start(path: Optional[str] = None,
          max_events: Optional[int] = None) -> TraceRecorder:
    """Install a fresh process-wide recorder (replacing any current
    one) and return it."""
    global _recorder
    _recorder = TraceRecorder(path=path, max_events=max_events)
    return _recorder


def stop(write: bool = True) -> Optional[TraceRecorder]:
    """Uninstall the recorder; write its file when it has a path.
    Returns the recorder (for inspection) or None if none was active."""
    global _recorder
    recorder = _recorder
    _recorder = None
    if recorder is not None and write and recorder.path:
        recorder.export(recorder.path)
    return recorder


class session:
    """``with trace.session("out.json"):`` — scoped tracing.  When a
    recorder is already installed (e.g. via ``REPRO_TRACE``) the
    session joins it instead of replacing it, so nesting
    ``device.trace()`` under an environment-wide trace composes."""

    def __init__(self, path: Optional[str] = None,
                 max_events: Optional[int] = None):
        self.path = path
        self.max_events = max_events
        self._owned = False

    def __enter__(self) -> TraceRecorder:
        if _recorder is not None:
            return _recorder
        self._owned = True
        return start(self.path, self.max_events)

    def __exit__(self, *exc) -> bool:
        if self._owned:
            stop(write=True)
        return False


def _atexit_flush() -> None:
    # Guarded by owner pid: forked pool workers inherit the module
    # state (including this registered hook) but must never write the
    # leader's file.
    recorder = _recorder
    if (
        recorder is not None
        and recorder.path
        and recorder.pid == os.getpid()
    ):
        try:
            recorder.export(recorder.path)
        except OSError:
            pass


def configure_from_env() -> Optional[TraceRecorder]:
    """Honour ``REPRO_TRACE=path.json``: install a recorder whose
    buffer is flushed to that path at interpreter exit.  Called once
    at import; exposed for tests that mutate the environment."""
    path = os.environ.get("REPRO_TRACE")
    if not path:
        return None
    recorder = start(path)
    return recorder


atexit.register(_atexit_flush)
configure_from_env()
