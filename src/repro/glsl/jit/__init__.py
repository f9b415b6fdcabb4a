"""``repro.glsl.jit`` — NumPy-source JIT backend for compiled shaders.

The default execution backend (the linear IR executor is the other):
:mod:`.codegen` walks the optimised IR once per
(program, wide-global set) and emits a single straight-line vectorised
Python function, materialised with ``compile()``/``exec``.  Steady-state
kernel relaunches then run **zero interpreter instructions** — one
function call per shader stage per draw, all the work inside numpy.

:mod:`.uniform` supplies the uniform-lane inference that keeps
registers depending only on uniforms/constants at batch width 1, so
per-draw quantities are computed once instead of once per fragment.

:class:`JitExecutor` is the drop-in `execute(n, presets)` engine.  It
shares the IR executor's whole setup path (program cache, and the
global binding of :meth:`repro.glsl.interp.Interpreter.execute`) and
differs only in how the body runs.
Programs using constructs outside the JIT subset (divergent returns,
structs, multi-step l-values — see :class:`~.codegen.JitUnsupported`)
fall back to the :class:`~repro.glsl.ir.executor.IRExecutor` at whole-
program granularity; each fallback *draw* increments the
``jit.fallbacks`` counter (:mod:`repro.perf.counters`).

Because the generated code does not tally ops dynamically, callers
that need :class:`~repro.perf.counters.OpCounters` totals get the
static IR-cost projection (:func:`repro.glsl.ir.static_cost`) instead,
applied once per draw.
"""

from __future__ import annotations

import contextlib
import marshal
from typing import Dict, FrozenSet

from ...core import cache as artifact_cache
from ...perf import counters, trace
from ...testing import faults
from ..interp import Interpreter
from ..values import Value
from ..ir import get_compiled, static_cost
from ..ir.executor import IRExecutor
from .codegen import (
    JitUnsupported,
    begin_draw,
    count_sites,
    gather_enabled,
    generate,
    make_helpers,
    set_gather_enabled,
    site_outcomes,
)
from .uniform import UniformInfo, infer_uniform

__all__ = [
    "JitExecutor",
    "JitUnsupported",
    "UniformInfo",
    "gather_enabled",
    "infer_uniform",
    "materialize",
    "set_gather_enabled",
    "texture_gather",
]

#: The ``compile.jit.*`` counters under their short names, read-only,
#: for the benchmark ledger: how generated functions were obtained this process — ``fresh``
#: (codegen ran, disk entry written), ``disk`` (rematerialised from
#: the persistent artifact store — exec of the stored code object),
#: ``uncached`` (no source digest or cache disabled).
codegen_events = counters.View("compile.jit.")


def __getattr__(name):
    # ``jit_fallbacks``: the ``jit.fallbacks`` counter, read-only, for
    # the benchmark ledger.
    if name == "jit_fallbacks":
        return counters.values["jit.fallbacks"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextlib.contextmanager
def texture_gather(enabled: bool):
    """Scoped override of the texture-gather fast path (tests, A/B
    comparison).  Generation-time flag: functions generated inside the
    scope carry the override for their lifetime; functions cached
    earlier are untouched (the cache is keyed on the flag)."""
    previous = set_gather_enabled(enabled)
    try:
        yield
    finally:
        set_gather_enabled(previous)


def materialize(source: str, captured: Dict[str, object], fmodel,
                code: bytes):
    """Rebuild a generated JIT function from a disk entry: its source
    text, captured namespace and marshalled code object — the
    warm-start path shared by the disk cache and the
    :mod:`repro.gles2.parallel` workers.  The code object is executed
    as stored (no ``compile()``); the helper closures are rebuilt from
    the float model.  The returned function carries the same
    ``_jit_source``/``_jit_code``/``_jit_captured`` attributes
    :func:`~.codegen.generate` attaches, so it is indistinguishable
    from a freshly generated one."""
    ns = make_helpers(fmodel)
    ns.update(captured)
    module_code = marshal.loads(code)
    exec(module_code, ns)
    fn = ns["_jit_main"]
    fn._jit_source = source
    fn._jit_code = module_code
    fn._jit_captured = dict(captured)
    return fn


def _disk_key(program, fmodel, wide: FrozenSet[str]):
    """The artifact-store key for one generated function, or None when
    the program has no source digest / the store is disabled."""
    digest = getattr(program.checked, "source_digest", None)
    if digest is None or not artifact_cache.enabled():
        return None
    return artifact_cache.artifact_key(
        "jit", digest,
        stage=getattr(program.checked, "stage", ""),
        model=artifact_cache.model_tag(fmodel),
        gather=gather_enabled(),
        wide=wide,
        fusion=getattr(program.checked, "fusion_signature", ""),
    )


def _jit_function(program, fmodel, wide: FrozenSet[str]):
    """Cached codegen: one compiled function per (program, wide set,
    gather flag).

    ``program`` instances are already memoised per (shader, float
    model) by :func:`repro.glsl.ir.get_compiled`, so attaching the JIT
    artifact cache to the program object gives the per-(shader,
    float-model) caching the launch path relies on.  Returns ``None``
    when the program is outside the JIT subset (negative result cached
    too, so unsupported shaders pay codegen only once).

    Under the in-memory memo sits the persistent artifact store: on a
    memory miss the generated source (or the ``unsupported`` verdict)
    is loaded from disk when some earlier process already generated
    it, and written there when codegen runs fresh.  The function's
    disk key is kept on ``fn._jit_disk_key`` so the multiprocess
    shading layer can ship a reference instead of the source text.
    """
    if faults.fire("jit_error"):
        # Injected codegen failure: this *draw* degrades to the IR
        # executor (bit-identical by the backend contract) without
        # poisoning the in-memory memo or the persistent store — the
        # next draw may JIT normally.
        counters.values["fault.fallbacks"] += 1
        return None

    cache = getattr(program, "_jit_cache", None)
    if cache is None:
        cache = program._jit_cache = {}
    key = (wide, gather_enabled())
    if key in cache:
        return cache[key]
    rejected = getattr(program, "_jit_unsupported", None)
    if rejected is None:
        rejected = program._jit_unsupported = {}
    if key in rejected:
        return None
    with trace.span("compile.jit", "compile") as sp:
        if sp is not None:
            sp.args["stage"] = getattr(program.checked, "stage", "")
        disk_key = _disk_key(program, fmodel, wide)
        if disk_key is not None:
            payload = artifact_cache.get(disk_key)
            if payload is not None:
                entry = artifact_cache.load_jit_entry(payload)
                fn = None
                if entry is not None and "unsupported" in entry:
                    rejected[key] = entry["unsupported"]
                    counters.values["compile.jit.disk"] += 1
                    if sp is not None:
                        sp.args.update(event="disk", unsupported=True)
                    return None
                if entry is not None:
                    try:
                        fn = materialize(
                            entry["source"],
                            artifact_cache.decode_captured(
                                entry["captured"]
                            ),
                            fmodel,
                            entry["code"],
                        )
                    except (KeyError, NameError, TypeError, ValueError,
                            AttributeError, EOFError) as exc:
                        # A stale artifact whose code no longer loads
                        # or whose captured namespace no longer
                        # resolves: treat as corrupt data
                        # (invalidated below), never as a fatal error
                        # — the healthy path regenerates.
                        counters.values["cache.disk.load_failures"] += 1
                        faults.note_swallowed("jit_materialize", exc)
                        fn = None
                if fn is not None:
                    fn._jit_disk_key = disk_key
                    counters.values["compile.jit.disk"] += 1
                    cache[key] = fn
                    if sp is not None:
                        sp.args["event"] = "disk"
                    return fn
                artifact_cache.invalidate(disk_key)
        try:
            fn = generate(program, fmodel, wide)
        except JitUnsupported as exc:
            rejected[key] = str(exc)
            if disk_key is not None:
                artifact_cache.put(
                    disk_key,
                    artifact_cache.dump_jit_unsupported(str(exc)),
                    "jit",
                )
            if sp is not None:
                sp.args.update(event="fresh", unsupported=True)
            return None
        fn._jit_disk_key = disk_key
        if disk_key is not None:
            counters.values["compile.jit.fresh"] += 1
            encoded = artifact_cache.encode_captured(fn._jit_captured)
            if encoded is not None:
                artifact_cache.put(
                    disk_key,
                    artifact_cache.dump_jit_entry(
                        fn._jit_source, encoded, fn._jit_code
                    ),
                    "jit",
                )
        else:
            counters.values["compile.jit.uncached"] += 1
        cache[key] = fn
        if sp is not None:
            sp.args["event"] = (
                "fresh" if disk_key is not None else "uncached"
            )
        return fn


class JitExecutor(IRExecutor):
    """Drop-in replacement for :class:`IRExecutor` that calls the
    generated straight-line numpy function instead of dispatching IR
    instructions.  Same constructor, same ``execute(n, presets)``
    contract, bit-identical observable results.

    Each generated fused-read site counts once per draw, after the
    run: ``draw.texture_gathers`` when every execution of it hit,
    ``draw.gather_fallbacks`` when one missed (a site inside a loop
    runs once per iteration but still counts once)."""

    def execute(self, n: int, presets: Dict[str, Value]) -> Dict[str, Value]:
        program = self.program
        if program is None or program.checked is not self.checked:
            program = get_compiled(self.checked, self.fmodel)
            self.program = program

        wide = frozenset(
            name for name, value in presets.items()
            if value.batch > 1
        )
        fn = _jit_function(program, self.fmodel, wide)
        if fn is None:
            counters.values["jit.fallbacks"] += 1
            return super().execute(n, presets)

        # The shared binding only: the generated function threads masks
        # through locals, so no IR dispatch state is allocated.
        Interpreter.execute(self, n, presets)

        begin_draw()
        try:
            discarded = fn(self.regs, n, self.max_loop_iterations)
        except (NameError, UnboundLocalError):
            # A cross-region CSE'd value whose defining branch did not
            # execute on this draw left a Python local unbound.  The
            # generated function only publishes results in its final
            # writeback, so nothing is half-written: run the draw on
            # the IR executor instead (full re-setup included).  The
            # partial run's site outcomes are never counted.
            counters.values["jit.fallbacks"] += 1
            return super().execute(n, presets)
        count_sites(site_outcomes)
        if discarded is not None:
            self.discarded = self._broadcast_mask(discarded)

        if self.counters is not None:
            self._charge_static(program, n)
        return self.globals_env

    def _charge_static(self, program, n: int) -> None:
        """Charge the static counter projection for a draw of ``n``
        lanes (per-invocation cost plus the per-draw
        global-initializer cost)."""
        if self.counters is None:
            return
        totals_cache = getattr(program, "_static_totals", None)
        if totals_cache is None:
            totals_cache = program._static_totals = {}
        totals = totals_cache.get(n)
        if totals is None:
            cost = getattr(program, "_static_cost", None)
            if cost is None:
                cost = program._static_cost = static_cost(program)
            totals = totals_cache[n] = [
                (category, count)
                for category, count in cost.totals(n).items()
                if count
            ]
        for category, count in totals:
            self.counters.add(category, count)
