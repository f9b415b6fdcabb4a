"""``repro.glsl.jit`` — NumPy-source JIT backend for compiled shaders.

The default execution backend (the linear IR executor is the other):
:mod:`.codegen` walks the optimised IR once per
(program, wide-global set) and emits a single straight-line vectorised
Python function, materialised with ``compile()``/``exec``.  Steady-state
kernel relaunches then run **zero interpreter instructions** — one
function call per shader stage per draw, all the work inside numpy.

:mod:`.runtime` holds what a generated function runs with (its helper
namespace and the per-draw fused-read state); the generator imports
only on a miss, so a warm process never loads it.

:mod:`.uniform` supplies the uniform-lane inference that keeps
registers depending only on uniforms/constants at batch width 1, so
per-draw quantities are computed once instead of once per fragment.

:class:`JitExecutor` is the drop-in `execute(n, presets)` engine.  Its
cached compile, :func:`get_compiled`, keeps one :class:`JitKernel` per
(shader, float model, wide-global set) in the shader's ``kernels``
dict (shared by a CheckedShader and its gles2 link summary), over the
persistent artifact store.  A kernel carries what a draw reads of the
IR program — the global bindings that
:meth:`repro.glsl.interp.Interpreter.execute` walks and the static
cost projection — so a warm draw runs without the program.  The
program compiles only on a miss (codegen), for a draw that falls
back, or for a global initialiser that did not fold to a constant.
Programs using constructs outside the JIT subset (divergent returns,
structs, multi-step l-values — see :class:`~.codegen.JitUnsupported`)
fall back to the :class:`~repro.glsl.ir.executor.IRExecutor` at whole-
program granularity; each fallback *draw* increments the
``jit.fallbacks`` counter (:mod:`repro.perf.counters`).

Because the generated code does not tally ops dynamically, callers
that need :class:`~repro.perf.counters.OpCounters` totals get the
static IR-cost projection (:func:`repro.glsl.ir.static_cost`, stored
in the kernel) instead, applied once per draw.
"""

from __future__ import annotations

import marshal
from typing import Dict, FrozenSet

from ...core import cache as artifact_cache
from ...perf import counters, trace
from ...testing import faults
from .. import ir
from ..interp import Interpreter
from ..values import Value
from ..ir import static_cost
from ..ir.executor import IRExecutor
from .runtime import begin_draw, count_sites, make_helpers, site_outcomes

__all__ = [
    "JitExecutor",
    "JitKernel",
    "JitUnsupported",
    "UniformInfo",
    "entry_bytes",
    "get_compiled",
    "infer_uniform",
    "materialize",
]

#: The ``compile.jit.*`` counters under their short names, read-only,
#: for the benchmark ledger: how generated functions were obtained this process — ``fresh``
#: (codegen ran, disk entry written), ``disk`` (rematerialised from
#: the persistent artifact store — exec of the stored code object),
#: ``uncached`` (no source digest or cache disabled).
codegen_events = counters.View("compile.jit.")


#: Names served on first use (PEP 562): the generator and its
#: uniform-lane inference run only on a JIT miss, so a warm start never
#: imports them.
_LAZY = {"JitUnsupported": "codegen", "UniformInfo": "uniform",
         "infer_uniform": "uniform"}


def __getattr__(name):
    # ``jit_fallbacks``: the ``jit.fallbacks`` counter, read-only, for
    # the benchmark ledger.
    if name == "jit_fallbacks":
        return counters.values["jit.fallbacks"]
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def generate(program, fmodel, wide: FrozenSet[str]):
    """:func:`.codegen.generate`, imported on the first JIT miss: a
    process whose kernels all load from the artifact store never
    imports the generator."""
    from .codegen import generate as run

    return run(program, fmodel, wide)


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


def entry_bytes(kernel):
    """A kernel's ``jit`` artifact-store entry:
    :func:`~repro.core.cache.dump_jit_entry` of its function's source,
    captured namespace and code object and of its bindings and static
    cost — what the store publishes, and what a pooled draw ships to
    its workers.  None when some captured object has no pickle-safe
    encoding."""
    fn = kernel.fn
    encoded = artifact_cache.encode_captured(fn._jit_captured)
    if encoded is None:
        return None
    return artifact_cache.dump_jit_entry(
        fn._jit_source, encoded, fn._jit_code, kernel.bindings, kernel.cost
    )


class JitKernel:
    """One generated function and what a draw reads of its IR program:
    the :class:`~repro.glsl.ir.nodes.Bindings` that
    :meth:`~repro.glsl.interp.Interpreter.execute` walks and the
    :class:`~repro.glsl.ir.cost.StaticCost` charged per draw.  It is
    the whole ``jit`` artifact, so a warm draw never loads the
    program."""

    __slots__ = ("fn", "bindings", "cost", "totals", "plan_entry")

    def __init__(self, fn, bindings, cost):
        self.fn = fn
        self.bindings = bindings
        self.cost = cost
        #: invocations -> the nonzero ``(category, count)`` totals.
        self.totals: Dict[int, list] = {}
        #: The pooled-draw payload, memoised by
        #: :func:`repro.gles2.parallel._plan_entry`.
        self.plan_entry = None


def _disk_key(shader, fmodel, wide: FrozenSet[str]):
    """The artifact-store key for one generated function, or None when
    the shader has no source digest / the store is disabled."""
    if shader.source_digest is None or not artifact_cache.enabled():
        return None
    return artifact_cache.artifact_key(
        "jit", shader.source_digest,
        stage=shader.stage,
        model=artifact_cache.model_tag(fmodel),
        wide=wide,
        fusion=shader.fusion_signature,
    )


def get_compiled(shader, fmodel, wide: FrozenSet[str]):
    """Cached compile for the JIT backend: one :class:`JitKernel` per
    (shader, float model, wide-global set), or ``None`` when the
    program is outside the JIT subset (the negative result is cached
    in memory, so an unsupported shader pays codegen once per process).

    ``shader`` is a CheckedShader or a gles2 link summary.  The memo is
    its ``kernels`` dict, keyed by the model key
    :func:`repro.glsl.ir.get_compiled` uses and the wide set; a link
    summary shares that dict with its front-end result, so a kernel
    outlives the evicted AST it was generated from.  Under the memo
    sits the persistent artifact store: on a memory miss the kernel
    loads from disk when some earlier process generated it.  Only a
    miss there compiles the IR program and runs :func:`generate`.
    """
    if faults.fire("jit_error"):
        # Injected codegen failure: this *draw* degrades to the IR
        # executor (bit-identical by the backend contract) without
        # poisoning the in-memory memo or the persistent store — the
        # next draw may JIT normally.
        counters.values["fault.fallbacks"] += 1
        return None
    key = (ir._model_key(fmodel), wide)
    cache = shader.kernels
    try:
        return cache[key]
    except KeyError:
        kernel = cache[key] = _load_or_generate(shader, fmodel, wide)
        return kernel


def _load_or_generate(shader, fmodel, wide: FrozenSet[str]):
    """The disk layer under the in-memory kernel memo."""
    with trace.span("compile.jit", "compile") as sp:
        if sp is not None:
            sp.args["stage"] = shader.stage
        disk_key = _disk_key(shader, fmodel, wide)
        if disk_key is not None:
            payload = artifact_cache.get(disk_key)
            if payload is not None:
                entry = artifact_cache.load_jit_entry(payload)
                kernel = None
                if entry is not None:
                    try:
                        kernel = JitKernel(
                            materialize(
                                entry["source"],
                                artifact_cache.decode_captured(
                                    entry["captured"]
                                ),
                                fmodel,
                                entry["code"],
                            ),
                            entry["bindings"],
                            entry["cost"],
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
                if kernel is not None:
                    counters.values["compile.jit.disk"] += 1
                    if sp is not None:
                        sp.args["event"] = "disk"
                    return kernel
                artifact_cache.invalidate(disk_key)
        program = ir.get_compiled(shader, fmodel)
        from .codegen import JitUnsupported

        try:
            fn = generate(program, fmodel, wide)
        except JitUnsupported:
            if sp is not None:
                sp.args.update(event="fresh", unsupported=True)
            return None
        kernel = JitKernel(fn, program.bindings(fmodel),
                           static_cost(program))
        if disk_key is not None:
            counters.values["compile.jit.fresh"] += 1
            entry = entry_bytes(kernel)
            if entry is not None:
                artifact_cache.put(disk_key, entry, "jit")
        else:
            counters.values["compile.jit.uncached"] += 1
        if sp is not None:
            sp.args["event"] = (
                "fresh" if disk_key is not None else "uncached"
            )
        return kernel


class JitExecutor(IRExecutor):
    """Drop-in replacement for :class:`IRExecutor` that calls the
    generated straight-line numpy function instead of dispatching IR
    instructions.  Same constructor, same ``execute(n, presets)``
    contract, bit-identical observable results.

    Each generated fused-read site counts once per draw, after the
    run: ``draw.texture_gathers`` when every execution of it hit,
    ``draw.gather_fallbacks`` when one missed (a site inside a loop
    runs once per iteration but still counts once)."""

    #: The kernel this draw runs (None: the draw runs on the IR
    #: executor, which binds from the program).
    kernel = None

    def execute(self, n: int, presets: Dict[str, Value]) -> Dict[str, Value]:
        wide = frozenset(
            name for name, value in presets.items()
            if value.batch > 1
        )
        kernel = self.kernel = get_compiled(self.checked, self.fmodel, wide)
        if kernel is None:
            counters.values["jit.fallbacks"] += 1
            return super().execute(n, presets)

        # The shared binding only: the generated function threads masks
        # through locals, so no IR dispatch state is allocated.
        Interpreter.execute(self, n, presets)

        begin_draw()
        try:
            discarded = kernel.fn(self.regs, n, self.max_loop_iterations)
        except (NameError, UnboundLocalError):
            # A cross-region CSE'd value whose defining branch did not
            # execute on this draw left a Python local unbound.  The
            # generated function only publishes results in its final
            # writeback, so nothing is half-written: run the draw on
            # the IR executor instead (full re-setup included).  The
            # partial run's site outcomes are never counted.
            counters.values["jit.fallbacks"] += 1
            self.kernel = None
            return super().execute(n, presets)
        count_sites(site_outcomes)
        if discarded is not None:
            self.discarded = self._broadcast_mask(discarded)

        if self.counters is not None:
            self._charge_static(n)
        return self.globals_env

    def bindings(self):
        kernel = self.kernel
        if kernel is None:
            return super().bindings()
        return kernel.bindings

    def _charge_static(self, n: int) -> None:
        """Charge the kernel's static counter projection for a draw of
        ``n`` lanes (per-invocation cost plus the per-draw
        global-initializer cost)."""
        if self.counters is None:
            return
        kernel = self.kernel
        totals = kernel.totals.get(n)
        if totals is None:
            totals = kernel.totals[n] = [
                (category, count)
                for category, count in kernel.cost.totals(n).items()
                if count
            ]
        for category, count in totals:
            self.counters.add(category, count)
