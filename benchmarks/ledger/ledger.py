"""The per-layer ledger: wrappers around each layer's public functions,
an in-memory span recorder, and the per-layer metric definitions.

The wrappers live here, not in the program.  Each replaces the name a
caller actually looks up — ``repro.gles2.context.execute_draw``, not
``repro.gles2.pipeline.execute_draw`` — so a wrapper bound at the wrong
name would leave its layer reading as free; ``fired`` counts calls per
binding so tests can catch that.  While an op is open a wrapper records
one span per call; outside ops, and in forked pool workers, it passes
straight through (worker time shows up as the leader's wait).

A span's parent is the enclosing span and its shared identifier is the
op index.  Self time is the span's duration minus its children's.
Spans stay in memory and are written once, as Chrome trace-event JSON
that ``python -m repro.trace view`` accepts.

Nothing here imports ``repro`` at module import: ``run.py`` and
``compare.py`` use the metric code without the program on their path.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import types
from collections import Counter
from typing import Dict, List, Optional

#: (span, module, attribute path) — one row per binding a caller looks up.
BINDINGS = (
    ("core.api.kernel", "repro.core.api.device", "GpgpuDevice.kernel"),
    ("core.api.launch", "repro.core.api.kernel", "Kernel.__call__"),
    ("core.api.upload", "repro.core.api.buffer", "GpuArray.upload"),
    ("core.api.to_host", "repro.core.api.buffer", "GpuArray.to_host"),
    ("core.api.copy_readback", "repro.core.api.device",
     "GpgpuDevice.copy_texture_and_read"),
    ("core.api.graph.replay", "repro.core.api.graph", "LaunchGraph.replay"),
    ("kernels.driver", "repro.kernels.reduction", "reduce_sum"),
    ("kernels.driver", "repro.kernels.scan", "inclusive_scan"),
    ("kernels.driver", "repro.kernels.sort", "sort_host_array"),
    ("kernels.driver", "repro.workloads.kmeans", "kmeans_assign_gpu"),
    ("kernels.driver", "repro.workloads.hotspot", "hotspot_gpu"),
    ("kernels.driver", "repro.workloads.pathfinder", "pathfinder_gpu"),
    ("core.codegen.generate", "repro.core.api.device", "generate_kernel_source"),
    ("core.codegen.fuse", "repro.core.api.graph", "compose_chain_cached"),
    ("core.cache.get", "repro.core.cache", "get"),
    ("core.cache.put", "repro.core.cache", "put"),
    ("glsl.preprocessor", "repro.gles2.shader", "preprocess"),
    ("glsl.parser", "repro.gles2.shader", "parse"),
    ("glsl.optimize", "repro.gles2.shader", "optimize"),
    ("glsl.typecheck", "repro.gles2.shader", "check"),
    ("glsl.ir.compile", "repro.glsl.ir", "get_compiled"),
    ("glsl.ir.compile", "repro.glsl.jit", "get_compiled"),
    ("glsl.ir.exec", "repro.glsl.ir.executor", "IRExecutor.execute"),
    ("glsl.jit.codegen", "repro.glsl.jit", "generate"),
    ("glsl.jit.shade", "repro.glsl.jit", "JitExecutor.execute"),
    ("glsl.interp.shade", "repro.glsl.interp", "Interpreter.execute"),
    ("gles2.pipeline.draw", "repro.gles2.context", "execute_draw"),
    ("gles2.raster", "repro.gles2.raster", "rasterize_triangles"),
    ("gles2.raster", "repro.gles2.raster", "interpolate_varying"),
    ("gles2.raster", "repro.gles2.raster", "partition_tiles"),
    ("gles2.parallel.dispatch", "repro.gles2.parallel", "shade_draw"),
    ("experiments.run_speedup_table", "repro.experiments.report",
     "run_speedup_table"),
    ("experiments.run_precision_experiment", "repro.experiments.report",
     "run_precision_experiment"),
    ("experiments.run_fig2_layout", "repro.experiments.report",
     "run_fig2_layout"),
    ("experiments.run_readback_ablation", "repro.experiments.report",
     "run_readback_ablation"),
    ("experiments.run_packing_ablation", "repro.experiments.report",
     "run_packing_ablation"),
    ("experiments.run_peak_check", "repro.experiments.report",
     "run_peak_check"),
    ("experiments.e7_half_float", "repro.experiments.report",
     "_run_half_float_comparison"),
    ("experiments.e8_rodinia", "repro.experiments.report", "_run_rodinia"),
    ("experiments.e9_vertex_vs_fragment", "repro.experiments.report",
     "_run_vertex_vs_fragment"),
    ("experiments.run_size_sweep", "repro.experiments.sweep",
     "run_size_sweep"),
)

#: GL entry points whose byte traffic the context tallies.
_UPLOADS = ("glTexImage2D", "glTexSubImage2D", "glBufferData")
_MAX_EVENTS = 400_000


def _upload_bytes(ctx):
    return ctx.stats.texture_upload_bytes + ctx.stats.buffer_upload_bytes


def _draw_post(args, stats, __):
    return {"draws": 1, "fragments": stats.fragment_invocations,
            "gathers": stats.texture_gathers,
            "gather_fallbacks": stats.gather_fallbacks}


def _replay_post(args, stats, __):
    return {f"graph.{field}": getattr(stats, field)
            for field in ("fused_draws", "elided_draws", "dead_launches",
                          "scratch_allocs", "scratch_reuses")}


def _hooks(jit_module):
    """``span -> (pre, post)``: ``pre(args)`` runs before the call and
    ``post(args, result, pre_value)`` after the span closes, returning
    increments for the ledger's ``extra`` tallies."""
    hooks = {
        "core.api.kernel": (
            lambda args: args[0].kernel_cache_hits,
            lambda args, __, hits: {
                "kernel_hits": args[0].kernel_cache_hits - hits},
        ),
        "core.numerics.pack": (
            None, lambda args, __, ___: {"numeric_bytes": args[0].nbytes}),
        "core.numerics.unpack": (
            None, lambda __, out, ___: {"numeric_bytes": out.nbytes}),
        "gles2.pipeline.draw": (None, _draw_post),
        "core.api.graph.replay": (None, _replay_post),
        "gles2.parallel.dispatch": (
            lambda args: time.process_time(),
            lambda __, ___, cpu0: {
                "leader_cpu_s": time.process_time() - cpu0},
        ),
        "glsl.jit.shade": (
            lambda args: jit_module.jit_fallbacks,
            lambda __, ___, before: {
                "jit_fallbacks": jit_module.jit_fallbacks - before},
        ),
        "gles2.context.glReadPixels": (
            lambda args: args[0].stats.readback_bytes,
            lambda args, __, before: {
                "readback_bytes": args[0].stats.readback_bytes - before},
        ),
    }
    for name in _UPLOADS:
        hooks[f"gles2.context.{name}"] = (
            lambda args: _upload_bytes(args[0]),
            lambda args, __, before: {
                "upload_bytes": _upload_bytes(args[0]) - before},
        )
    return hooks


class Ledger:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, incl, self]
        self.extra: Counter = Counter()
        self.fired: Counter = Counter()
        self.events: list = []
        self.dropped = 0
        self._stack: list = []
        self._next_id = 0
        self._op: Optional[int] = None
        self._patches: list = []

    # -- recording -----------------------------------------------------
    def _enter(self, name, cat):
        parent = self._stack[-1][4] if self._stack else None
        frame = [name, cat, time.perf_counter(), 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> None:
        duration = time.perf_counter() - frame[2]
        self._stack.pop()
        if self._stack:
            self._stack[-1][3] += duration
        total = self.spans.setdefault(frame[0], [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[3]
        if len(self.events) < _MAX_EVENTS:
            self.events.append((*frame[:3], duration, frame[4], frame[5],
                                self._op))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def op(self, index: int):
        """Open op ``index``: the root span every layer span hangs off."""
        self._op = index
        frame = self._enter("op", "workload")
        try:
            yield
        finally:
            self._exit(frame)
            self._op = None

    def _wrap(self, name, cat, key, fn, hook):
        ledger = self
        pre, post = hook if hook else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ledger._op is None or os.getpid() != ledger.pid:
                return fn(*args, **kwargs)
            ledger.fired[key] += 1
            state = pre(args) if pre else None
            frame = ledger._enter(name, cat)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger._exit(frame)
            if post:
                for tally, value in post(args, result, state).items():
                    ledger.extra[tally] += value
            return result

        return wrapper

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr, name, key, hooks):
        # Classes keep the function itself (not a bound or inherited
        # attribute); frozen dataclass instances need object.__setattr__.
        original = vars(owner)[attr]
        cat = "gles2.context" if name.startswith("gles2.context.") else name
        self._set(owner, attr, self._wrap(name, cat, key, original,
                                          hooks.get(name)))
        self._patches.append((owner, attr, original))

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, (type, types.ModuleType)):
            setattr(owner, attr, value)
        else:
            object.__setattr__(owner, attr, value)

    def install(self) -> None:
        """Patch every binding; call before the device is built."""
        from repro.core.numerics.formats import FORMATS
        from repro.gles2.context import GLES2Context
        from repro.glsl import jit

        hooks = _hooks(jit)
        for name, module_name, path in BINDINGS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            self._patch(owner, attr, name, f"{module_name}:{path}", hooks)
        for attr in sorted(vars(GLES2Context)):
            if attr.startswith("gl") and callable(vars(GLES2Context)[attr]):
                self._patch(GLES2Context, attr, f"gles2.context.{attr}",
                            f"repro.gles2.context:GLES2Context.{attr}", hooks)
        # host_pack/host_unpack are per-format callables on frozen
        # dataclass instances; GpuArray looks them up on the instance.
        for fmt in FORMATS.values():
            for attr, name in (("host_pack", "core.numerics.pack"),
                               ("host_unpack", "core.numerics.unpack")):
                self._patch(fmt, attr, name,
                            f"repro.core.numerics.formats:{fmt.name}.{attr}",
                            hooks)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            self._set(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def summary(self) -> Dict:
        return {"spans": self.spans, "extra": dict(self.extra),
                "fired": dict(self.fired)}

    def write_chrome_trace(self, path) -> None:
        events = [
            {"ph": "X", "name": name, "cat": cat, "ts": t0 * 1e6,
             "dur": duration * 1e6, "pid": self.pid, "tid": 0,
             "args": {"op": op, "id": span_id, "parent": parent}}
            for name, cat, t0, duration, span_id, parent, op in self.events
        ]
        events.sort(key=lambda event: event["ts"])
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"producer": "benchmarks/ledger",
                                     "clock": "perf_counter_us",
                                     "dropped_events": self.dropped}},
                      handle)


# ----------------------------------------------------------------------
# Public counters of the program (read as deltas around timed ops)
# ----------------------------------------------------------------------
def counter_snapshot() -> Dict[str, float]:
    """Process-wide counters: artifact store, degraded paths, front-end
    cache, IR/JIT compile events, pool draws."""
    from repro.core import cache
    from repro.gles2 import parallel, shader
    from repro.glsl import ir, jit
    from repro.perf.counters import fault_path_stats

    snap = {f"cache.{k}": v for k, v in cache.stats.snapshot().items()}
    snap.update({f"fault.{k}": v
                 for k, v in fault_path_stats.snapshot().items()})
    snap.update({f"frontend.{k}": v
                 for k, v in shader.frontend_cache_stats.items()})
    snap.update({f"ir.{k}": v for k, v in ir.compile_events.items()})
    snap.update({f"jit.{k}": v for k, v in jit.codegen_events.items()})
    snap["jit.fallbacks"] = jit.jit_fallbacks
    snap["parallel.draws"] = parallel.parallel_draws
    return snap


def device_snapshot(device) -> Dict[str, float]:
    """One device's context counters and its modeled VideoCore IV time."""
    stats = device.ctx.stats
    timeline = device.wall_time()
    return {
        "draws": len(stats.draws),
        "fragments": stats.total_fragments(),
        "modeled.compile_s": timeline.compile_seconds,
        "modeled.upload_s": timeline.upload_seconds,
        "modeled.execute_s": timeline.execute_seconds,
        "modeled.readback_s": timeline.readback_seconds,
        "modeled.elided_transfer_s": timeline.elided_transfer_seconds,
        "modeled.total_s": timeline.total_seconds,
    }


def delta(after: Dict, before: Dict) -> Dict:
    return {key: after[key] - before.get(key, 0) for key in after}


# ----------------------------------------------------------------------
# Metric derivation
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer times of the traced run, as (metric, span, kind): ms per op
#: of the span's ``self`` or inclusive (``incl``) time.
_TIMES = (
    ("core.api.launch.self_ms", "core.api.launch", "self"),
    ("core.api.upload.self_ms", "core.api.upload", "self"),
    ("core.api.to_host.self_ms", "core.api.to_host", "self"),
    ("core.api.kernel.self_ms", "core.api.kernel", "self"),
    ("core.api.graph.replay.self_ms", "core.api.graph.replay", "self"),
    ("kernels.driver.self_ms", "kernels.driver", "self"),
    ("core.numerics.pack_ms", "core.numerics.pack", "incl"),
    ("core.numerics.unpack_ms", "core.numerics.unpack", "incl"),
    ("core.codegen.generate_ms", "core.codegen.generate", "incl"),
    ("core.codegen.fuse_ms", "core.codegen.fuse", "incl"),
    ("core.cache.get_ms", "core.cache.get", "incl"),
    ("core.cache.put_ms", "core.cache.put", "incl"),
    ("glsl.preprocessor.ms", "glsl.preprocessor", "incl"),
    ("glsl.parser.ms", "glsl.parser", "incl"),
    ("glsl.optimize.ms", "glsl.optimize", "incl"),
    ("glsl.typecheck.ms", "glsl.typecheck", "incl"),
    ("glsl.ir.compile.self_ms", "glsl.ir.compile", "self"),
    ("glsl.ir.exec_ms", "glsl.ir.exec", "self"),
    ("glsl.jit.codegen_ms", "glsl.jit.codegen", "incl"),
    ("glsl.jit.shade.self_ms", "glsl.jit.shade", "self"),
    ("glsl.interp.shade_ms", "glsl.interp.shade", "self"),
    ("gles2.context.upload_ms", "gles2.context.glTexImage2D", "incl"),
    ("gles2.context.readback_ms", "gles2.context.glReadPixels", "incl"),
    ("gles2.pipeline.draw.self_ms", "gles2.pipeline.draw", "self"),
    ("gles2.raster.ms", "gles2.raster", "incl"),
    ("gles2.parallel.dispatch_ms", "gles2.parallel.dispatch", "incl"),
) + tuple(
    (f"{span}.ms", span, "incl")
    for span in dict.fromkeys(b[0] for b in BINDINGS)
    if span.startswith("experiments.")
)


def traced_metrics(summary: Dict, ops: int) -> Dict[str, float]:
    """Per-layer times, call counts and call-derived ratios of a traced
    run (``summary`` merged over its children, ``ops`` recorded ops)."""
    spans, extra = summary["spans"], Counter(summary["extra"])

    def total(names, column):
        return sum(spans[n][column] for n in names if n in spans)

    def per_op(value):
        return value / ops if ops else 0.0

    metrics = {name: per_op(1e3 * total([span], 2 if kind == "self" else 1))
               for name, span, kind in _TIMES}
    context = [n for n in spans if n.startswith("gles2.context.")]
    metrics.update({
        "core.api.kernel_cache_hit_ratio": _ratio(
            extra["kernel_hits"], total(["core.api.kernel"], 0)),
        "core.api.copy_readback_ratio": _ratio(
            total(["core.api.copy_readback"], 0),
            total(["core.api.to_host"], 0)),
        "core.api.graph.fused_draws_per_op": per_op(extra["graph.fused_draws"]),
        "core.api.graph.elided_draws_per_op": per_op(
            extra["graph.elided_draws"]),
        "core.api.graph.dead_launches_per_op": per_op(
            extra["graph.dead_launches"]),
        "core.api.graph.scratch_reuse_ratio": _ratio(
            extra["graph.scratch_reuses"],
            extra["graph.scratch_reuses"] + extra["graph.scratch_allocs"]),
        "core.numerics.bytes_per_op": per_op(extra["numeric_bytes"]),
        "core.codegen.generate_calls_per_op": per_op(
            total(["core.codegen.generate"], 0)),
        "core.cache.puts_per_op": per_op(total(["core.cache.put"], 0)),
        "glsl.jit.fallback_ratio": _ratio(
            extra["jit_fallbacks"], total(["glsl.jit.shade"], 0)),
        "glsl.jit.gather_ratio": _ratio(
            extra["gathers"], extra["gathers"] + extra["gather_fallbacks"]),
        "gles2.context.calls_per_op": per_op(total(context, 0)),
        "gles2.context.self_ms": per_op(1e3 * total(context, 2)),
        "gles2.context.upload_bytes_per_op": per_op(extra["upload_bytes"]),
        "gles2.context.readback_bytes_per_op": per_op(extra["readback_bytes"]),
        "gles2.pipeline.draws_per_op": per_op(extra["draws"]),
        "gles2.pipeline.fragments_per_op": per_op(extra["fragments"]),
        "gles2.parallel.leader_cpu_ms": per_op(1e3 * extra["leader_cpu_s"]),
    })
    metrics["gles2.parallel.wait_ms"] = (
        metrics["gles2.parallel.dispatch_ms"]
        - metrics["gles2.parallel.leader_cpu_ms"])
    op_wall = total(["op"], 1)
    metrics["trace.coverage"] = _ratio(
        sum(v[2] for name, v in spans.items() if name != "op"), op_wall)
    return metrics


def counter_metrics(counters: Dict, ops: int, modeled: Dict,
                    modeled_ops: int) -> Dict[str, float]:
    """Per-layer counts from public counters around the untraced run's
    ``ops`` timed ops, and modeled time over ``modeled_ops`` of them
    (``modeled`` is empty where no device is reachable)."""
    c = Counter(counters)
    d = Counter(modeled)

    def per_op(value, n=ops):
        return value / n if n else 0.0

    def modeled_ms(key):
        return per_op(1e3 * d[key], modeled_ops)

    lookups = c["frontend.hits"] + c["frontend.misses"]
    return {
        "core.cache.hit_ratio": _ratio(
            c["cache.hits"], c["cache.hits"] + c["cache.misses"]),
        "core.cache.failures": c["cache.corrupt"] + c["cache.load_failures"]
        + c["cache.write_failures"],
        "glsl.frontend.compiles_per_op": per_op(
            c["frontend.misses"] - c["frontend.disk_hits"]),
        "glsl.frontend.cache_hit_ratio": _ratio(
            c["frontend.hits"] + c["frontend.disk_hits"], lookups),
        "glsl.ir.fresh_per_op": per_op(c["ir.fresh"]),
        "glsl.ir.disk_per_op": per_op(c["ir.disk"]),
        "glsl.jit.fresh_per_op": per_op(c["jit.fresh"]),
        "glsl.jit.disk_per_op": per_op(c["jit.disk"]),
        "gles2.parallel.parallel_draws_per_op": per_op(c["parallel.draws"]),
        "gles2.parallel.retries": c["fault.worker_retries"]
        + c["fault.pool_restarts"],
        "gles2.parallel.fallbacks": c["fault.fault_fallbacks"],
        "perf.modeled.compile_ms": modeled_ms("modeled.compile_s"),
        "perf.modeled.upload_ms": modeled_ms("modeled.upload_s"),
        "perf.modeled.execute_ms": modeled_ms("modeled.execute_s"),
        "perf.modeled.readback_ms": modeled_ms("modeled.readback_s"),
        "perf.modeled.elided_transfer_ms": modeled_ms(
            "modeled.elided_transfer_s"),
        "modeled_gpu_ms_per_op": modeled_ms("modeled.total_s"),
    }
