"""Draw-call execution: the programmable pipeline of Figure 1.

``execute_draw`` glues the stages together: attribute fetch → vertex
shader (vectorised over all vertices) → primitive assembly →
rasterisation → varying interpolation → fragment shader (vectorised
over all fragments) → per-fragment output conversion into the RGBA8
framebuffer.

The final conversion implements the paper's equation (2): fragment
colours are clamped to [0, 1] and quantised to unsigned bytes.  Two
quantisation modes are supported: ``"round"`` (what the GL ES spec
mandates: round to nearest) and ``"floor"`` (the floor form printed in
the paper).  The §IV transformations round-trip exactly under either,
because they quantise *in the shader* and emit exact multiples of
1/255.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..glsl.ir import IRExecutor
from ..glsl.jit import JitExecutor
from ..glsl.types import BOOL, VEC2, VEC4
from ..glsl.values import Value
from ..perf import counters, trace
from ..perf.counters import DrawStats
from . import enums, raster
from .errors import SimulatorLimitation

_ATTRIB_DTYPES = {
    enums.GL_FLOAT: np.dtype(np.float32),
    enums.GL_BYTE: np.dtype(np.int8),
    enums.GL_UNSIGNED_BYTE: np.dtype(np.uint8),
    enums.GL_SHORT: np.dtype(np.int16),
    enums.GL_UNSIGNED_SHORT: np.dtype(np.uint16),
}


# ----------------------------------------------------------------------
# Deterministic capture hook (differential conformance harness)
# ----------------------------------------------------------------------
@dataclass
class FragmentCapture:
    """Snapshot of the per-fragment state of one draw call, taken just
    before the framebuffer write.  Consumed by ``repro.testing`` to
    replay the exact same fragments through independent interpreters."""

    #: The fragment shader's full front-end result (CheckedShader; the
    #: hook's draw reruns the front end if the LRU had dropped it).
    fragment_shader: object
    #: Global presets handed to the fragment interpreter (uniforms,
    #: interpolated varyings, gl_FragCoord, ...), batched per fragment.
    fs_presets: Dict[str, Value]
    #: Framebuffer coordinates of every rasterised fragment.
    px: np.ndarray
    py: np.ndarray
    #: Per-fragment discard mask (True = killed by ``discard``).
    discarded: np.ndarray
    #: Pre-quantisation colours (float64) and their eq. (2) bytes.
    colors: np.ndarray
    quantised: np.ndarray
    #: Quantisation mode used ("round" or "floor").
    quantization: str = "round"


_capture_hook = None


def set_capture_hook(hook) -> None:
    """Install a callable receiving a :class:`FragmentCapture` after
    every draw call.  Used by the differential test harness; pass the
    result to :func:`clear_capture_hook` semantics by installing None."""
    global _capture_hook
    _capture_hook = hook


def clear_capture_hook() -> None:
    global _capture_hook
    _capture_hook = None


@dataclass
class VertexAttribState:
    """State of one generic vertex attribute (glVertexAttribPointer +
    glEnableVertexAttribArray + glVertexAttrib4f)."""

    enabled: bool = False
    size: int = 4
    type: int = enums.GL_FLOAT
    normalized: bool = False
    stride: int = 0
    #: Client-side array (numpy) or byte offset into ``buffer``.
    pointer: object = None
    buffer: object = None  # BufferObject or None
    generic_value: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0])
    )


def fetch_attribute(state: VertexAttribState, max_index: int) -> np.ndarray:
    """Materialise one attribute as (max_index + 1, 4) float64 with GL
    default fill (0, 0, 0, 1)."""
    count = max_index + 1
    out = np.zeros((count, 4), dtype=np.float64)
    out[:, 3] = 1.0
    if not state.enabled:
        out[:] = state.generic_value
        return out

    if state.buffer is not None:
        data = _read_buffer_attribute(state, count)
    else:
        data = _read_client_attribute(state, count)
    data = _normalize_attribute(data, state)
    out[:, : state.size] = data[:, : state.size]
    return out


def _read_client_attribute(state: VertexAttribState, count: int) -> np.ndarray:
    array = np.asarray(state.pointer)
    if array.ndim == 1:
        array = array.reshape(-1, state.size)
    if array.shape[0] < count:
        raise SimulatorLimitation(
            f"client vertex array has {array.shape[0]} vertices, draw "
            f"needs {count}"
        )
    return array[:count].astype(np.float64, copy=False)


def _read_buffer_attribute(state: VertexAttribState, count: int) -> np.ndarray:
    dtype = _ATTRIB_DTYPES[state.type]
    offset = int(state.pointer or 0)
    stride = state.stride or state.size * dtype.itemsize
    raw = state.buffer.data
    needed = offset + (count - 1) * stride + state.size * dtype.itemsize
    if raw is None or raw.nbytes < needed:
        raise SimulatorLimitation("vertex buffer too small for draw call")
    view = np.lib.stride_tricks.as_strided(
        raw[offset:].view(np.uint8),
        shape=(count, state.size * dtype.itemsize),
        strides=(stride, 1),
    )
    flat = view.reshape(-1).tobytes()
    typed = np.frombuffer(flat, dtype=dtype).reshape(count, state.size)
    return typed.astype(np.float64)


def _normalize_attribute(data: np.ndarray, state: VertexAttribState) -> np.ndarray:
    if state.type == enums.GL_FLOAT or not state.normalized:
        return data
    if state.type in (enums.GL_BYTE, enums.GL_SHORT):
        # ES 2.0 §2.1.2: signed normalized maps c to (2c + 1) / (2^n - 1)
        # — symmetric around zero, hitting exactly ±1.0 at the extremes
        # with no clamp (unlike the desktop GL 4.x c / (2^(n-1) - 1)
        # rule this simulator previously applied).
        divisor = 255.0 if state.type == enums.GL_BYTE else 65535.0
        return (2.0 * data + 1.0) / divisor
    divisor = {
        enums.GL_UNSIGNED_BYTE: 255.0,
        enums.GL_UNSIGNED_SHORT: 65535.0,
    }[state.type]
    return data / divisor


# ----------------------------------------------------------------------
# Draw execution
# ----------------------------------------------------------------------
#: A draw shades on the worker pool (``shade_workers`` > 0) only with
#: more fragments than this: below it, shipping the registers to the
#: workers costs more than the split saves.  Set from the measured
#: pool/in-process crossover of sgemm on two workers, where the pool
#: wins from 7744 fragments and is a coin flip at 6400
#: (``docs/architecture.md`` §5).
POOL_MIN_FRAGMENTS = 6400

#: The shader executors, by ``execution_backend`` name: ``"jit"`` runs
#: generated straight-line numpy code (cached per shader; the IR
#: executor is its per-draw fallback outside the JIT subset), ``"ir"``
#: dispatches the compiled linear IR (bit-identical, cached per shader).
EXECUTORS = {"ir": IRExecutor, "jit": JitExecutor}

#: The backend devices, contexts and draws use unless told otherwise.
DEFAULT_EXECUTION_BACKEND = "jit"


def execute_draw(
    program,
    attribs: Dict[int, VertexAttribState],
    index_stream: np.ndarray,
    mode: int,
    viewport: Tuple[int, int, int, int],
    color_buffer: np.ndarray,
    float_model,
    resolve_sampler,
    quantization: str = "round",
    max_loop_iterations: int = 65536,
    execution_backend: str = DEFAULT_EXECUTION_BACKEND,
    scissor: Optional[Tuple[int, int, int, int]] = None,
    shade_workers: int = 0,
) -> DrawStats:
    """Run the full pipeline for one draw call, writing into
    ``color_buffer`` (a C-contiguous (H, W, 4) uint8 array) in place.

    ``execution_backend`` names the shader executor (a key of
    :data:`EXECUTORS`).

    ``scissor`` is the (x, y, w, h) rectangle of an enabled
    GL_SCISSOR_TEST (None when disabled): fragments outside it are
    never generated.  ``shade_workers`` > 0 splits the fragment batch
    of a draw above :data:`POOL_MIN_FRAGMENTS` into one contiguous
    range per worker and shades the ranges on a process pool (JIT
    backend only); every other draw, and any draw the pool cannot take,
    shades in one in-process call.  Both paths are bit-identical and
    count the same."""
    shader_executor = EXECUTORS[execution_backend]
    stats = DrawStats()
    if index_stream.size == 0:
        return stats
    draw_counts = counters.snapshot(counters.DRAW)

    if not color_buffer.flags.c_contiguous:
        raise ValueError("execute_draw needs a C-contiguous color buffer")
    fb_height, fb_width = color_buffer.shape[0], color_buffer.shape[1]

    # ------------------------------------------------------------------
    # 1. Attribute fetch + vertex shading.  We shade the full range of
    # referenced vertices once (real hardware caches post-transform
    # vertices similarly), or replay the program's vertex plan when
    # every vertex-stage input matches an earlier draw.
    # ------------------------------------------------------------------
    max_index = int(index_stream.max())
    vertex_count = max_index + 1
    uniforms = program.build_uniform_values(resolve_sampler)
    _cast_uniform_floats(uniforms, float_model.dtype)
    attributes = [
        (symbol, fetch_attribute(
            attribs.get(program.attribute_locations[symbol.name],
                        VertexAttribState()),
            max_index,
        ))
        for symbol in program.vertex.active_attributes()
    ]
    key = _vertex_plan_key(
        program, uniforms, attributes, execution_backend, float_model,
        max_index, max_loop_iterations,
    )
    plans = program.vertex_plans
    plan = plans.get(key) if key is not None else None
    with trace.span("draw.vertex", "draw", {
        "vertices": vertex_count, "plan": "miss" if plan is None else "hit",
    }):
        if plan is None:
            plan = _shade_vertices(
                program, uniforms, attributes, vertex_count, float_model,
                shader_executor(
                    program.vertex,
                    float_model=float_model,
                    counters=stats.vertex_ops,
                    max_loop_iterations=max_loop_iterations,
                ),
                copy=key is not None,
            )
            if key is not None:
                plans[key] = plan
                while len(plans) > _VERTEX_PLAN_CAPACITY:
                    plans.popitem(last=False)
        else:
            plans.move_to_end(key)
            stats.vertex_ops.counts.update(plan.ops)
    stats.vertex_invocations = vertex_count

    # ------------------------------------------------------------------
    # 2. Primitive assembly + rasterisation.
    # ------------------------------------------------------------------
    with trace.span("draw.raster", "draw") as sp:
        window, w_clip = plan.window(viewport)
        if mode == enums.GL_POINTS:
            batch = raster.rasterize_points(
                window, w_clip, index_stream, fb_width, fb_height
            )
            if scissor is not None:
                batch = raster.apply_scissor(batch, scissor)
        elif mode in (enums.GL_LINES, enums.GL_LINE_STRIP, enums.GL_LINE_LOOP):
            segments = raster.assemble_lines(mode, index_stream)
            batch = raster.rasterize_lines(
                window, w_clip, segments, fb_width, fb_height
            )
            if scissor is not None:
                batch = raster.apply_scissor(batch, scissor)
        else:
            triangles = raster.assemble_triangles(mode, index_stream)
            batch = raster.rasterize_triangles(
                window, w_clip, triangles, fb_width, fb_height,
                scissor=scissor,
            )
        if sp is not None:
            sp.args["fragments"] = batch.count
            # A batch that already carries a fragment plan came from
            # the raster memo, built by an earlier draw.
            sp.args["plan"] = "hit" if batch.plan else "miss"
    if batch.count == 0:
        return stats

    # ------------------------------------------------------------------
    # 3. Varying interpolation + fragment shading.
    # ------------------------------------------------------------------
    dtype = float_model.dtype
    fs_presets: Dict[str, Value] = dict(uniforms)
    with trace.span(
        "draw.varyings", "draw",
        {"varyings": len(program.varying_types), "fragments": batch.count},
    ):
        for name, gtype in program.varying_types.items():
            fs_presets[name] = Value(gtype, raster.interpolate_varying(
                batch, plan.varyings[name], dtype
            ))
    fs_presets["gl_FragCoord"] = Value(VEC4, batch.frag_coord(dtype))
    fs_presets["gl_FrontFacing"] = Value(BOOL, batch.front)
    fs_presets["gl_PointCoord"] = Value(VEC2, batch.point_coord(dtype))

    fs_interp = shader_executor(
        program.fragment,
        float_model=float_model,
        counters=stats.fragment_ops,
        max_loop_iterations=max_loop_iterations,
    )
    stats.fragment_invocations = batch.count
    out_name = (
        "gl_FragData"
        if "gl_FragData" in program.fragment.written_builtins
        else "gl_FragColor"
    )

    with trace.span("draw.shade", "draw") as sp:
        decodes = counters.values["jit.storage_decodes"]
        shaded = None
        if shade_workers > 0 and batch.count > POOL_MIN_FRAGMENTS:
            from . import parallel

            chunks = raster.partition_tiles(batch, shade_workers)
            shaded = parallel.shade_draw(
                fs_interp, fs_presets, chunks, shade_workers, out_name
            )
        if shaded is None:
            chunks = [slice(0, batch.count)]
            fs_env = fs_interp.execute(batch.count, fs_presets)
            color = _extract_color(fs_env, out_name, batch.count)
            color = color.astype(np.float64)
            discarded = fs_interp.discarded
        else:
            color, discarded = shaded
        if sp is not None:
            sp.args.update({
                "fragments": batch.count,
                "backend": execution_backend,
                "chunks": len(chunks),
                "storage_decodes":
                    counters.values["jit.storage_decodes"] - decodes,
            })

    discards = int(np.count_nonzero(discarded))
    stats.discarded_fragments = discards

    # ------------------------------------------------------------------
    # 4. Output selection and framebuffer write (paper eq. (2)).
    # ------------------------------------------------------------------
    with trace.span("draw.quantise", "draw", {"fragments": batch.count}):
        quantised = quantize_color(color, quantization)
    if _capture_hook is not None:
        _capture_hook(
            FragmentCapture(
                fragment_shader=program.fragment.frontend(),
                fs_presets=fs_presets,
                px=batch.px.copy(),
                py=batch.py.copy(),
                discarded=discarded.copy(),
                colors=color.copy(),
                quantised=quantised.copy(),
                quantization=quantization,
            )
        )
    writes = batch.count - discards
    with trace.span("draw.write", "draw") as sp:
        # One scatter through the batch's planned flat index; only a
        # draw that discards fragments pays for a mask.
        flat = batch.flat_index(fb_width)
        if discards:
            keep = ~discarded
            flat, quantised = flat[keep], quantised[keep]
        color_buffer.reshape(-1, 4)[flat] = quantised
        if sp is not None:
            sp.args["writes"] = writes
    stats.framebuffer_writes = writes
    # The draw-scope counters shading changed (texture gathers, from
    # this process and from pool workers alike).
    stats.counts = counters.delta(draw_counts)
    return stats


#: Vertex plans one linked program keeps (LRU).
_VERTEX_PLAN_CAPACITY = 8

#: Largest draw (in referenced vertices) that gets a vertex plan.  A
#: GPGPU quad has six vertices; a point-per-element vertex kernel has
#: one per element and is never planned, so a plan's memory (about
#: 200 bytes per vertex) and its per-draw key hashing stay small.
_VERTEX_PLAN_MAX_VERTICES = 64

#: Viewport transforms one vertex plan keeps (LRU).
_WINDOW_CAPACITY = 4


class VertexPlan:
    """Everything a draw's vertex stage produced, for replay by later
    draws whose vertex-stage inputs are byte-identical: clip-space
    positions, per-vertex varyings (float64, full vertex width), the
    stage's op counts, and the window transform per viewport.  Every
    array is read-only."""

    __slots__ = ("position", "varyings", "ops", "windows")

    def __init__(self, position: np.ndarray, varyings: Dict[str, np.ndarray],
                 ops: Dict[str, int]):
        self.position = position
        self.varyings = varyings
        self.ops = ops
        self.windows: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )

    def window(self, viewport) -> Tuple[np.ndarray, np.ndarray]:
        """``raster.viewport_transform`` of the positions, memoised."""
        hit = self.windows.get(viewport)
        if hit is not None:
            self.windows.move_to_end(viewport)
            return hit
        window, w_clip = raster.viewport_transform(self.position, viewport)
        hit = self.windows[viewport] = (raster.freeze(window), w_clip)
        while len(self.windows) > _WINDOW_CAPACITY:
            self.windows.popitem(last=False)
        return hit


def _vertex_plan_key(program, uniforms, attributes, backend, float_model,
                     max_index, max_loop_iterations):
    """Everything the vertex stage reads, by value — or None when the
    draw references more than :data:`_VERTEX_PLAN_MAX_VERTICES`
    vertices, or the stage has a sampler, struct or array-of-struct
    uniform (a Value without flat data), whose content is not captured
    by bytes."""
    if max_index >= _VERTEX_PLAN_MAX_VERTICES:
        return None
    key = [backend, float_model, max_index, max_loop_iterations]
    for symbol in program.vertex.active_uniforms():
        data = uniforms[symbol.name].data
        if data is None:
            return None
        key.append((symbol.name, data.dtype.str, data.shape, data.tobytes()))
    for symbol, fetched in attributes:
        key.append((symbol.name, fetched.tobytes()))
    return tuple(key)


def _shade_vertices(program, uniforms, attributes, vertex_count,
                    float_model, vs_interp, copy: bool) -> VertexPlan:
    """Run the vertex shader over every referenced vertex and keep its
    outputs as a (read-only) :class:`VertexPlan`.  ``copy`` (set for a
    plan that will be kept) makes every output a fresh float64 copy,
    so a kept plan never aliases an executor register, constant or
    uniform that may change later."""
    vs_presets: Dict[str, Value] = dict(uniforms)
    for symbol, fetched in attributes:
        gtype = symbol.type
        data = fetched[:, :gtype.component_count()].astype(float_model.dtype)
        if gtype.is_scalar():
            data = data[:, 0]
        vs_presets[symbol.name] = Value(gtype, data)
    vs_env = vs_interp.execute(vertex_count, vs_presets)

    position = vs_env.get("gl_Position")
    if position is None:
        raise SimulatorLimitation("vertex shader did not produce gl_Position")
    # Widened float64 data behind read-only broadcast views.
    varyings = {
        name: np.broadcast_to(
            vs_env[name].data.astype(np.float64, copy=copy),
            (vertex_count,) + vs_env[name].data.shape[1:],
        )
        for name in program.varying_types
    }
    return VertexPlan(
        np.broadcast_to(position.data.astype(np.float64, copy=copy),
                        (vertex_count, 4)),
        varyings,
        dict(vs_interp.counters.counts),
    )


def _extract_color(fs_env, out_name: str, n: int) -> np.ndarray:
    """The written colour builtin as an (n, 4) array."""
    if out_name == "gl_FragData":
        color = fs_env["gl_FragData"].data
        return np.broadcast_to(color, (n, 1, 4))[:, 0, :]
    return np.broadcast_to(fs_env["gl_FragColor"].data, (n, 4))


def quantize_color(color: np.ndarray, mode: str = "round") -> np.ndarray:
    """Clamp to [0,1] and convert to unsigned bytes.

    ``"round"`` follows the GL ES spec (§2.1.2: round to nearest);
    ``"floor"`` follows the paper's printed equation (2):
    ``i = floor(f * (2^8 - 1))``.
    """
    clamped = np.clip(color, 0.0, 1.0)
    if mode == "floor":
        return np.floor(clamped * 255.0).astype(np.uint8)
    if mode == "round":
        return np.floor(clamped * 255.0 + 0.5).astype(np.uint8)
    raise ValueError(f"unknown quantization mode '{mode}'")


def _cast_uniform_floats(uniforms: Dict[str, Value], dtype) -> None:
    """Cast float uniform data to the device float dtype in place."""
    for value in uniforms.values():
        _cast_value(value, dtype)


def _cast_value(value: Value, dtype) -> None:
    if value.fields is not None:
        for sub in value.fields.values():
            _cast_value(sub, dtype)
        return
    if value.data is not None and np.issubdtype(value.data.dtype, np.floating):
        value.data = value.data.astype(dtype)
