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

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..glsl.ir import IRExecutor
from ..glsl.jit import JitExecutor
from ..glsl.values import Value
from ..perf import counters, trace
from ..perf.counters import DrawStats, OpCounters
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

    #: The fragment shader as compiled (CheckedShader).
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
#: Default edge length of a fragment tile when tiling engages
#: automatically (shade_workers > 0 and the draw is large enough to
#: amortise the per-tile dispatch).  Chosen by the
#: ``benchmarks/perf_smoke.py --sweep-tile`` sweep.
DEFAULT_TILE_SIZE = 64

#: Automatic tiling only engages above this fragment count — smaller
#: draws are dispatch-bound, where splitting the batch only multiplies
#: the per-draw numpy-call overhead.
AUTO_TILE_MIN_FRAGMENTS = 2048

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
    tile_size: Optional[int] = None,
    shade_workers: int = 0,
) -> DrawStats:
    """Run the full pipeline for one draw call, writing into
    ``color_buffer`` (an (H, W, 4) uint8 array) in place.

    ``execution_backend`` names the shader executor (a key of
    :data:`EXECUTORS`).

    ``scissor`` is the (x, y, w, h) rectangle of an enabled
    GL_SCISSOR_TEST (None when disabled): fragments outside it are
    never generated.  ``tile_size`` splits fragment shading into
    framebuffer-aligned square tiles (None = automatic: tile only when
    ``shade_workers`` could use it and the draw is large); merged
    results are bit-identical to the monolithic path.  ``shade_workers``
    > 0 fans independent tiles across a process pool for the JIT
    backend (in-process tiled shading otherwise)."""
    shader_executor = EXECUTORS[execution_backend]
    stats = DrawStats()
    if index_stream.size == 0:
        return stats
    draw_counts = counters.snapshot(counters.DRAW)

    fb_height, fb_width = color_buffer.shape[0], color_buffer.shape[1]

    # ------------------------------------------------------------------
    # 1. Attribute fetch + vertex shading.  We shade the full range of
    # referenced vertices once (real hardware caches post-transform
    # vertices similarly).
    # ------------------------------------------------------------------
    max_index = int(index_stream.max())
    uniforms = program.build_uniform_values(resolve_sampler)
    _cast_uniform_floats(uniforms, float_model.dtype)

    vs_presets: Dict[str, Value] = dict(uniforms)
    from ..glsl.types import FLOAT, VEC2, VEC3, VEC4

    vec_types = {1: FLOAT, 2: VEC2, 3: VEC3, 4: VEC4}
    for symbol in program.vertex.active_attributes():
        location = program.attribute_locations[symbol.name]
        state = attribs.get(location, VertexAttribState())
        fetched = fetch_attribute(state, max_index)
        gtype = symbol.type
        comps = gtype.component_count()
        data = fetched[:, :comps].astype(float_model.dtype)
        if gtype.is_scalar():
            data = data[:, 0]
        vs_presets[symbol.name] = Value(gtype, data)

    vertex_count = max_index + 1
    vs_interp = shader_executor(
        program.vertex,
        float_model=float_model,
        counters=stats.vertex_ops,
        max_loop_iterations=max_loop_iterations,
    )
    with trace.span("draw.vertex", "draw", {"vertices": vertex_count}):
        vs_env = vs_interp.execute(vertex_count, vs_presets)
    stats.vertex_invocations = vertex_count

    position = vs_env.get("gl_Position")
    if position is None:
        raise SimulatorLimitation("vertex shader did not produce gl_Position")
    positions_clip = np.broadcast_to(
        position.data.astype(np.float64), (vertex_count, 4)
    )

    # ------------------------------------------------------------------
    # 2. Primitive assembly + rasterisation.
    # ------------------------------------------------------------------
    with trace.span("draw.raster", "draw") as sp:
        window, w_clip = raster.viewport_transform(positions_clip, viewport)
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
    if batch.count == 0:
        return stats

    # ------------------------------------------------------------------
    # 3. Varying interpolation + fragment shading.
    # ------------------------------------------------------------------
    fs_presets: Dict[str, Value] = dict(uniforms)
    with trace.span(
        "draw.varyings", "draw",
        {"varyings": len(program.varying_types), "fragments": batch.count},
    ):
        for name, gtype in program.varying_types.items():
            per_vertex = vs_env[name].data
            if (per_vertex.shape[0] != vertex_count
                    or per_vertex.dtype != np.float64):
                # Uniform-width or reduced-precision vertex outputs
                # need a widen + float64 upcast; outputs already at
                # full vertex width in float64 (the exact-model GPGPU
                # case) are used as-is — the broadcast + astype copy
                # is pure per-launch overhead.
                per_vertex = np.broadcast_to(
                    per_vertex.astype(np.float64),
                    (vertex_count,) + per_vertex.shape[1:],
                )
            interpolated = raster.interpolate_varying(batch, per_vertex)
            fs_presets[name] = Value(
                gtype, interpolated.astype(float_model.dtype)
            )

    frag_coord = np.empty((batch.count, 4), dtype=float_model.dtype)
    frag_coord[:, 0] = batch.px + 0.5
    frag_coord[:, 1] = batch.py + 0.5
    frag_coord[:, 2] = batch.frag_z
    frag_coord[:, 3] = batch.frag_w
    from ..glsl.types import BOOL as _BOOL, VEC4 as _VEC4, VEC2 as _VEC2

    fs_presets["gl_FragCoord"] = Value(_VEC4, frag_coord)
    fs_presets["gl_FrontFacing"] = Value(_BOOL, batch.front)
    fs_presets["gl_PointCoord"] = Value(
        _VEC2, np.zeros((batch.count, 2), dtype=float_model.dtype)
    )

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

    tile_indices = None
    if tile_size is not None and tile_size > 0:
        ts = tile_size
    elif shade_workers > 0 and batch.count > AUTO_TILE_MIN_FRAGMENTS:
        ts = DEFAULT_TILE_SIZE
    else:
        ts = 0
    if ts:
        parts = raster.partition_tiles(batch, ts)
        if len(parts) > 1:
            tile_indices = parts

    with trace.span("draw.shade", "draw") as sp:
        if sp is not None:
            sp.args.update({
                "fragments": batch.count,
                "backend": execution_backend,
                "tiles": len(tile_indices) if tile_indices else 1,
                "workers": shade_workers,
            })
        if tile_indices is None:
            fs_env = fs_interp.execute(batch.count, fs_presets)
            color = _extract_color(fs_env, out_name, batch.count)
            color = color.astype(np.float64)
            discarded = fs_interp.discarded
        else:
            color, discarded = _shade_tiled(
                fs_interp, fs_presets, tile_indices, batch.count,
                out_name, shade_workers,
            )

    keep = ~discarded
    stats.discarded_fragments = int((~keep).sum())

    # ------------------------------------------------------------------
    # 4. Output selection and framebuffer write (paper eq. (2)).
    # ------------------------------------------------------------------
    with trace.span("draw.quantise", "draw", {"fragments": batch.count}):
        quantised = quantize_color(color, quantization)
    if _capture_hook is not None:
        _capture_hook(
            FragmentCapture(
                fragment_shader=program.fragment,
                fs_presets=fs_presets,
                px=batch.px.copy(),
                py=batch.py.copy(),
                discarded=discarded.copy(),
                colors=color.copy(),
                quantised=quantised.copy(),
                quantization=quantization,
            )
        )
    with trace.span("draw.write", "draw") as sp:
        px = batch.px[keep]
        py = batch.py[keep]
        color_buffer[py, px] = quantised[keep]
        if sp is not None:
            sp.args["writes"] = int(keep.sum())
    stats.framebuffer_writes = int(keep.sum())
    # The draw-scope counters shading changed (texture gathers, from
    # this process and from pool workers alike).
    stats.counts = counters.delta(draw_counts)
    return stats


def _extract_color(fs_env, out_name: str, n: int) -> np.ndarray:
    """The written colour builtin as an (n, 4) array."""
    if out_name == "gl_FragData":
        color = fs_env["gl_FragData"].data
        return np.broadcast_to(color, (n, 1, 4))[:, 0, :]
    return np.broadcast_to(fs_env["gl_FragColor"].data, (n, 4))


def _slice_presets(presets: Dict[str, Value], idx: np.ndarray) -> Dict[str, Value]:
    """Per-tile view of the fragment presets: wide (per-fragment)
    values are sliced to the tile's fragments, uniform (width-1)
    values shared as-is.  Executors never mutate preset values (the
    no-in-place invariant), so sharing is safe."""
    sliced = {}
    for name, value in presets.items():
        if value.fields is None and value.data is not None and value.batch > 1:
            sliced[name] = Value(value.type, value.data[idx])
        else:
            sliced[name] = value
    return sliced


def _shade_tiled(
    fs_interp,
    fs_presets: Dict[str, Value],
    tile_indices,
    count: int,
    out_name: str,
    shade_workers: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shade a partitioned fragment batch tile by tile, reassembling
    full-batch (count, 4) float64 colours and the (count,) discard
    mask in original fragment order.

    Bit-identity with the monolithic path holds because every
    fragment-stage computation is per-lane elementwise: running the
    shader on a slice of the interpolated presets produces exactly the
    slice of the monolithic results.  Tiles partition the fragments,
    so the scatter below is a permutation-free reassembly.

    When ``shade_workers`` > 0 and the backend is the JIT, tiles fan
    out across the worker pool (see :mod:`repro.gles2.parallel`);
    otherwise — and whenever the pool or the program cannot ship — the
    loop below shades in-process.  Global initializers are per-draw
    work, so only the first tile tallies them (``count_globals``).
    """
    color = np.empty((count, 4), dtype=np.float64)
    discarded = np.empty(count, dtype=bool)

    if shade_workers > 0:
        from . import parallel

        results = parallel.shade_draw(
            fs_interp, count, fs_presets, tile_indices, shade_workers,
            out_name,
        )
        if results is not None:
            with trace.span(
                "draw.merge", "draw",
                {"chunks": len(results), "fragments": count},
            ):
                for idx, chunk_color, chunk_discarded in results:
                    cn = idx.shape[0]
                    if out_name == "gl_FragData":
                        chunk_color = np.broadcast_to(
                            chunk_color, (cn, 1, 4)
                        )[:, 0, :]
                    else:
                        chunk_color = np.broadcast_to(chunk_color, (cn, 4))
                    color[idx] = chunk_color.astype(np.float64)
                    if chunk_discarded is None:
                        discarded[idx] = False
                    elif chunk_discarded.shape[0] == cn:
                        discarded[idx] = chunk_discarded
                    else:
                        discarded[idx] = bool(chunk_discarded[0])
            return color, discarded

    for i, idx in enumerate(tile_indices):
        with trace.span(
            "draw.shade.tile", "draw",
            {"tile": i, "fragments": int(idx.shape[0])},
        ):
            tile_presets = _slice_presets(fs_presets, idx)
            fs_env = fs_interp.execute(
                idx.shape[0], tile_presets, count_globals=(i == 0)
            )
            tile_color = _extract_color(fs_env, out_name, idx.shape[0])
            color[idx] = tile_color.astype(np.float64)
            discarded[idx] = fs_interp.discarded
    return color, discarded


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
