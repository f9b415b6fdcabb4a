"""GpgpuDevice: the top of the public API.

Owns the simulated GL context, builds programs with proper error
surfacing, allocates :class:`GpuArray` storage, constructs kernels,
implements both challenge-(7) readback strategies, and exposes the
performance-model wall clock for benchmarks.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ...gles2 import GLES2Context, enums as gl
from ...gles2.pipeline import DEFAULT_EXECUTION_BACKEND
from ...gles2.precision import FloatModel
from ...perf.machines import GpuParameters, VIDEOCORE_IV_GPU
from ...perf.wallclock import GpuTimeline, gpu_wall_time
from ..codegen.templates import (
    COPY_FRAGMENT_SHADER,
    FULLSCREEN_QUAD_VERTICES,
    PASSTHROUGH_VERTEX_SHADER,
    generate_kernel_source,
)
from ..numerics.formats import ALIASES, FORMATS, NumericFormat, get_format
from .buffer import GpuArray
from .errors import GpgpuError, ShaderBuildError
from .kernel import Kernel, KernelSpec, MultiOutputKernel, program_cache_key


class GpgpuDevice:
    """A general-purpose compute device on top of OpenGL ES 2.

    Parameters
    ----------
    float_model:
        Device arithmetic model: ``"exact"`` (float64 reference),
        ``"ieee32"`` or ``"videocore"`` (reduced-precision, matching
        the paper's observed 15-bit band).
    quantization:
        Framebuffer byte conversion: ``"round"`` (GL ES spec) or
        ``"floor"`` (the paper's printed eq. (2)).
    machine:
        GPU timing parameters for :meth:`wall_time`.
    execution_backend:
        ``"jit"`` (the default: generated straight-line numpy code
        per compiled program — fastest steady state; falls back to the
        IR executor outside the JIT subset) or ``"ir"`` (compiled
        linear-IR executor, bit-identical).
    shade_workers:
        Worker processes for fragment shading (JIT backend only; 0 =
        in-process).  A draw above
        :data:`~repro.gles2.pipeline.POOL_MIN_FRAGMENTS` fragments is
        split into one contiguous range per worker.  Env default:
        ``REPRO_SHADE_WORKERS``.
    graph_mode:
        When true, the multi-pass kernel drivers (``repro.kernels``)
        and graph-aware workloads record their launches into a
        deferred :class:`~repro.core.api.graph.LaunchGraph` and replay
        them through the fusing scheduler instead of executing
        eagerly.  None reads the ``REPRO_GRAPH`` environment knob
        ("1" enables); eager execution is the default.
    """

    def __init__(
        self,
        float_model: Union[str, FloatModel] = "ieee32",
        quantization: str = "round",
        machine: GpuParameters = VIDEOCORE_IV_GPU,
        strict_errors: bool = True,
        max_loop_iterations: int = 65536,
        execution_backend: str = DEFAULT_EXECUTION_BACKEND,
        shade_workers: Optional[int] = None,
        graph_mode: Optional[bool] = None,
    ):
        self.ctx = GLES2Context(
            width=1,
            height=1,
            float_model=float_model,
            quantization=quantization,
            strict_errors=strict_errors,
            max_loop_iterations=max_loop_iterations,
            execution_backend=execution_backend,
            shade_workers=shade_workers,
        )
        self.machine = machine
        #: Kernel objects memoised on their program-cache key.
        self._kernel_cache: Dict[Tuple[str, str], Kernel] = {}
        #: The array whose texture is attached to the currently bound
        #: FBO with freshly rendered contents (challenge 7 tracking).
        self.fb_resident: Optional[GpuArray] = None
        #: Ablation switch: force the copy-shader readback path even
        #: when a direct read would do.
        self.force_copy_readback = False
        self._copy_program: Optional[int] = None
        self._scratch: Dict[Tuple[int, int], GpuArray] = {}
        if graph_mode is None:
            graph_mode = os.environ.get("REPRO_GRAPH", "0") == "1"
        #: Whether the multi-pass drivers should record into launch
        #: graphs (REPRO_GRAPH knob; see repro.core.api.graph).
        self.graph_mode = bool(graph_mode)
        #: The currently recording LaunchGraph, if any.
        self._active_graph = None
        self._scratch_pool = None  # lazily built ScratchPool

    @property
    def kernel_cache_hits(self) -> int:
        """How many kernel() calls were served from the cache (full
        compile + link skipped): the ``kernel.cache_hits`` counter."""
        return self.ctx.stats.counts["kernel.cache_hits"]

    # ------------------------------------------------------------------
    # Deferred launch graphs
    # ------------------------------------------------------------------
    @property
    def graph_enabled(self) -> bool:
        """True when drivers should record into a launch graph: the
        graph knob is on and no recording is already active (drivers
        nested inside another recording fall back to joining nothing —
        the outer graph owns the schedule)."""
        return self.graph_mode and self._active_graph is None

    @property
    def scratch_pool(self):
        """The device-lifetime pool of scratch backing arrays."""
        if self._scratch_pool is None:
            from .graph import ScratchPool

            self._scratch_pool = ScratchPool(self)
        return self._scratch_pool

    def record(self):
        """Open a deferred :class:`~repro.core.api.graph.LaunchGraph`.

        Use as a context manager: launches recorded through
        ``graph.launch(...)`` execute at block exit, scheduled through
        map-chain fusion, scratch pooling and dead-launch elimination::

            with device.record() as graph:
                graph.launch(kernel, out, {"a": src})
            host = out.to_host()

        Recording is not reentrant — a second ``record()`` while one
        graph is open raises.
        """
        from .graph import LaunchGraph

        if self._active_graph is not None:
            raise GpgpuError(
                "a LaunchGraph is already recording on this device "
                "(recording is not reentrant)"
            )
        graph = LaunchGraph(self)
        self._active_graph = graph
        return graph

    def trace(self, path: Optional[str] = None,
              max_events: Optional[int] = None):
        """Record a structured execution trace of everything this
        process runs inside the block::

            with device.trace("out.json"):
                kernel(out, {"a": src})

        Spans cover shader compiles, uploads, draw phases, worker-pool
        dispatch, cache traffic and graph replays (see
        :mod:`repro.perf.trace`).  On clean exit the Chrome
        trace-event JSON is written to ``path`` — load it at
        https://ui.perfetto.dev, or inspect it with
        ``python -m repro.trace view``.  If a recorder is already
        active (``REPRO_TRACE`` set, or an enclosing ``trace()``
        block), the block joins it instead of starting a new one and
        leaves ownership untouched.
        """
        from ...perf import trace as perf_trace

        return perf_trace.session(path, max_events=max_events)

    # ------------------------------------------------------------------
    # Program building
    # ------------------------------------------------------------------
    def build_program(self, vertex_source: str, fragment_source: str) -> int:
        """Compile and link a program, raising ShaderBuildError with
        the info log on failure."""
        ctx = self.ctx
        vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
        ctx.glShaderSource(vs, vertex_source)
        ctx.glCompileShader(vs)
        if not ctx.glGetShaderiv(vs, gl.GL_COMPILE_STATUS):
            raise ShaderBuildError(
                "vertex shader failed to compile",
                ctx.glGetShaderInfoLog(vs),
                vertex_source,
            )
        fs = ctx.glCreateShader(gl.GL_FRAGMENT_SHADER)
        ctx.glShaderSource(fs, fragment_source)
        ctx.glCompileShader(fs)
        if not ctx.glGetShaderiv(fs, gl.GL_COMPILE_STATUS):
            raise ShaderBuildError(
                "fragment shader failed to compile",
                ctx.glGetShaderInfoLog(fs),
                fragment_source,
            )
        program = ctx.glCreateProgram()
        ctx.glAttachShader(program, vs)
        ctx.glAttachShader(program, fs)
        ctx.glLinkProgram(program)
        if not ctx.glGetProgramiv(program, gl.GL_LINK_STATUS):
            raise ShaderBuildError(
                "program failed to link",
                ctx.glGetProgramInfoLog(program),
                fragment_source,
            )
        return program

    # ------------------------------------------------------------------
    # Arrays
    # ------------------------------------------------------------------
    def empty(self, length: int, fmt) -> GpuArray:
        """Allocate an uninitialised array."""
        return GpuArray(self, length, fmt)

    def array(self, host: np.ndarray, fmt=None) -> GpuArray:
        """Allocate and upload a host array (format inferred from its
        dtype when not given)."""
        host = np.asarray(host)
        inferred = fmt is None
        if inferred:
            fmt = host.dtype.name
        try:
            fmt = get_format(fmt)
        except ValueError as exc:
            supported = ", ".join(sorted(FORMATS))
            if inferred:
                raise GpgpuError(
                    f"cannot infer a texture format for host dtype "
                    f"'{host.dtype}' — GpuArray supports {supported} "
                    f"(paper §IV byte layouts).  Convert the host array "
                    f"or pass an explicit fmt=, e.g. "
                    f"device.array(host.astype('float32')) or "
                    f"device.array(host, fmt='int32')."
                ) from exc
            raise GpgpuError(
                f"unknown format {fmt!r} for device.array() — choose "
                f"one of {supported} (or a C alias: "
                f"{', '.join(sorted(ALIASES))})"
            ) from exc
        out = GpuArray(self, host.reshape(-1).shape[0], fmt)
        out.upload(host)
        return out

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def kernel(
        self,
        name: str,
        inputs: Sequence[Tuple[str, object]],
        output: object,
        body: str,
        uniforms: Sequence[Tuple[str, str]] = (),
        mode: str = "map",
        preamble: str = "",
        extra_formats: Sequence[object] = (),
    ) -> Kernel:
        """Create and compile a single-output kernel.

        Kernels are memoised on their program-cache key (the hash of
        the generated vertex + fragment sources): a second request for
        the same computation returns the already-compiled Kernel
        object and bumps :attr:`kernel_cache_hits`."""
        source = generate_kernel_source(
            name=name,
            inputs=inputs,
            output_format=output,
            body=body,
            uniforms=uniforms,
            mode=mode,
            preamble=preamble,
            extra_formats=extra_formats,
        )
        key = program_cache_key(source.vertex, source.fragment)
        cached = self._kernel_cache.get(key)
        if cached is not None:
            self.ctx.stats.counts["kernel.cache_hits"] += 1
            return cached
        spec = KernelSpec(
            name=name,
            inputs=tuple((n, get_format(f).name) for n, f in inputs),
            output=get_format(output).name,
            body=body,
            uniforms=tuple(uniforms),
            mode=mode,
            preamble=preamble,
        )
        kernel = Kernel.from_source(self, name, inputs, output, source, spec=spec)
        self._kernel_cache[key] = kernel
        return kernel

    def vertex_kernel(
        self,
        name: str,
        inputs: Sequence[Tuple[str, object]],
        output: object,
        body: str,
        uniforms: Sequence[Tuple[str, str]] = (),
        preamble: str = "",
    ):
        """Create a kernel that computes in the *vertex* stage
        (§III-1's other option) — inputs come from host arrays as
        normalised byte attributes; map semantics only."""
        from .vertex_kernel import VertexKernel

        return VertexKernel(
            self, name, inputs, output, body,
            uniforms=uniforms, preamble=preamble,
        )

    def multi_output_kernel(
        self,
        name: str,
        inputs: Sequence[Tuple[str, object]],
        outputs: Sequence[object],
        body: str,
        uniforms: Sequence[Tuple[str, str]] = (),
        mode: str = "map",
        preamble: str = "",
    ) -> MultiOutputKernel:
        """Create a multi-output kernel (split per challenge 8)."""
        return MultiOutputKernel(
            self, name, inputs, outputs, body,
            uniforms=uniforms, mode=mode, preamble=preamble,
        )

    # ------------------------------------------------------------------
    # Readback (challenge 7)
    # ------------------------------------------------------------------
    def read_framebuffer(self, array: GpuArray) -> np.ndarray:
        """Direct glReadPixels from the array's own framebuffer."""
        ctx = self.ctx
        ctx.glBindFramebuffer(gl.GL_FRAMEBUFFER, array.framebuffer())
        pixels = ctx.glReadPixels(
            0, 0, array.width, array.height, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE
        )
        return pixels

    def copy_texture_and_read(self, array: GpuArray) -> np.ndarray:
        """The fallback readback: render the texture into a scratch
        framebuffer with a pass-through fragment shader, then read."""
        ctx = self.ctx
        if self._copy_program is None:
            self._copy_program = self.build_program(
                PASSTHROUGH_VERTEX_SHADER, COPY_FRAGMENT_SHADER
            )
        scratch = self._scratch_like(array)
        ctx.glUseProgram(self._copy_program)
        ctx.glBindFramebuffer(gl.GL_FRAMEBUFFER, scratch.framebuffer())
        ctx.glViewport(0, 0, array.width, array.height)
        ctx.glActiveTexture(gl.GL_TEXTURE0)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, array.texture)
        ctx.glUniform1i(
            ctx.glGetUniformLocation(self._copy_program, "u_source"), 0
        )
        loc = ctx.glGetAttribLocation(self._copy_program, "a_position")
        ctx.glEnableVertexAttribArray(loc)
        ctx.glVertexAttribPointer(
            loc, 2, gl.GL_FLOAT, False, 0, FULLSCREEN_QUAD_VERTICES
        )
        ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
        pixels = ctx.glReadPixels(
            0, 0, array.width, array.height, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE
        )
        self.fb_resident = None  # scratch now owns the framebuffer
        return pixels

    def _scratch_like(self, array: GpuArray) -> GpuArray:
        key = (array.width, array.height)
        scratch = self._scratch.get(key)
        if scratch is None:
            scratch = GpuArray(
                self, array.texel_count, "uint8",
                shape=(array.width, array.height),
            )
            self._scratch[key] = scratch
        return scratch

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------
    def wall_time(self) -> GpuTimeline:
        """Modeled application wall time of everything this device has
        executed since the last reset (paper §V methodology: includes
        transfers and kernel compilation)."""
        return gpu_wall_time(self.ctx.stats, self.machine)

    def reset_stats(self) -> None:
        self.ctx.stats.reset()

    # ------------------------------------------------------------------
    def precision_info(self) -> Tuple[Tuple[int, int], int]:
        """glGetShaderPrecisionFormat for highp float — the §IV-E probe
        for the device float format."""
        return self.ctx.glGetShaderPrecisionFormat(
            gl.GL_FRAGMENT_SHADER, gl.GL_HIGH_FLOAT
        )
