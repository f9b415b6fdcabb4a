"""The differential oracle: four independent ways to render a shader.

For one fragment shader the oracle produces four results and demands
they agree bit-for-bit:

A. **pipeline** — the full ``gles2`` raster path: vertex shading,
   rasterisation, varying interpolation, fragment shading on the
   selected execution backend, and the pipeline's own eq. (2)
   quantiser.
C. **scalar reference** — every fragment individually evaluated by
   :class:`repro.glsl.scalar_ref.ScalarInterpreter` (plain Python
   recursion over the AST, no numpy vectorisation, no IR), quantised
   by this module's independent :func:`reference_quantize`.
D. **compiled IR replay** — the captured per-fragment presets replayed
   through a fresh :class:`repro.glsl.ir.IRExecutor`: lower → fold →
   select-convert → CSE → DCE → flat instruction loop.  The pivot the
   other replays are compared against.
E. **JIT replay** — the same presets replayed through
   :class:`repro.glsl.jit.JitExecutor`: the generated straight-line
   numpy function (or its IRExecutor fallback for programs outside the
   JIT subset).

A≠C catches framebuffer plumbing and quantisation bugs (this is what
flags the deliberately injected eq. (2) off-by-one); C≠D catches any
place the IR compile pipeline (lowering or an optimisation pass) or
the vectorised runtime (masking, broadcasting, l-value or builtin
semantics) departs from the AST semantics; E≠D catches JIT codegen
bugs — mask-blend lowering, uniform-lane width inference,
quantisation elision.  The rasteriser itself is checked by asserting
the fullscreen quad covers every pixel exactly once (top-left fill
rule conformance).  The letters match ``docs/testing.md``; there is
no path B.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..gles2 import GLES2Context, enums as gl
from ..gles2 import pipeline as gles2_pipeline
from ..glsl.ir import IRExecutor
from ..glsl.jit import JitExecutor
from ..glsl.scalar_ref import ScalarInterpreter, python_value
from ..glsl.values import Value

#: Vertex shader used for all differential runs: fullscreen quad with
#: a [0,1]^2 ``v_uv`` varying (same shape as the paper's challenge-(1)
#: pass-through shader).
STANDARD_VERTEX_SHADER = """
attribute vec2 a_position;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5;
    gl_Position = vec4(a_position, 0.0, 1.0);
}
"""

_QUAD = np.array(
    [[-1, -1], [1, -1], [1, 1], [-1, -1], [1, 1], [-1, 1]], dtype=np.float32
)

#: Deterministic values for the generator's standard uniforms.
STANDARD_UNIFORM_VALUES: Dict[str, object] = {
    "u_f0": 0.37,
    "u_f1": -1.25,
    "u_v2": (0.81, 0.13),
    "u_v3": (0.29, -0.64, 1.07),
    "u_v4": (0.52, 0.91, -0.33, 0.18),
    # Sizes of u_tex0 / u_tex3 (generator.INDEX_SAMPLERS).
    "u_size0": (4.0, 4.0),
    "u_size3": (5.0, 3.0),
}

_CLEAR_COLOR = (0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class TextureSpec:
    """One sampler binding for the oracle: an RGBA8 image plus the
    texture parameters to set before the draw.

    A parameter of ``None`` means *leave the GL default* (min filter
    ``GL_NEAREST_MIPMAP_LINEAR``, mag ``GL_LINEAR``, wraps
    ``GL_REPEAT``) — that is how the mipmap-incomplete corpus entries
    get the spec-mandated opaque-black sampling without uploading
    mipmaps.  The defaults here mirror what :func:`draw_for_capture`
    historically hardcoded, so a plain ndarray (wrapped via
    :meth:`of`) behaves exactly as before.
    """

    data: np.ndarray
    min_filter: Optional[int] = gl.GL_NEAREST
    mag_filter: Optional[int] = gl.GL_NEAREST
    wrap_s: Optional[int] = gl.GL_CLAMP_TO_EDGE
    wrap_t: Optional[int] = gl.GL_CLAMP_TO_EDGE

    @classmethod
    def of(cls, value) -> "TextureSpec":
        if isinstance(value, cls):
            return value
        return cls(data=np.asarray(value, dtype=np.uint8))


def _standard_texture(name: str, width: int, height: int) -> np.ndarray:
    """Deterministic RGBA8 image for a standard sampler."""
    rng = random.Random(f"oracle-texture:{name}")
    flat = [rng.randrange(256) for __ in range(width * height * 4)]
    return np.array(flat, dtype=np.uint8).reshape(height, width, 4)


#: Deterministic texture bindings for the generator's standard samplers
#: (:data:`repro.testing.generator.STANDARD_SAMPLERS`).  The set spans
#: the sampling-path matrix: square NEAREST/CLAMP, non-square
#: power-of-two LINEAR with REPEAT/MIRRORED_REPEAT wraps, a degenerate
#: 1x1 image, and an NPOT shape (complete because its wraps are CLAMP
#: and its min filter is non-mipmap).
STANDARD_TEXTURE_VALUES: Dict[str, TextureSpec] = {
    "u_tex0": TextureSpec(data=_standard_texture("u_tex0", 4, 4)),
    "u_tex1": TextureSpec(
        data=_standard_texture("u_tex1", 8, 4),
        min_filter=gl.GL_LINEAR,
        mag_filter=gl.GL_LINEAR,
        wrap_s=gl.GL_REPEAT,
        wrap_t=gl.GL_MIRRORED_REPEAT,
    ),
    "u_tex2": TextureSpec(data=_standard_texture("u_tex2", 1, 1)),
    "u_tex3": TextureSpec(data=_standard_texture("u_tex3", 5, 3)),
}


def reference_quantize(component: float, mode: str = "round") -> int:
    """Independent scalar implementation of the paper's eq. (2): clamp
    one colour component to [0, 1] and quantise to an unsigned byte.

    Deliberately *not* implemented via
    :func:`repro.gles2.pipeline.quantize_color` so that bugs injected
    there are visible to the oracle.
    """
    c = float(component)
    c = 0.0 if c < 0.0 else (1.0 if c > 1.0 else c)
    if mode == "floor":
        return int(np.floor(np.float64(c) * 255.0))
    return int(np.floor(np.float64(c) * 255.0 + 0.5))


@dataclass
class DifferentialResult:
    """Outcome of one differential run."""

    ok: bool
    source: str
    #: "" when ok; otherwise which comparison failed
    #: ("coverage", "discard", "color", "jit-discard", "jit-color",
    #: "pipeline-vs-reference").
    stage: str = ""
    message: str = ""
    framebuffer: Optional[np.ndarray] = None
    mismatches: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return "ok"
        lines = [f"divergence at stage '{self.stage}': {self.message}"]
        lines += self.mismatches[:8]
        return "\n".join(lines)


@contextlib.contextmanager
def inject_eq2_off_by_one():
    """Deliberately corrupt the pipeline's eq. (2) quantiser: scale by
    2^8 - 2 instead of 2^8 - 1 (the classic off-by-one in the paper's
    quantisation formula).  Used to validate that the differential
    harness actually catches pipeline bugs."""
    original = gles2_pipeline.quantize_color

    def broken_quantize(color: np.ndarray, mode: str = "round") -> np.ndarray:
        clamped = np.clip(color, 0.0, 1.0)
        if mode == "floor":
            return np.floor(clamped * 254.0).astype(np.uint8)
        return np.floor(clamped * 254.0 + 0.5).astype(np.uint8)

    gles2_pipeline.quantize_color = broken_quantize
    try:
        yield
    finally:
        gles2_pipeline.quantize_color = original


@contextlib.contextmanager
def _capture():
    captures: List[gles2_pipeline.FragmentCapture] = []
    gles2_pipeline.set_capture_hook(captures.append)
    try:
        yield captures
    finally:
        gles2_pipeline.clear_capture_hook()


def _clone_presets(presets: Dict[str, Value]) -> Dict[str, Value]:
    return {name: value.clone() for name, value in presets.items()}


def _set_uniform(ctx, prog, name: str, value) -> None:
    loc = ctx.glGetUniformLocation(prog, name)
    if loc < 0:
        return
    if isinstance(value, bool) or isinstance(value, int):
        ctx.glUniform1i(loc, int(value))
    elif isinstance(value, float):
        ctx.glUniform1f(loc, value)
    else:
        values = tuple(float(v) for v in value)
        {
            2: ctx.glUniform2f,
            3: ctx.glUniform3f,
            4: ctx.glUniform4f,
        }[len(values)](loc, *values)


def draw_for_capture(
    fragment_source: str,
    *,
    size: int = 4,
    quantization: str = "round",
    uniforms: Optional[Dict[str, object]] = None,
    textures: Optional[Dict[str, np.ndarray]] = None,
    vertex_source: str = STANDARD_VERTEX_SHADER,
    execution_backend: str = gles2_pipeline.DEFAULT_EXECUTION_BACKEND,
    shade_workers: Optional[int] = None,
):
    """Draw a fullscreen quad with ``fragment_source`` and capture the
    per-fragment state.  Returns ``(framebuffer, capture)``.

    ``uniforms`` maps uniform names to floats/ints/tuples; ``textures``
    maps sampler uniform names to (H, W, 4) uint8 arrays or
    :class:`TextureSpec` instances (which also carry filter/wrap
    parameters).  The standard samplers of
    :data:`STANDARD_TEXTURE_VALUES` are bound automatically whenever
    the program declares them, mirroring how
    :data:`STANDARD_UNIFORM_VALUES` is always merged in.
    ``vertex_source`` may replace the standard quad shader (e.g. the
    codegen pass-through shader, whose varying is ``v_coord``).
    ``execution_backend`` selects how the pipeline itself runs the
    shaders ("ir" or "jit"); ``shade_workers`` selects multiprocess
    fragment shading (the pool-vs-in-process bit-identity tests drive
    it).
    """
    ctx = GLES2Context(
        width=size, height=size, float_model="exact",
        quantization=quantization, execution_backend=execution_backend,
        shade_workers=shade_workers,
    )
    vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
    ctx.glShaderSource(vs, vertex_source)
    ctx.glCompileShader(vs)
    fs = ctx.glCreateShader(gl.GL_FRAGMENT_SHADER)
    ctx.glShaderSource(fs, fragment_source)
    ctx.glCompileShader(fs)
    if not ctx.glGetShaderiv(fs, gl.GL_COMPILE_STATUS):
        raise ValueError(
            "fragment shader failed to compile:\n"
            + ctx.glGetShaderInfoLog(fs)
        )
    prog = ctx.glCreateProgram()
    ctx.glAttachShader(prog, vs)
    ctx.glAttachShader(prog, fs)
    ctx.glLinkProgram(prog)
    if not ctx.glGetProgramiv(prog, gl.GL_LINK_STATUS):
        raise ValueError("link failed: " + ctx.glGetProgramInfoLog(prog))
    ctx.glUseProgram(prog)

    merged = dict(STANDARD_UNIFORM_VALUES)
    merged.update(uniforms or {})
    for name, value in merged.items():
        _set_uniform(ctx, prog, name, value)

    # Standard samplers bind only when the program declares them, so a
    # program with its own (deliberately unbound) sampler still sees
    # the incomplete-texture black of texture object 0 on unit 0.
    merged_textures: Dict[str, TextureSpec] = {
        name: spec
        for name, spec in STANDARD_TEXTURE_VALUES.items()
        if ctx.glGetUniformLocation(prog, name) >= 0
    }
    for name, value in (textures or {}).items():
        merged_textures[name] = TextureSpec.of(value)
    for unit, (name, spec) in enumerate(merged_textures.items()):
        tex = ctx.glGenTextures(1)[0]
        ctx.glActiveTexture(gl.GL_TEXTURE0 + unit)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        # Default spec: mipmap-free completeness — without a non-mipmap
        # min filter the default GL_NEAREST_MIPMAP_LINEAR makes the
        # texture incomplete and every sample returns opaque black (a
        # spec passing None for a parameter opts into exactly that).
        for pname, pvalue in (
            (gl.GL_TEXTURE_MIN_FILTER, spec.min_filter),
            (gl.GL_TEXTURE_MAG_FILTER, spec.mag_filter),
            (gl.GL_TEXTURE_WRAP_S, spec.wrap_s),
            (gl.GL_TEXTURE_WRAP_T, spec.wrap_t),
        ):
            if pvalue is not None:
                ctx.glTexParameteri(gl.GL_TEXTURE_2D, pname, pvalue)
        image = np.ascontiguousarray(spec.data, dtype=np.uint8)
        ctx.glTexImage2D(
            gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, image.shape[1], image.shape[0],
            0, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, image,
        )
        loc = ctx.glGetUniformLocation(prog, name)
        if loc >= 0:
            ctx.glUniform1i(loc, unit)

    loc = ctx.glGetAttribLocation(prog, "a_position")
    ctx.glEnableVertexAttribArray(loc)
    ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, _QUAD)
    ctx.glViewport(0, 0, size, size)
    ctx.glClearColor(*_CLEAR_COLOR)
    ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
    with _capture() as captures:
        ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
    framebuffer = ctx.glReadPixels(
        0, 0, size, size, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE
    )
    if len(captures) != 1:
        raise RuntimeError(f"expected 1 draw capture, got {len(captures)}")
    return framebuffer, captures[0]


def _replay(executor_cls, capture, n: int):
    """Replay the captured fragment presets on a fresh executor;
    returns ``(colors, discarded)`` with colors as (n, 4) float64."""
    checked = capture.fragment_shader
    replay = executor_cls(checked)
    env = replay.execute(n, _clone_presets(capture.fs_presets))
    if "gl_FragData" in checked.written_builtins:
        value = env["gl_FragData"].fields["0"]
    else:
        value = env["gl_FragColor"]
    return np.broadcast_to(value.data.astype(np.float64), (n, 4)), \
        replay.discarded


def run_differential(
    fragment_source: str,
    *,
    size: int = 4,
    quantization: str = "round",
    uniforms: Optional[Dict[str, object]] = None,
    textures: Optional[Dict[str, np.ndarray]] = None,
    vertex_source: str = STANDARD_VERTEX_SHADER,
    backend: str = gles2_pipeline.DEFAULT_EXECUTION_BACKEND,
) -> DifferentialResult:
    """Render ``fragment_source`` through the four independent paths
    and compare the results bit-exactly.

    ``backend`` ("jit" or "ir") selects the executor the raster
    pipeline (path A) shades with; the replays D and E and the scalar
    reference C run on every call."""
    framebuffer, capture = draw_for_capture(
        fragment_source,
        size=size,
        quantization=quantization,
        uniforms=uniforms,
        textures=textures,
        vertex_source=vertex_source,
        execution_backend=backend,
    )

    def fail(stage: str, message: str, mismatches=()) -> DifferentialResult:
        return DifferentialResult(
            ok=False,
            source=fragment_source,
            stage=stage,
            message=message,
            framebuffer=framebuffer,
            mismatches=list(mismatches),
        )

    # ------------------------------------------------------------------
    # Rasteriser conformance: the quad must cover each pixel once.
    # ------------------------------------------------------------------
    n = capture.px.shape[0]
    if n != size * size:
        return fail(
            "coverage",
            f"quad rasterised {n} fragments for {size}x{size} pixels",
        )
    linear = capture.py.astype(np.int64) * size + capture.px.astype(np.int64)
    if np.unique(linear).size != n:
        return fail("coverage", "a pixel was covered more than once")

    # ------------------------------------------------------------------
    # Paths D and E: IR and JIT replays on the captured presets.
    # ------------------------------------------------------------------
    colors_d, discard_d = _replay(IRExecutor, capture, n)
    colors_e, discard_e = _replay(JitExecutor, capture, n)

    # ------------------------------------------------------------------
    # Path C: scalar reference, one fragment at a time.
    # ------------------------------------------------------------------
    checked = capture.fragment_shader
    colors_c = np.zeros((n, 4), dtype=np.float64)
    discard_c = np.zeros(n, dtype=bool)
    preset_names = list(capture.fs_presets)
    for lane in range(n):
        lane_presets = {
            name: python_value(capture.fs_presets[name], lane)
            for name in preset_names
        }
        scalar = ScalarInterpreter(checked)
        scalar_env = scalar.run(lane_presets)
        discard_c[lane] = scalar.discarded
        if scalar.discarded:
            continue
        if "gl_FragData" in checked.written_builtins:
            rgba = scalar_env["gl_FragData"][0]
        else:
            rgba = scalar_env["gl_FragColor"]
        colors_c[lane] = rgba

    # ------------------------------------------------------------------
    # Compare the replays against the IR pivot (pre-quantisation,
    # bit-exact floats; colours only where the pivot keeps the lane).
    # ------------------------------------------------------------------
    live = ~discard_d
    for prefix, name, colors, discard in (
        ("jit-", "jit", colors_e, discard_e),
        ("", "scalar", colors_c, discard_c),
    ):
        if not np.array_equal(discard_d, discard):
            lanes = np.nonzero(discard_d != discard)[0][:4]
            return fail(
                prefix + "discard",
                f"IR executor and {name} path disagree on discard",
                [
                    f"  fragment ({capture.px[i]},{capture.py[i]}): "
                    f"ir={bool(discard_d[i])} {name}={bool(discard[i])}"
                    for i in lanes
                ],
            )
        if not np.array_equal(colors_d[live], colors[live]):
            diff = np.any(colors_d != colors, axis=1) & live
            lanes = np.nonzero(diff)[0][:4]
            return fail(
                prefix + "color",
                f"IR executor and {name} path disagree on gl_FragColor",
                [
                    f"  fragment ({capture.px[i]},{capture.py[i]}): "
                    f"ir={colors_d[i].tolist()} {name}={colors[i].tolist()}"
                    for i in lanes
                ],
            )

    # ------------------------------------------------------------------
    # Compose the reference framebuffer with the independent quantiser
    # and compare against the pipeline's output.
    # ------------------------------------------------------------------
    clear_bytes = [
        reference_quantize(c, quantization) for c in _CLEAR_COLOR
    ]
    reference = np.empty((size, size, 4), dtype=np.uint8)
    reference[:, :] = clear_bytes
    for lane in range(n):
        if discard_c[lane]:
            continue
        x = int(capture.px[lane])
        y = int(capture.py[lane])
        reference[y, x] = [
            reference_quantize(colors_c[lane][ch], quantization)
            for ch in range(4)
        ]
    if not np.array_equal(framebuffer, reference):
        diff = np.nonzero(np.any(framebuffer != reference, axis=2))
        mismatches = [
            f"  pixel ({x},{y}): pipeline={framebuffer[y, x].tolist()} "
            f"reference={reference[y, x].tolist()}"
            for y, x in list(zip(diff[0], diff[1]))[:4]
        ]
        return fail(
            "pipeline-vs-reference",
            "pipeline framebuffer does not match the independently "
            "quantised oracle (eq. (2) path)",
            mismatches,
        )

    return DifferentialResult(
        ok=True, source=fragment_source, framebuffer=framebuffer
    )
