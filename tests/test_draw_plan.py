"""Draw plans: a relaunch whose inputs match an earlier draw byte for
byte replays the vertex stage, window transform, varyings and
framebuffer scatter.  A plan hit must be indistinguishable from a full
run in everything except wall time — framebuffer bytes, ``DrawStats``,
modeled GPU time and the ``draw.*`` spans — and every input change
that could alter a planned product must give a fresh plan."""

import numpy as np
import pytest

from repro.core.api.device import GpgpuDevice
from repro.gles2 import GLES2Context, enums as gl, parallel, pipeline, raster
from repro.gles2.precision import make_model
from repro.perf import trace
from repro.perf.gpu_model import GpuModel
from repro.testing import faults

N = 256  # a 16 x 16 output: several 4-pixel tiles for the pool


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    parallel.shutdown_pool()


def _forget_plans(ctx):
    """Drop every plan a later draw could replay: each program's vertex
    plans and the memoised fragment batches that carry fragment plans."""
    for program in ctx._programs.values():
        program.vertex_plans.clear()
    raster.raster_memo_clear()


def _traced(fn):
    """Run ``fn`` and return the ``draw*`` spans it recorded."""
    with trace.session() as recorder:
        start = len(recorder.events)
        fn()
        events = recorder.events[start:]
    return [e for e in events if e["name"].startswith("draw")]


def _plan_args(spans):
    return {e["name"]: e["args"]["plan"] for e in spans
            if "plan" in e.get("args", {})}


def _no_pool(counts):
    """``counts`` less ``pool.*``: how often a pool worker loads a
    function from disk depends on which worker took which chunk, not
    on plans."""
    return {k: v for k, v in counts.items() if not k.startswith("pool.")}


def _without_plan(spans):
    """Span names and arguments, less the ``plan`` argument."""
    out = []
    for e in spans:
        args = {k: v for k, v in e.get("args", {}).items() if k != "plan"}
        if "counters" in args:
            args["counters"] = _no_pool(args["counters"])
        out.append((e["name"], args))
    return out


def _stats_key(draw):
    """Every ``DrawStats`` field."""
    return (
        draw.vertex_invocations,
        draw.fragment_invocations,
        draw.discarded_fragments,
        draw.framebuffer_writes,
        draw.vertex_ops.snapshot(),
        draw.fragment_ops.snapshot(),
        _no_pool(draw.counts),
    )


KERNELS = {
    "sum": ("result = a + b;", np.arange(-N // 2, N // 2)),
    "discard": ("if (a < 0.0) { discard; } result = a + b;",
                np.arange(-N // 4, 3 * N // 4)),
}


def _launch_twice(backend, workers, body, a_host, replay):
    """Launch one kernel twice on a fresh device, after a warm-up launch
    whose compiles and stats are dropped.  With ``replay`` the second
    launch may replay the first launch's plans; without, every plan is
    dropped first, so both launches run in full."""
    device = GpgpuDevice(
        float_model="ieee32", execution_backend=backend,
        shade_workers=workers, tile_size=4 if workers else None,
    )
    kernel = device.kernel(
        name="plan_probe", inputs=[("a", "int32"), ("b", "int32")],
        output="int32", body=body,
    )
    a = device.empty(N, "int32")
    b = device.empty(N, "int32")
    out = device.empty(N, "int32")
    a.upload(a_host.astype(np.int32))
    b.upload(np.full(N, 3, dtype=np.int32))
    out.upload(np.full(N, 7, dtype=np.int32))
    kernel(out, {"a": a, "b": b})
    device.ctx.stats.reset()
    launches = []
    for i in range(2):
        if i == 0 or not replay:
            _forget_plans(device.ctx)
        out.upload(np.full(N, 7, dtype=np.int32))
        spans = _traced(lambda: kernel(out, {"a": a, "b": b}))
        draw = device.ctx.stats.draws[-1]
        launches.append((out.to_host().tobytes(), draw, spans))
    return launches, device.wall_time()


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("backend", ["ir", "jit"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_plan_hit_matches_full_run(backend, workers, kernel):
    body, a_host = KERNELS[kernel]
    # The draw stats compared below include the fused-read gather
    # counts, which an injected gather miss would skew per launch.
    with faults.suppress():
        planned, planned_time = _launch_twice(backend, workers, body,
                                              a_host, replay=True)
        full, full_time = _launch_twice(backend, workers, body, a_host,
                                        replay=False)

    assert _plan_args(planned[0][2]) == {"draw.vertex": "miss",
                                         "draw.raster": "miss"}
    assert _plan_args(planned[1][2]) == {"draw.vertex": "hit",
                                         "draw.raster": "hit"}
    assert _plan_args(full[1][2]) == _plan_args(full[0][2])
    for (fb, draw, spans), (ref_fb, ref_draw, ref_spans) in zip(planned,
                                                                 full):
        assert fb == ref_fb
        assert _stats_key(draw) == _stats_key(ref_draw)
        assert GpuModel().draw_time(draw) == GpuModel().draw_time(ref_draw)
        assert _without_plan(spans) == _without_plan(ref_spans)
    assert planned_time == full_time
    if kernel == "discard":
        assert planned[1][1].discarded_fragments == N // 4


# ----------------------------------------------------------------------
# Invalidation: each input change gives a fresh plan and correct output
# ----------------------------------------------------------------------
VS = """
attribute vec2 a_position;
uniform vec2 u_offset;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5 + u_offset;
    gl_Position = vec4(a_position, 0.0, 1.0);
}
"""

FS = """
precision highp float;
uniform float u_tint;
varying vec2 v_uv;
void main() {
    gl_FragColor = vec4(v_uv, u_tint, gl_FragCoord.x / 16.0);
}
"""

QUAD = np.array(
    [[-1, -1], [1, -1], [1, 1], [-1, -1], [1, 1], [-1, 1]],
    dtype=np.float32,
)


class Rig:
    """One program drawing a client-array quad into an 8 x 8 default
    framebuffer, with a vertex-stage and a fragment-only uniform."""

    def __init__(self, float_model="exact", backend="jit", vertex_source=VS):
        self.quad = QUAD.copy()
        ctx = self.ctx = GLES2Context(
            width=8, height=8, float_model=float_model,
            execution_backend=backend,
        )
        prog = self.prog = ctx.glCreateProgram()
        for kind, source in ((gl.GL_VERTEX_SHADER, vertex_source),
                             (gl.GL_FRAGMENT_SHADER, FS)):
            shader = ctx.glCreateShader(kind)
            ctx.glShaderSource(shader, source)
            ctx.glCompileShader(shader)
            ctx.glAttachShader(prog, shader)
        ctx.glLinkProgram(prog)
        ctx.glUseProgram(prog)
        loc = ctx.glGetAttribLocation(prog, "a_position")
        ctx.glEnableVertexAttribArray(loc)
        ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, self.quad)
        ctx.glViewport(0, 0, 8, 8)
        self.set_uniforms(0.0, 0.0, 0.5)

    @property
    def program(self):
        return self.ctx._programs[self.prog]

    def set_uniforms(self, ox, oy, tint):
        ctx = self.ctx
        ctx.glUniform2f(ctx.glGetUniformLocation(self.prog, "u_offset"),
                        ox, oy)
        ctx.glUniform1f(ctx.glGetUniformLocation(self.prog, "u_tint"), tint)

    def draw(self):
        """Clear, draw, read back; returns (pixels, plan span args)."""
        ctx = self.ctx
        ctx.glClearColor(0.0, 0.0, 0.0, 0.0)
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        spans = _traced(lambda: ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6))
        fb = ctx.glReadPixels(0, 0, 8, 8, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)
        return fb, _plan_args(spans)


def _change_array(rig):
    rig.quad *= 0.5  # same object, new bytes


def _change_vertex_uniform(rig):
    rig.set_uniforms(0.25, 0.0, 0.5)


def _change_fragment_uniform(rig):
    rig.set_uniforms(0.0, 0.0, 0.75)


def _change_viewport(rig):
    rig.ctx.glViewport(0, 0, 4, 4)


def _enable_scissor(rig):
    rig.ctx.glEnable(gl.GL_SCISSOR_TEST)
    rig.ctx.glScissor(2, 1, 3, 5)


def _change_float_model(rig):
    rig.ctx.float_model = make_model("ieee32")


def _relink(rig):
    rig.ctx.glLinkProgram(rig.prog)
    rig.ctx.glUseProgram(rig.prog)


#: change -> (draw.vertex plan, draw.raster plan) of the draw after it.
INVALIDATIONS = {
    _change_array: ("miss", "miss"),
    _change_vertex_uniform: ("miss", "hit"),
    _change_fragment_uniform: ("hit", "hit"),
    _change_viewport: ("hit", "miss"),
    _enable_scissor: ("hit", "miss"),
    _change_float_model: ("miss", "hit"),
    _relink: ("miss", "hit"),
}


@pytest.mark.parametrize("change", list(INVALIDATIONS),
                         ids=lambda fn: fn.__name__.lstrip("_"))
def test_changed_input_gets_fresh_plan_and_correct_output(change):
    raster.raster_memo_clear()
    rig = Rig()
    rig.draw()
    __, plans = rig.draw()
    assert plans == {"draw.vertex": "hit", "draw.raster": "hit"}
    earlier = list(rig.program.vertex_plans.values())

    change(rig)
    fb, plans = rig.draw()
    vertex, fragment = INVALIDATIONS[change]
    assert plans == {"draw.vertex": vertex, "draw.raster": fragment}
    latest = next(reversed(rig.program.vertex_plans.values()))
    assert any(latest is plan for plan in earlier) == (vertex == "hit")

    # The same history, with no plan to replay on the last draw.
    fresh = Rig()
    fresh.draw()
    change(fresh)
    _forget_plans(fresh.ctx)
    expected, plans = fresh.draw()
    assert plans == {"draw.vertex": "miss", "draw.raster": "miss"}
    assert np.array_equal(fb, expected)
    assert (_stats_key(rig.ctx.stats.draws[-1])
            == _stats_key(fresh.ctx.stats.draws[-1]))


STRUCT_VS = """
attribute vec2 a_position;
struct Offset { vec2 xy; };
uniform Offset u_offset;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5 + u_offset.xy;
    gl_Position = vec4(a_position, 0.0, 1.0);
}
"""


def test_struct_uniform_in_vertex_stage_is_never_planned():
    rig = Rig(vertex_source=STRUCT_VS)
    first, plans = rig.draw()
    assert plans["draw.vertex"] == "miss"
    again, plans = rig.draw()
    assert plans == {"draw.vertex": "miss", "draw.raster": "hit"}
    assert not rig.program.vertex_plans
    assert np.array_equal(first, again)


def test_planned_presets_are_read_only():
    rig = Rig()
    captured = []
    pipeline.set_capture_hook(captured.append)
    try:
        rig.draw()
    finally:
        pipeline.clear_capture_hook()
    (capture,) = captured
    for name in ("v_uv", "gl_FragCoord", "gl_PointCoord", "gl_FrontFacing"):
        with pytest.raises(ValueError, match="read-only"):
            capture.fs_presets[name].data[0] = 1
    (plan,) = rig.program.vertex_plans.values()
    with pytest.raises(ValueError, match="read-only"):
        plan.position[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        plan.varyings["v_uv"][0, 0] = 2.0
    window, __ = plan.window((0, 0, 8, 8))
    with pytest.raises(ValueError, match="read-only"):
        window[0, 0] = 2.0
    # The next draw is undisturbed by the attempted writes.
    first, __ = rig.draw()
    _forget_plans(rig.ctx)
    again, __ = rig.draw()
    assert np.array_equal(first, again)


def test_large_vertex_kernel_launch_is_never_planned():
    """A point-per-element vertex kernel references one vertex per
    element: above the plan's vertex bound it keeps no vertex plan, and
    its point batch keeps no interpolated varyings."""
    device = GpgpuDevice(execution_backend="jit")
    n = 4 * pipeline._VERTEX_PLAN_MAX_VERTICES
    a = np.arange(n, dtype=np.int32)
    kernel = device.vertex_kernel("v_big", [("a", "int32")], "int32",
                                  "result = a + 1.0;")
    out = device.empty(n, "int32")
    batches = []
    original = raster.interpolate_varying

    def spy(batch, per_vertex, dtype=None):
        batches.append(batch)
        return original(batch, per_vertex, dtype)

    pipeline.raster.interpolate_varying = spy
    try:
        for __ in range(2):
            kernel(out, {"a": a})
            assert np.array_equal(out.to_host(), a + 1)
    finally:
        pipeline.raster.interpolate_varying = original
    assert not device.ctx._programs[kernel.program].vertex_plans
    assert batches and all(batch.varyings is None for batch in batches)


def test_every_varying_of_a_program_within_the_limit_stays_memoised():
    """A program with GL_MAX_VARYING_VECTORS varyings relaunched on one
    memoised batch gets every interpolated varying back from the memo."""
    count = raster._VARYING_MEMO_CAPACITY
    vs = ["attribute vec2 a_position;"]
    vs += [f"varying float v_{i};" for i in range(count)]
    vs.append("void main() {")
    vs += [f"    v_{i} = a_position.x * {i + 1}.0;" for i in range(count)]
    vs += ["    gl_Position = vec4(a_position, 0.0, 1.0);", "}"]
    fs = ["precision highp float;"]
    fs += [f"varying float v_{i};" for i in range(count)]
    fs.append("void main() { gl_FragColor = vec4(abs("
              + " + ".join(f"v_{i}" for i in range(count))
              + ") / 64.0); }")
    ctx = GLES2Context(width=8, height=8)
    prog = ctx.glCreateProgram()
    for kind, lines in ((gl.GL_VERTEX_SHADER, vs),
                        (gl.GL_FRAGMENT_SHADER, fs)):
        shader = ctx.glCreateShader(kind)
        ctx.glShaderSource(shader, "\n".join(lines))
        ctx.glCompileShader(shader)
        ctx.glAttachShader(prog, shader)
    ctx.glLinkProgram(prog)
    ctx.glUseProgram(prog)
    loc = ctx.glGetAttribLocation(prog, "a_position")
    ctx.glEnableVertexAttribArray(loc)
    ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, QUAD.copy())
    ctx.glViewport(0, 0, 8, 8)
    raster.raster_memo_clear()
    results = []
    original = raster.interpolate_varying

    def spy(batch, per_vertex, dtype=None):
        results.append(original(batch, per_vertex, dtype))
        return results[-1]

    pipeline.raster.interpolate_varying = spy
    try:
        for __ in range(3):
            ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
    finally:
        pipeline.raster.interpolate_varying = original
    assert len(results) == 3 * count
    first, second, third = (results[i * count:(i + 1) * count]
                            for i in range(3))
    assert all(a is b is c for a, b, c in zip(first, second, third))
