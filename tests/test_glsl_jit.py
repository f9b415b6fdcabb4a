"""The NumPy-source JIT backend (``repro.glsl.jit``).

Three properties pin the backend down:

1. **Bit-identical results.**  Every corpus shader rendered with
   ``execution_backend="jit"`` must produce the same RGBA8 framebuffer
   as the IR backend — the JIT is an optimisation, never an
   observable behaviour change.  The four-way differential oracle
   checks the same property pre-quantisation.
2. **Caching and fallback accounting.**  Kernel memoisation works the
   same on a JIT device; programs outside the JIT subset fall back to
   the IR executor at whole-draw granularity and each such draw bumps
   the ``jit.fallbacks`` counter.
3. **Static-counter parity.**  The generated function tallies no ops
   dynamically, so JIT draws report the static IR-cost projection.  On
   the straight-line E1 kernels that projection is exact: the JIT
   draw's per-category tally must equal the IR executor's dynamic one.
"""

import numpy as np
import pytest

from repro.core.api.device import GpgpuDevice
from repro.gles2 import GLES2Context
from repro.kernels.elementwise import make_sum_kernel
from repro.kernels.sgemm import make_sgemm_kernel
from repro.testing.corpus import build_entries
from repro.testing.oracle import draw_for_capture, run_differential

ENTRIES = {entry.name: entry for entry in build_entries()}
BACKENDS = ("ir", "jit")


def _render(entry, backend):
    framebuffer, __ = draw_for_capture(
        entry.fragment,
        size=entry.size,
        quantization=entry.quantization,
        uniforms=entry.uniforms,
        textures=entry.textures,
        vertex_source=entry.vertex,
        execution_backend=backend,
    )
    return framebuffer


# ----------------------------------------------------------------------
# 1. Bit-identical rendering across both backends.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_corpus_framebuffers_identical_across_backends(name):
    entry = ENTRIES[name]
    assert np.array_equal(_render(entry, "jit"), _render(entry, "ir")), (
        f"{name}: backend 'jit' framebuffer differs from 'ir'"
    )


def test_four_way_oracle_on_divergent_shader():
    # Per-fragment control flow forces the JIT's mask-blend lowering;
    # the four-way oracle must still agree bit-for-bit.
    source = """
    precision mediump float;
    varying vec2 v_uv;
    void main() {
        float acc = 0.0;
        for (int i = 0; i < 4; i++) {
            if (v_uv.x > 0.5) { acc += v_uv.y * 0.25; }
            else { acc -= 0.125; }
        }
        if (acc < -0.4) { discard; }
        gl_FragColor = vec4(acc, v_uv.x, v_uv.y, 1.0);
    }
    """
    result = run_differential(source)
    assert result.ok, result.describe()


# ----------------------------------------------------------------------
# 2. Caching and fallback accounting.
# ----------------------------------------------------------------------
def test_kernel_requests_memoised_on_jit_device():
    dev = GpgpuDevice(float_model="videocore", execution_backend="jit")
    first = make_sum_kernel(dev, "int32")
    assert dev.kernel_cache_hits == 0
    assert make_sum_kernel(dev, "int32") is first
    assert dev.kernel_cache_hits == 1
    assert make_sum_kernel(dev, "float32") is not first
    assert dev.kernel_cache_hits == 1


def test_jit_relaunch_compiles_nothing():
    dev = GpgpuDevice(float_model="videocore", execution_backend="jit")
    rng = np.random.default_rng(3)
    a = dev.array(rng.integers(-999, 999, size=32).astype(np.int64), "int32")
    b = dev.array(rng.integers(-999, 999, size=32).astype(np.int64), "int32")
    out = dev.empty(32, "int32")
    kernel = make_sum_kernel(dev, "int32")
    kernel(out, {"a": a, "b": b})
    compiles = dev.ctx.stats.shader_compiles
    links = dev.ctx.stats.program_links
    for __ in range(3):
        kernel(out, {"a": a, "b": b})
    assert dev.ctx.stats.shader_compiles == compiles
    assert dev.ctx.stats.program_links == links
    assert np.array_equal(out.to_host(), a.to_host() + b.to_host())


#: A return inside a loop is a return under divergence: outside the
#: JIT subset.
_LOOP_RETURN_SHADER = """
precision mediump float;
varying vec2 v_uv;
float first_step(float x) {
    for (int i = 0; i < 4; i++) {
        if (x * float(i) > 1.0) {
            return float(i) * 0.25;
        }
    }
    return 1.0;
}
void main() {
    gl_FragColor = vec4(first_step(v_uv.x * 2.0), v_uv.y, 0.0, 1.0);
}
"""


def test_unsupported_program_falls_back_and_counts(isolated_counters):
    # Every draw of a shader outside the JIT subset runs on the
    # IRExecutor and bumps the counter.
    reference, __ = draw_for_capture(_LOOP_RETURN_SHADER,
                                     execution_backend="ir")
    assert isolated_counters.values["jit.fallbacks"] == 0
    framebuffer, __ = draw_for_capture(_LOOP_RETURN_SHADER,
                                       execution_backend="jit")
    assert isolated_counters.values["jit.fallbacks"] > 0
    assert np.array_equal(framebuffer, reference)


def test_library_default_backend_is_the_jit():
    import inspect

    from repro.gles2.pipeline import DEFAULT_EXECUTION_BACKEND, execute_draw

    assert DEFAULT_EXECUTION_BACKEND == "jit"
    assert GpgpuDevice().ctx.execution_backend == "jit"
    assert GLES2Context().execution_backend == "jit"
    default = inspect.signature(execute_draw).parameters["execution_backend"]
    assert default.default == "jit"


@pytest.mark.parametrize("make", [GpgpuDevice, GLES2Context],
                         ids=["device", "context"])
def test_unknown_backend_is_rejected_naming_the_valid_ones(make):
    # The retired tree walker's name is no longer a backend.
    with pytest.raises(ValueError, match=r"'ast'.*'ir'.*'jit'"):
        make(execution_backend="ast")


def test_every_float16_pattern_round_trips_identically_on_all_backends(
    isolated_counters,
):
    # gpgpu_pack_half has a single exit, so fp16 kernels stay on the
    # JIT; all 65536 bit patterns must come back bit-identical on every
    # backend: unchanged, except -0 -> +0 and every NaN -> quiet NaN.
    bits = np.arange(65536, dtype=np.uint16)
    results = {}
    for backend in BACKENDS:
        dev = GpgpuDevice(float_model="ieee32", execution_backend=backend)
        kernel = dev.kernel("fp16_identity", [("a", "float16")], "float16",
                            "result = a;")
        out = dev.empty(bits.size, "float16")
        kernel(out, {"a": dev.array(bits.view(np.float16))})
        results[backend] = out.to_host().view(np.uint16)
    assert isolated_counters.values["jit.fallbacks"] == 0
    assert np.array_equal(results["jit"], results["ir"])
    expected = bits.copy()
    expected[np.isnan(bits.view(np.float16))] = 0x7E00
    expected[bits == 0x8000] = 0
    assert np.array_equal(results["jit"], expected)


def test_supported_program_does_not_count_fallbacks(isolated_counters):
    entry = ENTRIES["saxpy"]
    _render(entry, "jit")
    assert isolated_counters.values["jit.fallbacks"] == 0


#: An if/else whose else arm alone stores a vec3: select conversion
#: reads the variable's pre-branch value for the then operand.
_ELSE_ONLY_STORE_SHADER = """
precision mediump float;
varying vec2 v_uv;
void main() {
    vec3 c = vec3(v_uv, 0.5);
    float a;
    if (v_uv.x > 0.5) {
        a = 1.0;
    } else {
        c = vec3(v_uv.y, 0.25, v_uv.x);
        a = 0.5;
    }
    gl_FragColor = vec4(c, a);
}
"""


def test_select_of_an_unstored_arm_runs_on_the_jit(isolated_counters):
    reference, __ = draw_for_capture(_ELSE_ONLY_STORE_SHADER,
                                     execution_backend="ir")
    framebuffer, __ = draw_for_capture(_ELSE_ONLY_STORE_SHADER,
                                       execution_backend="jit")
    assert isolated_counters.values["jit.fallbacks"] == 0
    assert np.array_equal(framebuffer, reference)


# ----------------------------------------------------------------------
# 3. Static-counter parity: JIT draws report the static projection,
#    which on E1 kernels equals the IR executor's dynamic tally.
# ----------------------------------------------------------------------
def _launch(backend, which, fmt):
    dev = GpgpuDevice(float_model="videocore", execution_backend=backend)
    rng = np.random.default_rng(11)
    if which == "sum":
        n = 16
        if fmt == "int32":
            hosts = [rng.integers(-1000, 1000, size=n).astype(np.int64)
                     for __ in range(2)]
        else:
            hosts = [rng.uniform(-1, 1, size=n).astype(np.float32)
                     for __ in range(2)]
        a, b = (dev.array(h, fmt) for h in hosts)
        out = dev.empty(n, fmt)
        make_sum_kernel(dev, fmt)(out, {"a": a, "b": b})
    else:
        n = 4
        if fmt == "int32":
            hosts = [rng.integers(-9, 9, size=n * n).astype(np.int64)
                     for __ in range(3)]
        else:
            hosts = [rng.uniform(-1, 1, size=n * n).astype(np.float32)
                     for __ in range(3)]
        a, b, c0 = (dev.array(h, fmt) for h in hosts)
        out = dev.empty(n * n, fmt)
        make_sgemm_kernel(dev, fmt, n)(
            out, {"a": a, "b": b, "c0": c0},
            {"u_n": float(n), "u_alpha": 1.0, "u_beta": 1.0},
        )
    return dev.ctx.stats.draws[-1]


@pytest.mark.parametrize("which,fmt", [
    ("sum", "int32"), ("sum", "float32"),
    ("sgemm", "int32"), ("sgemm", "float32"),
])
def test_jit_counters_match_ir_dynamic_tally(which, fmt):
    ir_draw = _launch("ir", which, fmt)
    jit_draw = _launch("jit", which, fmt)
    assert jit_draw.fragment_invocations == ir_draw.fragment_invocations
    assert (jit_draw.fragment_ops.snapshot()
            == ir_draw.fragment_ops.snapshot())
    assert (jit_draw.vertex_ops.snapshot()
            == ir_draw.vertex_ops.snapshot())


#: Report sections whose kernels branch per fragment (E7's fp16 packing,
#: E8's Rodinia workloads).  Their op counts feed no modeled number;
#: the JIT charges the static all-lanes projection there, an upper
#: bound on the IR executor's masked tally.
_DIVERGENT_SECTIONS = ("_run_half_float_comparison", "_run_rodinia")


def test_report_draws_count_like_the_ir_executor(monkeypatch,
                                                isolated_counters):
    # Every draw EXPERIMENTS.md makes (on the default JIT backend) is
    # replayed on the IR executor first.  Framebuffers must match; op
    # counts must match exactly wherever they feed a modeled number.
    import repro.gles2.context as context_module
    from repro.experiments import report

    real_draw = context_module.execute_draw
    section = [None]
    exact_draws = []
    bounded_draws = []

    def in_section(name):
        run = getattr(report, name)

        def wrapper(*args, **kwargs):
            section[0] = name
            try:
                return run(*args, **kwargs)
            finally:
                section[0] = None
        return wrapper

    def draw_twice(*args, **kwargs):
        assert kwargs["execution_backend"] == "jit"
        shadow_buffer = args[5].copy()
        ir_stats = real_draw(*args[:5], shadow_buffer, *args[6:],
                             **dict(kwargs, execution_backend="ir"))
        stats = real_draw(*args, **kwargs)
        assert np.array_equal(args[5], shadow_buffer)
        pairs = [
            (stats.fragment_ops.snapshot(), ir_stats.fragment_ops.snapshot()),
            (stats.vertex_ops.snapshot(), ir_stats.vertex_ops.snapshot()),
        ]
        if section[0] in _DIVERGENT_SECTIONS:
            for jit_ops, ir_ops in pairs:
                assert set(jit_ops) >= set(ir_ops)
                assert all(jit_ops[c] >= ir_ops[c] for c in ir_ops)
            bounded_draws.append(stats)
        else:
            for jit_ops, ir_ops in pairs:
                assert jit_ops == ir_ops
            exact_draws.append(stats)
        return stats

    for name in _DIVERGENT_SECTIONS:
        monkeypatch.setattr(report, name, in_section(name))
    monkeypatch.setattr(context_module, "execute_draw", draw_twice)
    report.build_report()
    assert exact_draws and bounded_draws
    assert isolated_counters.values["jit.fallbacks"] == 0
