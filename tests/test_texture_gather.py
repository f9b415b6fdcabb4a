"""Fused texel fetch: IR annotation, JIT emission, counters.

The JIT replaces each qualifying kernel-input read — ``texture2D`` of
a complete NEAREST / CLAMP_TO_EDGE sampler at a coordinate produced by
the kernel codegen's ``gpgpu_index_to_coord`` helper, followed by the
byte decode ``floor(texel * 255.0 + 0.5)`` — with one call that takes
the stored bytes straight out of texel storage.  The coordinates, the
sample and the decode run only when that call's runtime check misses.
These tests pin the layers of that contract:

* the IR annotation pass proves the coordinate chain and the decode
  on every kernel family and format, and the JIT fuses every site (so
  a rephrasing of the codegen templates that silently loses the fast
  path fails here, per the contract note in
  ``repro.core.codegen.glsl_functions``);
* the decode identity the fusion relies on holds for every float model,
  and so does the flat-index identity that lets a read take the
  element index instead of its ``mod``/``floor`` texel coordinates;
* fused, gather-forced-off and IR-executor runs are bit-identical,
  including masked sites, worker pools, every fallback cause and
  texel storage rewritten in place between launches;
* the ``texture_gathers`` / ``gather_fallbacks`` DrawStats counters
  count each site once per draw — a fallback when a runtime
  disqualification (wrap/filter/size mismatch) routed any of its
  executions through the full sampling path — and read the same
  whether a draw shades in-process or on the worker pool.
"""

from __future__ import annotations

import dataclasses
import re
import warnings

import numpy as np
import pytest

from repro import GpgpuDevice
from repro.core.codegen.templates import generate_kernel_source
from repro.core.numerics.formats import get_format
from repro.gles2 import enums as gl
from repro.gles2 import parallel
from repro.gles2.precision import VideoCoreModel, make_model
from repro.gles2.texture import Texture
from repro.glsl import jit
from repro.glsl.interp import compile_shader
from repro.glsl.ir import IRExecutor, compile_ir, static_cost
from repro.glsl.ir.gather import annotate_gathers, texture_instrs
from repro.glsl.jit import JitExecutor
from repro.glsl.jit import codegen as jit_codegen
from repro.glsl.jit.codegen import (
    FLAT_INDEX_LIMIT,
    CodeGen,
    decode_exact,
    flat_index_exact,
    make_helpers,
)
from repro.kernels import (
    argmin_via_encoding,
    bitonic_sort,
    convolve1d,
    exclusive_scan,
    inclusive_scan,
    make_saxpy_kernel,
    make_scale_kernel,
    make_sgemm_kernel,
    make_sum_kernel,
    reduce_min,
    reduce_sum,
    transpose,
)
from repro.perf import counters
from repro.perf.counters import DrawStats
from repro.testing import faults
from repro.testing.oracle import draw_for_capture
from repro.workloads.hotspot import hotspot_gpu
from repro.workloads.kmeans import kmeans_assign_gpu
from repro.workloads.nn import nearest_neighbor_gpu
from repro.workloads.pathfinder import pathfinder_gpu


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    parallel.shutdown_pool()


def _count_texture_sites(block) -> int:
    """All texture instructions in a structured block, annotated or not."""
    return sum(1 for __ in texture_instrs(block))


def fetch_sites(block):
    """The texture instructions carrying a fused-read annotation."""
    return [tex for tex in texture_instrs(block) if tex.fetch is not None]


def _gather_coverage(fragment_source: str):
    """(annotated sites, total texture sites) of a fragment shader."""
    checked = compile_shader(fragment_source, "fragment")
    program = compile_ir(checked)
    cost = static_cost(program)
    return cost.gather_sites, _count_texture_sites(program.body)


# ----------------------------------------------------------------------
# IR annotation: every kernel fetch qualifies, nothing else does.
# ----------------------------------------------------------------------
class TestAnnotation:
    def test_all_e1_kernels_fully_annotated(self):
        """Every texture site of every E1 kernel carries the gather
        annotation — the codegen templates' index-helper contract."""
        device = GpgpuDevice(float_model="exact")
        kernels = [
            make_sum_kernel(device, "int32"),
            make_sum_kernel(device, "float32"),
            make_saxpy_kernel(device, "float32"),
            make_scale_kernel(device, "float32"),
            make_sgemm_kernel(device, "float32", 8),
        ]
        for kernel in kernels:
            annotated, total = _gather_coverage(kernel.source.fragment)
            assert total > 0, kernel.name
            assert annotated == total, (
                f"{kernel.name}: {annotated}/{total} texture sites "
                f"annotated — the gpgpu_index_to_coord chain no longer "
                f"matches repro.glsl.ir.gather"
            )

    def test_generated_kernel_source_annotates(self):
        """The raw codegen output (no device machinery) qualifies."""
        source = generate_kernel_source(
            "probe", [("x", "float32")], "float32", "result = x;"
        )
        annotated, total = _gather_coverage(source.fragment)
        assert (annotated, total) == (1, 1)

    def test_non_kernel_coords_not_annotated(self):
        """A varying-coordinate sample has no in-range proof."""
        src = (
            "precision highp float;\n"
            "varying vec2 v_uv;\n"
            "uniform sampler2D u_t;\n"
            "void main() { gl_FragColor = texture2D(u_t, v_uv); }\n"
        )
        annotated, total = _gather_coverage(src)
        assert (annotated, total) == (0, 1)


# ----------------------------------------------------------------------
# Bit-identity: gather on == gather off == IR executor.
# ----------------------------------------------------------------------
def _run_sum(backend: str, gather: bool = True):
    device = GpgpuDevice(float_model="videocore", execution_backend=backend)
    kernel = make_sum_kernel(device, "int32")
    a = np.arange(64, dtype=np.int32) - 7
    b = (np.arange(64, dtype=np.int32) * 3) % 41
    out = device.empty(64, "int32")
    with faults.suppress(), jit.texture_gather(gather):
        kernel(out, {"a": device.array(a), "b": device.array(b)})
    return out.to_host(), device.ctx.stats.draws[-1]


def _run_sgemm(backend: str, gather: bool = True, shade_workers=None):
    device = GpgpuDevice(
        float_model="videocore", execution_backend=backend,
        shade_workers=shade_workers,
    )
    n = 8
    rng = np.random.default_rng(42)
    a = rng.uniform(-1, 1, n * n).astype(np.float32)
    b = rng.uniform(-1, 1, n * n).astype(np.float32)
    c0 = rng.uniform(-1, 1, n * n).astype(np.float32)
    kernel = make_sgemm_kernel(device, "float32", n)
    out = device.empty(n * n, "float32")
    inputs = {
        "a": device.array(a), "b": device.array(b), "c0": device.array(c0)
    }
    uniforms = {"u_n": float(n), "u_alpha": 1.0, "u_beta": 1.0}
    with faults.suppress(), jit.texture_gather(gather):
        kernel(out, inputs, uniforms)
    return out.to_host(), device.ctx.stats.draws[-1]


class TestBitIdentity:
    def test_sum_gather_on_off_ir_identical(self):
        on, stats_on = _run_sum("jit", gather=True)
        off, stats_off = _run_sum("jit", gather=False)
        ir, __ = _run_sum("ir")
        assert np.array_equal(on, off)
        assert np.array_equal(on, ir)
        assert stats_on.texture_gathers > 0
        assert stats_on.gather_fallbacks == 0
        assert stats_off.texture_gathers == 0
        assert stats_off.gather_fallbacks == 0

    def test_sgemm_gather_on_off_ir_identical(self):
        on, stats_on = _run_sgemm("jit", gather=True)
        off, stats_off = _run_sgemm("jit", gather=False)
        ir, __ = _run_sgemm("ir")
        assert np.array_equal(on, off)
        assert np.array_equal(on, ir)
        # 3 gather sites: two in-loop fetches plus the c0 tail fetch,
        # each counted once per draw however often the loop runs it.
        assert stats_on.texture_gathers == 3
        assert stats_on.gather_fallbacks == 0
        assert stats_off.texture_gathers == 0


# ----------------------------------------------------------------------
# Runtime disqualification: annotated sites whose sampler fails the
# gather_info check fall back to the full sampling path, bit-identical,
# and are accounted as gather_fallbacks.
# ----------------------------------------------------------------------
class TestFallbackAccounting:
    def _capture_identity(self):
        source = generate_kernel_source(
            "ident", [("x", "float32")], "float32", "result = x;"
        )
        rng = np.random.default_rng(7)
        image = rng.integers(0, 256, (4, 4, 4), dtype=np.uint8)
        __, capture = draw_for_capture(
            source.fragment,
            size=4,
            uniforms={
                "u_out_size": (4.0, 4.0),
                "u_size_x": (4.0, 4.0),
            },
            textures={"u_tex_x": image},
            vertex_source=source.vertex,
        )
        return capture

    def _replay(self, capture):
        executor = JitExecutor(capture.fragment_shader)
        presets = {
            name: value.clone() for name, value in capture.fs_presets.items()
        }
        n = capture.px.shape[0]
        before = counters.snapshot(counters.DRAW)
        with faults.suppress():
            env = executor.execute(n, presets)
        color = env["gl_FragColor"].data.copy()
        return color, DrawStats(counts=counters.delta(before))

    def test_wrap_disqualification_counts_fallback(self):
        capture = self._capture_identity()
        baseline, ex = self._replay(capture)
        assert ex.texture_gathers > 0
        assert ex.gather_fallbacks == 0

        # Flip the bound texture to REPEAT wrap: the annotation is
        # static so the site still attempts a gather, but gather_info
        # rejects it at run time.  In-range coordinates make REPEAT a
        # no-op, so the output must not change.
        sampler = capture.fs_presets["u_tex_x"].sampler
        original = sampler.params[gl.GL_TEXTURE_WRAP_S]
        sampler.params[gl.GL_TEXTURE_WRAP_S] = gl.GL_REPEAT
        try:
            fallback, ex2 = self._replay(capture)
        finally:
            sampler.params[gl.GL_TEXTURE_WRAP_S] = original
        assert ex2.texture_gathers == 0
        assert ex2.gather_fallbacks > 0
        assert np.array_equal(baseline, fallback)

    def test_linear_mag_disqualification_counts_fallback(self):
        capture = self._capture_identity()
        baseline, ex = self._replay(capture)
        assert ex.gather_fallbacks == 0

        sampler = capture.fs_presets["u_tex_x"].sampler
        original = sampler.params[gl.GL_TEXTURE_MAG_FILTER]
        sampler.params[gl.GL_TEXTURE_MAG_FILTER] = gl.GL_LINEAR
        try:
            fallback, ex2 = self._replay(capture)
        finally:
            sampler.params[gl.GL_TEXTURE_MAG_FILTER] = original
        assert ex2.texture_gathers == 0
        assert ex2.gather_fallbacks > 0
        # Texel-centre coordinates make the bilinear blend weights
        # degenerate (fx == fy == 0), so LINEAR agrees with NEAREST
        # here and the outputs still match.
        assert np.array_equal(baseline, fallback)


# ----------------------------------------------------------------------
# Multiprocess shading: bit-identity plus counter plumbing (workers
# ship their site outcomes back through gles2.parallel).
# ----------------------------------------------------------------------
def _draw_record(draw):
    """A draw's DrawStats, with its ``draw.*`` counts (``pool.*``
    counts depend on where the draw ran)."""
    return (
        draw.vertex_invocations,
        draw.fragment_invocations,
        draw.discarded_fragments,
        draw.framebuffer_writes,
        draw.vertex_ops.snapshot(),
        draw.fragment_ops.snapshot(),
        {name: count for name, count in draw.counts.items()
         if name.startswith("draw.")},
    )


def _skip_without_pool(pool_draws_before):
    if counters.values["pool.draws"] == pool_draws_before:
        pytest.skip("process pool unavailable on this platform")


class TestTiledAndWorkers:
    def test_sgemm_parity_across_shading_configs(self, pool_floor):
        mono, stats_mono = _run_sgemm("jit", shade_workers=0)
        before = counters.values["pool.draws"]
        workers, stats_workers = _run_sgemm("jit", shade_workers=2)
        _skip_without_pool(before)
        assert mono.tobytes() == workers.tobytes()
        # Each site counts once per draw, wherever the draw shaded.
        assert stats_mono.texture_gathers == 3
        assert stats_mono.gather_fallbacks == 0
        assert _draw_record(stats_mono) == _draw_record(stats_workers)

    def test_every_family_matches_across_worker_counts(self, pool_floor):
        """Every kernel family: the same bytes, DrawStats and draw.*
        counts, launch for launch, with no workers and with two."""
        runs = {}
        before = counters.values["pool.draws"]
        for workers in (0, 2):
            device = GpgpuDevice(float_model="videocore",
                                 shade_workers=workers)
            graph_device = GpgpuDevice(float_model="videocore",
                                       graph_mode=True,
                                       shade_workers=workers)
            with faults.suppress():
                outputs = _drive_every_family(device, graph_device)
            draws = device.ctx.stats.draws + graph_device.ctx.stats.draws
            runs[workers] = (
                [np.asarray(out).tobytes() for out in outputs],
                [_draw_record(draw) for draw in draws],
            )
        _skip_without_pool(before)
        (outputs_0, draws_0), (outputs_2, draws_2) = runs[0], runs[2]
        assert outputs_0 == outputs_2
        assert len(draws_0) == len(draws_2) > 0
        for index, (left, right) in enumerate(zip(draws_0, draws_2)):
            assert left == right, f"draw {index}"
        assert sum(record[-1].get("draw.texture_gathers", 0)
                   for record in draws_0) > 0


# ----------------------------------------------------------------------
# The knob.
# ----------------------------------------------------------------------
class TestKnob:
    def test_context_manager_restores_flag(self):
        assert jit.gather_enabled()
        with jit.texture_gather(False):
            assert not jit.gather_enabled()
            with jit.texture_gather(True):
                assert jit.gather_enabled()
            assert not jit.gather_enabled()
        assert jit.gather_enabled()

    def test_set_returns_previous(self):
        previous = jit.set_gather_enabled(False)
        try:
            assert previous is True
            assert jit.set_gather_enabled(True) is False
        finally:
            jit.set_gather_enabled(True)


# ----------------------------------------------------------------------
# Fused reads: every site of every kernel family and format fuses.
# ----------------------------------------------------------------------
FORMATS = ("int32", "uint32", "float32", "int16", "uint16", "float16",
           "uint8", "int8")


def _drive_every_family(device, graph_device):
    """Launch every kernel family the library builds once on a tiny
    input (``graph_device``, in graph mode, runs a fused scale chain);
    returns the host results."""
    rng = np.random.default_rng(0)
    outputs = []
    for fmt in FORMATS:
        kernel = make_sum_kernel(device, fmt)
        host = (np.arange(16) % 7).astype(kernel.output_format.dtype)
        out = device.empty(16, fmt)
        kernel(out, {"a": device.array(host), "b": device.array(host)})
        outputs.append(out.to_host())
    values = np.arange(16, dtype=np.float32)
    array = device.array(values)
    out = device.empty(16, "float32")
    make_saxpy_kernel(device)(out, {"x": array, "y": array},
                              {"u_alpha": 1.5})
    outputs.append(out.to_host())
    make_scale_kernel(device)(out, {"a": array}, {"u_factor": -2.0})
    outputs.append(out.to_host())
    make_sgemm_kernel(device, "float32", 4)(
        out, {"a": array, "b": array, "c0": array},
        {"u_n": 4.0, "u_alpha": 1.0, "u_beta": 1.0},
    )
    outputs.append(out.to_host())
    outputs += [
        reduce_sum(device, array),
        reduce_min(device, array),
        inclusive_scan(device, array),
        exclusive_scan(device, array),
        bitonic_sort(device, array),
        transpose(device, array, 4, 4),
        convolve1d(device, array, np.ones(3, dtype=np.float32)),
        argmin_via_encoding(device, values),
        hotspot_gpu(device, rng.random((4, 4)), rng.random((4, 4)), 1),
        pathfinder_gpu(device, rng.integers(0, 9, (3, 4))),
        kmeans_assign_gpu(device, rng.random((8, 2)), rng.random((2, 2)),
                          shift=0.5, scale=2.0),
        nearest_neighbor_gpu(device, rng.random(8), rng.random(8),
                             (0.5, 0.5)),
    ]
    scale = make_scale_kernel(graph_device)
    source = graph_device.array(values)
    with graph_device.record() as graph:
        mid = graph.scratch(16, "float32")
        graph.launch(scale, mid, {"a": source}, {"u_factor": 2.0})
        out = graph.scratch(16, "float32")
        graph.launch(scale, out, {"a": mid}, {"u_factor": 3.0})
        graph.keep(out)
    outputs.append(out)
    return [out.to_host() if hasattr(out, "to_host") else out
            for out in outputs]


def _family_sources(monkeypatch):
    """Fragment source of every kernel the library builds, by kernel
    name: each driver runs once on a tiny input."""
    sources = {}
    real = GpgpuDevice.kernel

    def spy(self, name, *args, **kwargs):
        kernel = real(self, name, *args, **kwargs)
        sources.setdefault(name, kernel.source.fragment)
        return kernel

    monkeypatch.setattr(GpgpuDevice, "kernel", spy)
    _drive_every_family(
        GpgpuDevice(float_model="videocore"),
        GpgpuDevice(float_model="videocore", graph_mode=True),
    )
    return sources


#: Fused reads under a mask (in varying ?: arms), per kernel name: their
#: decode tails run in place instead of in a decoder.
MASKED_READS = {"reduce_step_float32": 1, "reduce_min_float32": 1,
                "scan_step_float32": 1, "scan_shift_float32": 1,
                "hotspot_step": 4, "pathfinder_row": 2}


def _masked_reads(name):
    """MASKED_READS of a kernel, or the sum over a fused chain's
    stages (``fuse[a+b]``)."""
    if name.startswith("fuse["):
        return sum(map(_masked_reads, name[5:-1].split("+")))
    return MASKED_READS.get(name, 0)


class TestFusedCoverage:
    def test_every_family_and_format_fully_fused(self, monkeypatch):
        sources = _family_sources(monkeypatch)
        for fmt in FORMATS:
            assert f"sum_{fmt}" in sources
        assert any(name.startswith("fuse[") for name in sources)
        fmodel = make_model("videocore")
        for name, fragment in sources.items():
            program = compile_ir(compile_shader(fragment, "fragment"), fmodel)
            total = _count_texture_sites(program.body)
            fused = len(fetch_sites(program.body))
            gen = CodeGen(program, fmodel, {"v_coord"})
            text = gen.generate()
            assert total > 0, name
            assert static_cost(program).gather_sites == total, name
            assert fused == len(gen.fused) == total, name
            # Every sample runs inside a fused site's fallback.
            assert text.count("_fetch(") == text.count("_tex(") == total, name
            # Every format but uint8 (one byte, nothing to unpack)
            # matches a decode tail at every site, and every tail of a
            # site under the full mask runs in a decoder.
            tails = sum(tex.fetch.tail is not None
                        for tex in fetch_sites(program.body))
            assert tails == (0 if name == "sum_uint8" else total), name
            assert len(re.findall(r"_fetch\([^)]*, _d\d+\)", text)) == \
                tails - _masked_reads(name), name

    def test_both_decode_forms_match(self):
        """One-byte formats decode ``texel.r`` (channel 0), wider
        formats the whole texel."""
        fmodel = make_model("videocore")
        for fmt, channel in (("uint8", 0), ("int8", 0), ("int32", None),
                             ("float16", None)):
            source = generate_kernel_source(
                "probe", [("x", fmt)], fmt, "result = x;"
            )
            program = compile_ir(
                compile_shader(source.fragment, "fragment"), fmodel
            )
            (tex,) = fetch_sites(program.body)
            assert tex.fetch.channel == channel, fmt
            assert tex in tex.fetch.fallback
            assert tex not in tex.fetch.private

    def test_coordinate_chain_read_elsewhere_is_not_deferred(self):
        """A coordinate the shader also reads outside the fetch stays
        in place; the fetch still fuses."""
        source = generate_kernel_source(
            "probe", [("x", "float32")], "float32",
            "vec2 c = gpgpu_index_to_coord(gpgpu_index, u_size_x);\n"
            "result = fetch_x(gpgpu_index) + c.x;",
            mode="gather",
        )
        fmodel = make_model("videocore")
        program = compile_ir(compile_shader(source.fragment, "fragment"),
                             fmodel)
        (tex,) = fetch_sites(program.body)
        # CSE shares the coordinate with ``c``: only the sample and
        # the decode (plus constants) remain to defer.
        assert tex.fetch.fallback[0] is tex
        assert all(ins.op in ("const", "arith", "builtin")
                   for ins in tex.fetch.private)
        assert tex.fetch.private[-1].imm[0] == "floor/0"

    LOOP_FETCH = """
precision highp float;
uniform sampler2D u_tex_x;
uniform vec2 u_size_x;
varying vec2 v_coord;
void main() {
    OUTER
    float acc = 0.0;
    for (int i = 0; i < 4; i++) {
        float x = mod(float(i) + v_coord.x, u_size_x.x);
        float y = floor((float(i) + v_coord.x) / u_size_x.x);
        INNER
        coord = (vec2(x, y) + 0.5) / u_size_x;
        acc += floor(texture2D(u_tex_x, coord) * 255.0 + vec4(0.5)).r;
    }
    gl_FragColor = vec4(acc / 1024.0);
}
"""

    @pytest.mark.parametrize("inner", [True, False])
    def test_loop_carried_coordinate_stays_in_place(self, inner):
        """The coordinate local's store reads the local's old value.
        Declared inside the loop, that value is fresh on every pass
        and the store moves into the fallback; declared outside, a
        pass whose read hit would leave it stale, so the coordinate
        chain stays in place and only the sample and decode defer."""
        decl = "vec2 coord;"
        source = self.LOOP_FETCH.replace(
            "OUTER", "" if inner else decl
        ).replace("INNER", decl if inner else "")
        program = compile_ir(compile_shader(source, "fragment"),
                             make_model("videocore"))
        (tex,) = fetch_sites(program.body)
        deferred = {ins.op for ins in tex.fetch.private}
        assert ("store" in deferred) == inner
        assert ("construct" in deferred) == inner


class TestDecodeIdentity:
    @pytest.mark.parametrize("model", ["exact", "ieee32", "videocore"])
    def test_every_byte_round_trips(self, model):
        """``floor(texel * 255.0 + 0.5)`` of the texel ``_tex`` hands
        out for byte c is c, for all 256 bytes, through the runtime's
        own sampler — the identity the fused read relies on."""
        fmodel = make_model(model)
        assert decode_exact(fmodel)
        helpers = make_helpers(fmodel)
        texture = Texture(1)
        stored = np.arange(256, dtype=np.uint8).reshape(16, 16)
        texture.set_image(16, 16, gl.GL_LUMINANCE, stored[:, :, None])
        texture.params[gl.GL_TEXTURE_MIN_FILTER] = gl.GL_NEAREST
        texture.params[gl.GL_TEXTURE_MAG_FILTER] = gl.GL_NEAREST
        texture.params[gl.GL_TEXTURE_WRAP_S] = gl.GL_CLAMP_TO_EDGE
        texture.params[gl.GL_TEXTURE_WRAP_T] = gl.GL_CLAMP_TO_EDGE
        ix, iy = np.meshgrid(np.arange(16), np.arange(16))
        coords = np.stack([(ix.ravel() + 0.5) / 16,
                           (iy.ravel() + 0.5) / 16], axis=1)
        texel = helpers["_tex"](texture, coords.astype(fmodel.dtype), 0)
        dt = fmodel.dtype
        decoded = np.floor(texel * np.asarray([255.0], dt)
                           + np.asarray([0.5], dt))
        assert decoded.dtype == dt
        assert np.array_equal(decoded[:, 0], stored.ravel())
        index = (iy.ravel() * 16 + ix.ravel()).astype(dt)
        size = np.array([[16.0, 16.0]], dtype=dt)
        with faults.suppress():
            fetched = helpers["_fetch"](0, texture, index, size, True)
        assert fetched.dtype == dt
        assert np.array_equal(fetched, decoded)

    def test_non_cast_sampling_is_not_fused(self):
        class RoundedSampling(VideoCoreModel):
            def quantize_is_cast(self, category="alu"):
                return category not in ("sfu", "tex")

        fmodel = RoundedSampling()
        assert not decode_exact(fmodel)
        source = generate_kernel_source(
            "probe", [("x", "int32")], "int32", "result = x;"
        )
        program = compile_ir(compile_shader(source.fragment, "fragment"),
                             fmodel)
        gen = CodeGen(program, fmodel, {"v_coord"})
        assert "_fetch(" not in gen.generate() and not gen.fused


# ----------------------------------------------------------------------
# Bit-identity: fused reads == IR executor, in masked contexts and on
# the worker pool.
# ----------------------------------------------------------------------
def _hotspot(backend, shade_workers=None, misses=False):
    """Three hotspot steps; ``misses`` forces every fused read to miss."""
    device = GpgpuDevice(float_model="videocore", execution_backend=backend,
                         shade_workers=shade_workers)
    rng = np.random.default_rng(11)
    before = counters.snapshot(counters.DRAW)
    scope = (faults.inject_faults(gather_miss=1.0) if misses
             else faults.suppress())
    with scope:
        temp = hotspot_gpu(device, rng.uniform(20, 90, (12, 12)),
                           rng.uniform(0, 1, (12, 12)), 3)
    return temp, DrawStats(counts=counters.delta(before))


class TestFusedBitIdentity:
    def test_masked_sites_match_ir(self):
        """hotspot's boundary fetches sit in varying ``?:`` arms: their
        masked coordinate stores move into the fallback."""
        fused, stats = _hotspot("jit")
        ir, __ = _hotspot("ir")
        assert np.array_equal(fused, ir)
        assert stats.texture_gathers > 0
        assert stats.gather_fallbacks == 0

    def test_shade_workers_match_ir(self, pool_floor):
        before = counters.values["pool.draws"]
        pooled, stats = _hotspot("jit", shade_workers=2)
        assert counters.values["pool.draws"] > before
        ir, __ = _hotspot("ir")
        assert np.array_equal(pooled, ir)
        assert stats.texture_gathers > 0
        assert stats.gather_fallbacks == 0
        workers, __ = _run_sgemm("jit", shade_workers=2)
        sgemm_ir, __ = _run_sgemm("ir")
        assert np.array_equal(workers, sgemm_ir)

    def test_injected_misses_run_the_fallback(self):
        """The fallback code of straight-line, loop (store-routed) and
        masked sites reproduces the IR executor.  ``gather_miss`` fires
        in this process only, so every draw here shades in-process,
        whatever the environment asks for."""
        in_process = {"shade_workers": 0}
        expected, __ = _run_sum("ir")
        device = GpgpuDevice(float_model="videocore", **in_process)
        kernel = make_sum_kernel(device, "int32")
        a = np.arange(64, dtype=np.int32) - 7
        b = (np.arange(64, dtype=np.int32) * 3) % 41
        out = device.empty(64, "int32")
        with faults.inject_faults(gather_miss=1.0) as plan:
            kernel(out, {"a": device.array(a), "b": device.array(b)})
        draw = device.ctx.stats.draws[-1]
        assert plan.fired["gather_miss"] == 2
        assert draw.texture_gathers == 0 and draw.gather_fallbacks == 2
        assert np.array_equal(out.to_host(), expected)

        sgemm_ir, __ = _run_sgemm("ir")
        with faults.inject_faults(gather_miss=1.0):
            device = GpgpuDevice(float_model="videocore", **in_process)
            n = 8
            rng = np.random.default_rng(42)
            inputs = {
                name: device.array(
                    rng.uniform(-1, 1, n * n).astype(np.float32))
                for name in ("a", "b", "c0")
            }
            kernel = make_sgemm_kernel(device, "float32", n)
            out = device.empty(n * n, "float32")
            kernel(out, inputs, {"u_n": float(n), "u_alpha": 1.0,
                                 "u_beta": 1.0})
        draw = device.ctx.stats.draws[-1]
        # Three sites, each a fallback once per draw.
        assert draw.texture_gathers == 0
        assert draw.gather_fallbacks == 3
        assert np.array_equal(out.to_host(), sgemm_ir)

        missed, stats = _hotspot("jit", misses=True, **in_process)
        ir, __ = _hotspot("ir")
        assert stats.texture_gathers == 0 and stats.gather_fallbacks > 0
        assert np.array_equal(missed, ir)


# ----------------------------------------------------------------------
# Fallback causes beyond the sampler state (REPEAT / LINEAR are pinned
# by TestFallbackAccounting): the fallback reproduces the IR executor.
# ----------------------------------------------------------------------
class TestFusedFallbacks:
    SIZE = 4

    def _capture(self, body="result = x;", mode="map", size_uniform=None):
        source = generate_kernel_source(
            "probe", [("x", "float32")], "float32", body, mode=mode
        )
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, (self.SIZE, self.SIZE, 4),
                             dtype=np.uint8)
        image[:, :, 3] = rng.integers(1, 255, (self.SIZE, self.SIZE))
        __, capture = draw_for_capture(
            source.fragment,
            size=self.SIZE,
            uniforms={
                "u_out_size": (4.0, 4.0),
                "u_size_x": size_uniform or (4.0, 4.0),
            },
            textures={"u_tex_x": image},
            vertex_source=source.vertex,
        )
        return capture

    def _run(self, capture, executor_cls):
        executor = executor_cls(capture.fragment_shader)
        presets = {
            name: value.clone() for name, value in capture.fs_presets.items()
        }
        before = counters.snapshot(counters.DRAW)
        with faults.suppress():
            env = executor.execute(capture.px.shape[0], presets)
        color = np.array(env["gl_FragColor"].data, copy=True)
        return color, DrawStats(counts=counters.delta(before))

    def _assert_fallback_matches_ir(self, capture):
        fused, stats = self._run(capture, JitExecutor)
        ir, __ = self._run(capture, IRExecutor)
        assert stats.texture_gathers == 0
        assert stats.gather_fallbacks > 0
        assert np.array_equal(np.broadcast_to(fused, ir.shape), ir)

    def test_size_mismatch(self):
        """A size uniform that disagrees with the bound texture."""
        capture = self._capture(size_uniform=(2.0, 8.0))
        self._assert_fallback_matches_ir(capture)

    def test_non_integral_index(self):
        self._assert_fallback_matches_ir(self._capture(
            body="result = fetch_x(gpgpu_index + 0.25);", mode="gather"
        ))

    @pytest.mark.parametrize("bad", [
        "5.5", "-1.0", "16.0", "(gpgpu_index - 5.0) / (gpgpu_index - 5.0)",
    ], ids=["fractional", "negative", "past-end", "nan"])
    # A NaN coordinate warns in the sampler's int cast, on both backends.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_one_bad_index_lane(self, bad):
        """One lane's flat index is non-integral, negative, W*H or NaN:
        the whole read misses once and the fallback matches the IR."""
        capture = self._capture(
            body=f"float i = gpgpu_index == 5.0 ? {bad} : gpgpu_index;\n"
                 "result = fetch_x(i);",
            mode="gather",
        )
        fused, stats = self._run(capture, JitExecutor)
        ir, __ = self._run(capture, IRExecutor)
        assert (stats.texture_gathers, stats.gather_fallbacks) == (0, 1)
        assert np.array_equal(np.broadcast_to(fused, ir.shape), ir)


# ----------------------------------------------------------------------
# Fresh reads: texel storage rewritten in place between launches.
# ----------------------------------------------------------------------
class TestFreshReads:
    def test_after_tex_sub_image(self):
        device = GpgpuDevice(float_model="videocore")
        kernel = make_scale_kernel(device, "int32")
        values = np.arange(16, dtype=np.int32) * 5 - 30
        source = device.array(values)
        out = device.empty(16, "int32")
        with faults.suppress():
            kernel(out, {"a": source}, {"u_factor": 2.0})
            assert np.array_equal(out.to_host(), values * 2)
            patch = np.array([1000, -2000, 3000, 4], dtype=np.int32)
            ctx = device.ctx
            ctx.glBindTexture(gl.GL_TEXTURE_2D, source.texture)
            ctx.glTexSubImage2D(
                gl.GL_TEXTURE_2D, 0, 0, 0, 4, 1, gl.GL_RGBA,
                gl.GL_UNSIGNED_BYTE,
                source.format.host_pack(patch).reshape(1, 4, 4),
            )
            kernel(out, {"a": source}, {"u_factor": 2.0})
        expected = values.copy()
        expected[:4] = patch
        assert np.array_equal(out.to_host(), expected * 2)
        assert device.ctx.stats.draws[-1].texture_gathers > 0

    def test_after_fbo_draw_into_sampled_texture(self):
        device = GpgpuDevice(float_model="videocore")
        scale = make_scale_kernel(device, "int32")
        total = make_sum_kernel(device, "int32")
        ones = device.array(np.ones(16, dtype=np.int32))
        mid = device.empty(16, "int32")
        out = device.empty(16, "int32")
        with faults.suppress():
            for factor in (3.0, -7.0):
                scale(mid, {"a": ones}, {"u_factor": factor})
                total(out, {"a": mid, "b": ones})
                assert np.array_equal(out.to_host(),
                                      np.full(16, factor + 1, np.int32))
        assert device.ctx.stats.draws[-1].texture_gathers > 0


# ----------------------------------------------------------------------
# Decode tails: a fused read's §IV unpack runs over the storage's
# texels, once per draw, when the draw's reads cover more lanes than
# the storage has texels; otherwise lane by lane, as before.
# ----------------------------------------------------------------------
MODELS = ("exact", "ieee32", "videocore")


def _host_values(fmt, count, rng):
    """Small values that every format stores and sgemm keeps in range."""
    dtype = np.dtype(get_format(fmt).dtype)
    if dtype.kind == "f":
        return rng.uniform(-2, 2, count).astype(dtype)
    return rng.integers(-3 if dtype.kind == "i" else 0, 4,
                        count).astype(dtype)


def _decode_runs(drive, model):
    """``drive(device)`` on the JIT and on the IR executor, eager and
    in process, faults off; returns (JIT bytes, IR bytes, JIT draws)."""
    runs = {}
    for backend in ("jit", "ir"):
        device = GpgpuDevice(float_model=model, execution_backend=backend,
                             shade_workers=0, graph_mode=False)
        with faults.suppress():
            output = drive(device)
        runs[backend] = np.asarray(output).tobytes(), device.ctx.stats.draws
    return runs["jit"][0], runs["ir"][0], runs["jit"][1]


def _decodes(draw):
    return draw.counts.get("jit.storage_decodes", 0)


class TestDecodeTail:
    def test_tails_annotated_and_emitted_once(self):
        """Every sgemm read carries a tail; the generated function
        defines one decoder per distinct tail and reads each site's
        outputs from its _fetch."""
        fmodel = make_model("videocore")
        device = GpgpuDevice(float_model="videocore")
        kernel = make_sgemm_kernel(device, "float32", 4)
        program = compile_ir(
            compile_shader(kernel.source.fragment, "fragment"), fmodel
        )
        sites = fetch_sites(program.body)
        assert len(sites) == 3
        assert all(tex.fetch.tail is not None for tex in sites)
        text = CodeGen(program, fmodel, {"v_coord"}).generate()
        # The two loop reads decode through a private local, the c0
        # read straight from the bytes: two distinct decoders.
        assert text.count("def _d") == 2
        assert text.count("_fetch(") == 3

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_sgemm_loop_decodes_each_storage_once(self, fmt, model):
        """Whole-storage path: the loop's A and B reads decode their
        storage once per draw (not once per pass); the c0 read stays
        lane by lane."""
        n = 8
        rng = np.random.default_rng(3)
        mats = [_host_values(fmt, n * n, rng) for _ in range(3)]

        def drive(device):
            kernel = make_sgemm_kernel(device, fmt, n)
            out = device.empty(n * n, fmt)
            kernel(out, {name: device.array(host, fmt)
                         for name, host in zip(("a", "b", "c0"), mats)},
                   {"u_n": float(n), "u_alpha": 1.0, "u_beta": 1.0})
            return out.to_host()

        fused, ir, draws = _decode_runs(drive, model)
        assert fused == ir
        (draw,) = draws
        assert (draw.texture_gathers, draw.gather_fallbacks) == (3, 0)
        # uint8 reads one byte and decodes nothing after it: no tail.
        assert _decodes(draw) == (0 if fmt == "uint8" else 2)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_sort_sites_share_one_decode(self, fmt, model):
        """Shared straight-line path: a bitonic step reads one storage
        from two sites, 2 x 16 lanes of 16 texels, and decodes it once;
        the copy pass (16 lanes of 16 texels) stays lane by lane."""
        host = _host_values(fmt, 16, np.random.default_rng(4))
        fused, ir, draws = _decode_runs(
            lambda device: bitonic_sort(device, device.array(host, fmt))
            .to_host(), model)
        assert fused == ir
        assert any(draw.texture_gathers == 2 for draw in draws)
        for draw in draws:
            assert draw.gather_fallbacks == 0
            shared = draw.texture_gathers == 2 and fmt != "uint8"
            assert _decodes(draw) == int(shared)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_single_reads_stay_lane_by_lane(self, fmt, model):
        """Lane-by-lane path: one read per input of 16 lanes over 16
        texels is a tie, so the sum kernel decodes its fetched rows."""
        rng = np.random.default_rng(6)
        a, b = (_host_values(fmt, 16, rng) for _ in range(2))

        def drive(device):
            out = device.empty(16, fmt)
            make_sum_kernel(device, fmt)(
                out, {"a": device.array(a, fmt), "b": device.array(b, fmt)})
            return out.to_host()

        fused, ir, (draw,) = _decode_runs(drive, model)
        assert fused == ir
        assert (draw.texture_gathers, _decodes(draw)) == (2, 0)

    @pytest.mark.parametrize("model", MODELS)
    def test_masked_reads_run_their_tail_in_place(self, model):
        """Lane-by-lane path under a mask: reads in varying ?: arms run
        their tail in place, so pathfinder's two neighbour reads and
        hotspot's four decode no whole storage; the unmasked centre
        and row reads (lanes = texels) tie and stay lane by lane."""
        grid = np.random.default_rng(5).integers(0, 9, (4, 32))
        fused, ir, draws = _decode_runs(
            lambda device: pathfinder_gpu(device, grid), model)
        assert fused == ir
        assert [(draw.texture_gathers, _decodes(draw))
                for draw in draws] == [(4, 0)] * 3
        rng = np.random.default_rng(11)
        temp = rng.uniform(20, 90, (12, 12))
        power = rng.uniform(0, 1, (12, 12))
        fused, ir, draws = _decode_runs(
            lambda device: hotspot_gpu(device, temp, power, 3), model)
        assert fused == ir
        assert [(draw.texture_gathers, _decodes(draw))
                for draw in draws] == [(6, 0)] * 3

    @pytest.mark.parametrize("rate", [1.0, 0.5])
    def test_missed_reads_decode_the_fallback_bytes(self, rate):
        """A miss runs the fallback, then the decoder on its bytes; loop
        passes that mix hits and misses still match the IR executor."""
        expected, __ = _run_sgemm("ir")
        device = GpgpuDevice(float_model="videocore", shade_workers=0)
        n = 8
        rng = np.random.default_rng(42)
        inputs = {
            name: device.array(rng.uniform(-1, 1, n * n).astype(np.float32))
            for name in ("a", "b", "c0")
        }
        kernel = make_sgemm_kernel(device, "float32", n)
        out = device.empty(n * n, "float32")
        with faults.inject_faults(gather_miss=rate, seed=3) as plan:
            kernel(out, inputs, {"u_n": float(n), "u_alpha": 1.0,
                                 "u_beta": 1.0})
        draw = device.ctx.stats.draws[-1]
        assert np.array_equal(out.to_host(), expected)
        assert plan.fired["gather_miss"] > 0
        if rate == 1.0:
            assert draw.gather_fallbacks == 3 and _decodes(draw) == 0

    def test_family_gather_counts_unchanged(self):
        """Decode tails change no ``draw.*`` count: every family records
        the gathers it recorded before tails existed, and some of its
        draws decode whole storages."""
        device = GpgpuDevice(float_model="videocore", shade_workers=0,
                             graph_mode=False)
        graph_device = GpgpuDevice(float_model="videocore", graph_mode=True,
                                   shade_workers=0)
        with faults.suppress():
            _drive_every_family(device, graph_device)
        draws = device.ctx.stats.draws + graph_device.ctx.stats.draws
        assert len(draws) == 67
        assert sum(draw.texture_gathers for draw in draws) == 119
        assert sum(draw.gather_fallbacks for draw in draws) == 0
        assert sum(_decodes(draw) for draw in draws) > 0


# ----------------------------------------------------------------------
# IEEE special values through the whole-storage decode.
# ----------------------------------------------------------------------
#: float32 inputs of every IEEE class: ±0, ±inf, NaN, the smallest and
#: largest subnormals (and their negatives), the largest finite value
#: (and its negative), the smallest normal, and plain values.
IEEE_INPUTS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1.1754942e-38,
     3.4028235e38, -3.4028235e38, 1.0, -2.5, 1.1754944e-38, 3.0, 0.5, 7.0],
    dtype=np.float32,
)

#: What the §IV float transform (host pack, GLSL unpack, GLSL pack, host
#: unpack) returns today for IEEE_INPUTS, as float32 bit patterns, per
#: float model.  -0 comes back +0 (pack and unpack both special-case
#: zero); ±inf and NaN survive (NaN as the quiet pattern); subnormals
#: flush to +0; the largest finite value comes back as inf under the
#: float32 models; videocore's SFU bias perturbs every finite normal's
#: low mantissa bits.
IEEE_RESULTS = {
    "exact": [0x0, 0x0, 0x7F800000, 0xFF800000, 0x7FC00000, 0x0, 0x0, 0x0,
              0x7F7FFFFF, 0xFF7FFFFF, 0x3F800000, 0xC0200000, 0x800000,
              0x40400000, 0x3F000000, 0x40E00000],
    "ieee32": [0x0, 0x0, 0x7F800000, 0xFF800000, 0x7FC00000, 0x0, 0x0, 0x0,
               0x7F800000, 0xFF800000, 0x3F800000, 0xC0200000, 0x800000,
               0x40400000, 0x3F000000, 0x40E00000],
    "videocore": [0x0, 0x0, 0x7F800000, 0xFF800000, 0x7FC00000, 0x0, 0x0,
                  0x0, 0x7F800000, 0xFF800000, 0x3F800040, 0xC0200050,
                  0x800040, 0x40400060, 0x3F000040, 0x40E00070],
}


class TestIeeeSpecialValues:
    @pytest.mark.parametrize("model", MODELS)
    def test_whole_storage_decode_of_special_values(self, model):
        """Three reads of the first 16 texels of a 32-texel storage
        (48 lanes > 32 texels) decode the whole storage, including
        the 16 texels no fragment reads; the JIT matches the IR
        executor byte for byte and no RuntimeWarning escapes."""
        host = np.concatenate([IEEE_INPUTS, IEEE_INPUTS[::-1]])

        def drive(device):
            kernel = device.kernel(
                "ieee_probe", [("x", "float32")], "float32",
                "result = max(max(fetch_x(gpgpu_index), "
                "fetch_x(gpgpu_index)), fetch_x(gpgpu_index));",
                mode="gather",
            )
            out = device.empty(16, "float32")
            kernel(out, {"x": device.array(host)})
            return out.to_host()

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fused, ir, draws = _decode_runs(drive, model)
        assert fused == ir
        assert _decodes(draws[-1]) == 1
        bits = np.frombuffer(fused, dtype=np.uint32)
        assert [int(b) for b in bits] == IEEE_RESULTS[model]


# ----------------------------------------------------------------------
# Flat-index reads: a fused read takes the element index, and the mod /
# floor texel coordinates run only on a miss.
# ----------------------------------------------------------------------
def _address_deferred(site) -> bool:
    """The site's ``mod(index, size.x)`` and ``floor(index / size.x)``
    are private to it: they run only in its fallback."""
    def private(op, key):
        return [ins for ins in site.private
                if ins.op == op and ins.imm[0] == key]

    mods = [ins for ins in private("builtin", "mod/0")
            if ins.args[0] == site.index]
    quots = [ins.out for ins in private("arith", "/")
             if ins.args[0] == site.index]
    floors = [ins for ins in private("builtin", "floor/0")
              if ins.args[0] in quots]
    return len(mods) == len(quots) == len(floors) == 1


class TestFlatIndex:
    def test_every_site_reads_by_flat_index(self, monkeypatch):
        """Every fused site of every family and format records its flat
        index, and its address ops (sgemm's loop sites included) move
        into the fallback."""
        sources = _family_sources(monkeypatch)
        fmodel = make_model("videocore")
        sgemm = 0
        for name, fragment in sources.items():
            program = compile_ir(compile_shader(fragment, "fragment"), fmodel)
            sites = fetch_sites(program.body)
            assert sites, name
            for tex in sites:
                assert tex.fetch.index is not None, name
                assert _address_deferred(tex.fetch), name
            sgemm += name.startswith("sgemm")
        assert sgemm

    @pytest.mark.parametrize("model", MODELS)
    def test_jit_matches_ir(self, model):
        """Straight-line (sum), loop (sgemm) and masked (hotspot) reads
        all hit, with the IR executor's bytes, in every float model."""
        rng = np.random.default_rng(9)
        a, b = (rng.uniform(-2, 2, 64).astype(np.float32) for _ in range(2))
        temp = rng.uniform(20, 90, (8, 8))
        power = rng.uniform(0, 1, (8, 8))

        def drive(device):
            out = device.empty(64, "float32")
            make_sum_kernel(device, "float32")(
                out, {"a": device.array(a), "b": device.array(b)})
            results = [out.to_host()]
            make_sgemm_kernel(device, "float32", 8)(
                out, {"a": device.array(a), "b": device.array(b),
                      "c0": device.array(a)},
                {"u_n": 8.0, "u_alpha": 1.0, "u_beta": 1.0})
            results.append(out.to_host())
            results.append(hotspot_gpu(device, temp, power, 2).ravel())
            return np.concatenate(results)

        fused, ir, draws = _decode_runs(drive, model)
        assert fused == ir
        assert sum(draw.texture_gathers for draw in draws) == 2 + 3 + 12
        assert sum(draw.gather_fallbacks for draw in draws) == 0

    def test_identity_per_size(self):
        """The flat-index identity holds in float32 and float64 and
        fails where half precision cannot hold every index."""
        for width, height in ((1, 1), (5, 3), (96, 96), (1, 4096)):
            for dtype in ("<f4", "<f8"):
                assert flat_index_exact(dtype, float(width), float(height))
        assert flat_index_exact("<f2", 5.0, 3.0)
        assert not flat_index_exact("<f2", 64.0, 64.0)
        assert not flat_index_exact("<f4", float(FLAT_INDEX_LIMIT), 2.0)

    def test_failed_proof_is_a_counted_fallback(self, monkeypatch):
        """Where the identity fails every read misses: the fallback
        gives the same bytes and each site counts one fallback."""
        expected, __ = _run_sum("ir")
        hit, stats = _run_sum("jit")
        assert (stats.texture_gathers, stats.gather_fallbacks) == (2, 0)
        monkeypatch.setattr(jit_codegen, "flat_index_exact",
                            lambda *args: False)
        device = GpgpuDevice(float_model="videocore", shade_workers=0)
        kernel = make_sum_kernel(device, "int32")
        a = np.arange(64, dtype=np.int32) - 7
        b = (np.arange(64, dtype=np.int32) * 3) % 41
        out = device.empty(64, "int32")
        with faults.suppress():
            kernel(out, {"a": device.array(a), "b": device.array(b)})
        draw = device.ctx.stats.draws[-1]
        assert (draw.texture_gathers, draw.gather_fallbacks) == (0, 2)
        assert np.array_equal(out.to_host(), expected)
        assert np.array_equal(hit, expected)

    def test_non_cast_mod_is_not_fused(self):
        """A model whose ``mod`` quantize is not a cast keeps the read
        in place: the flat read would skip that rounding."""
        fmodel = make_model("videocore")
        assert not fmodel.quantize_is_cast("sfu")
        source = generate_kernel_source(
            "probe", [("x", "int32")], "int32", "result = x;"
        )
        program = compile_ir(compile_shader(source.fragment, "fragment"),
                             fmodel)
        for tex in texture_instrs(program.body):
            for ins in tex.fetch.private:
                if ins.op == "builtin" and ins.imm[0] == "mod/0":
                    ins.imm = (ins.imm[0], dataclasses.replace(
                        ins.imm[1], category="sfu"))
        annotate_gathers(program)
        (tex,) = fetch_sites(program.body)
        assert "sfu" in tex.fetch.categories
        gen = CodeGen(program, fmodel, {"v_coord"})
        assert "_fetch(" not in gen.generate() and not gen.fused
