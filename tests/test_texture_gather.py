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
* the decode identity the fusion relies on holds for every float model;
* fused, gather-forced-off and IR-executor runs are bit-identical,
  including masked sites, worker pools, every fallback cause and
  texel storage rewritten in place between launches;
* the ``texture_gathers`` / ``gather_fallbacks`` DrawStats counters
  account for every site execution, including when a runtime
  disqualification (wrap/filter/size mismatch) routes a site through
  the full sampling path, and under tiled / multiprocess shading.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import GpgpuDevice
from repro.core.codegen.templates import generate_kernel_source
from repro.gles2 import enums as gl
from repro.gles2 import parallel
from repro.gles2.precision import VideoCoreModel, make_model
from repro.gles2.texture import Texture
from repro.glsl import jit
from repro.glsl.interp import compile_shader
from repro.glsl.ir import IRExecutor, compile_ir, static_cost
from repro.glsl.ir.gather import texture_instrs
from repro.glsl.jit import JitExecutor
from repro.glsl.jit.codegen import CodeGen, decode_exact, make_helpers
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


def _run_sgemm(
    backend: str, gather: bool = True, tile_size=None, shade_workers=None
):
    device = GpgpuDevice(
        float_model="videocore", execution_backend=backend,
        tile_size=tile_size, shade_workers=shade_workers,
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
        # 3 gather sites: two in-loop fetches plus the c0 tail fetch.
        assert stats_on.texture_gathers > 0
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
# Tiled and multiprocess shading: bit-identity plus counter plumbing
# (workers ship their gather tallies back through gles2.parallel).
# ----------------------------------------------------------------------
class TestTiledAndWorkers:
    def test_sgemm_parity_across_shading_configs(self):
        mono, stats_mono = _run_sgemm("jit")
        tiled, stats_tiled = _run_sgemm("jit", tile_size=4)
        workers, stats_workers = _run_sgemm(
            "jit", tile_size=4, shade_workers=2
        )
        assert np.array_equal(mono, tiled)
        assert np.array_equal(mono, workers)
        for stats in (stats_mono, stats_tiled, stats_workers):
            assert stats.texture_gathers > 0
            assert stats.gather_fallbacks == 0
        # Counters tally per gather-site *execution*: each tile (or
        # worker chunk) runs every site once, so the tiled run counts
        # a multiple of the monolithic one.  Only meaningful when the
        # environment is not already forcing tiling/workers onto the
        # baseline (the CI matrix runs the suite under
        # REPRO_TILE_SIZE/REPRO_SHADE_WORKERS, which make all three
        # configs equivalent).
        if not (os.environ.get("REPRO_TILE_SIZE")
                or os.environ.get("REPRO_SHADE_WORKERS")):
            assert (stats_tiled.texture_gathers
                    % stats_mono.texture_gathers == 0)
            assert stats_tiled.texture_gathers > stats_mono.texture_gathers
            assert (stats_workers.texture_gathers
                    >= stats_mono.texture_gathers)


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
    device = GpgpuDevice(float_model="videocore")
    rng = np.random.default_rng(0)
    for fmt in FORMATS:
        make_sum_kernel(device, fmt)
    make_saxpy_kernel(device)
    make_scale_kernel(device)
    make_sgemm_kernel(device, "float32", 4)
    values = np.arange(16, dtype=np.float32)
    array = device.array(values)
    reduce_sum(device, array)
    reduce_min(device, array)
    inclusive_scan(device, array)
    exclusive_scan(device, array)
    bitonic_sort(device, array)
    transpose(device, array, 4, 4)
    convolve1d(device, array, np.ones(3, dtype=np.float32))
    argmin_via_encoding(device, values)
    hotspot_gpu(device, rng.random((4, 4)), rng.random((4, 4)), 1)
    pathfinder_gpu(device, rng.integers(0, 9, (3, 4)))
    kmeans_assign_gpu(device, rng.random((8, 2)), rng.random((2, 2)),
                      shift=0.5, scale=2.0)
    nearest_neighbor_gpu(device, rng.random(8), rng.random(8), (0.5, 0.5))
    graph_device = GpgpuDevice(float_model="videocore", graph_mode=True)
    scale = make_scale_kernel(graph_device)
    source = graph_device.array(values)
    with graph_device.record() as graph:
        mid = graph.scratch(16, "float32")
        graph.launch(scale, mid, {"a": source}, {"u_factor": 2.0})
        out = graph.scratch(16, "float32")
        graph.launch(scale, out, {"a": mid}, {"u_factor": 3.0})
        graph.keep(out)
    return sources


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
        x = ix.ravel().astype(dt)
        y = iy.ravel().astype(dt)
        size = np.array([[16.0, 16.0]], dtype=dt)
        with faults.suppress():
            fetched = helpers["_fetch"](texture, x, y, size, True)
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
def _hotspot(backend, shade_workers=None, tile_size=None, misses=False):
    """Three hotspot steps; ``misses`` forces every fused read to miss."""
    device = GpgpuDevice(float_model="videocore", execution_backend=backend,
                         shade_workers=shade_workers, tile_size=tile_size)
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

    def test_shade_workers_match_ir(self):
        before = counters.values["pool.draws"]
        pooled, stats = _hotspot("jit", shade_workers=2, tile_size=4)
        assert counters.values["pool.draws"] > before
        ir, __ = _hotspot("ir")
        assert np.array_equal(pooled, ir)
        assert stats.texture_gathers > 0
        assert stats.gather_fallbacks == 0
        workers, __ = _run_sgemm("jit", tile_size=4, shade_workers=2)
        sgemm_ir, __ = _run_sgemm("ir")
        assert np.array_equal(workers, sgemm_ir)

    def test_injected_misses_run_the_fallback(self):
        """The fallback code of straight-line, loop (store-routed) and
        masked sites reproduces the IR executor.  ``gather_miss`` fires
        in this process only, so every draw here shades in-process,
        whatever the environment asks for."""
        in_process = {"shade_workers": 0, "tile_size": 1 << 16}
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
        assert draw.texture_gathers == 0
        assert draw.gather_fallbacks == 2 * n + 1
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
