"""Texture-gather fast path: IR annotation, JIT emission, counters.

The JIT replaces qualifying ``texture2D`` calls — complete sampler,
NEAREST magnification, CLAMP_TO_EDGE wraps, coordinates produced by the
kernel codegen's ``gpgpu_index_to_coord`` helper — with direct integer
texel-storage gathers.  These tests pin the three layers of that
contract:

* the IR annotation pass proves the coordinate chain on every E1
  kernel (so a rephrasing of the codegen templates that silently loses
  the fast path fails here, per the contract note in
  ``repro.core.codegen.glsl_functions``);
* gather-on and gather-forced-off JIT runs are bit-identical to each
  other and to the IR executor;
* the ``texture_gathers`` / ``gather_fallbacks`` DrawStats counters
  account for every gather-site execution, including when a runtime
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
from repro.glsl import jit
from repro.glsl.interp import compile_shader
from repro.glsl.ir import compile_ir, static_cost
from repro.glsl.ir.nodes import Block, Instr
from repro.glsl.jit import JitExecutor
from repro.kernels import (
    make_saxpy_kernel,
    make_scale_kernel,
    make_sgemm_kernel,
    make_sum_kernel,
)
from repro.perf import counters
from repro.perf.counters import DrawStats
from repro.testing.oracle import draw_for_capture


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    parallel.shutdown_pool()


def _count_texture_sites(block) -> int:
    """All texture instructions in a structured block, annotated or not."""
    count = 0
    for item in block.items:
        if isinstance(item, Instr):
            if item.op == "texture":
                count += 1
        else:
            for slot in item.__slots__:
                value = getattr(item, slot)
                if isinstance(value, Block):
                    count += _count_texture_sites(value)
    return count


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
    if gather:
        kernel(out, {"a": device.array(a), "b": device.array(b)})
    else:
        with jit.texture_gather(False):
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
    if gather:
        kernel(out, inputs, uniforms)
    else:
        with jit.texture_gather(False):
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
