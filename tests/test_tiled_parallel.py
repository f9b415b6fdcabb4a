"""Tiled + multiprocess fragment shading, and the fixed-function
conformance fixes that landed with it.

The heart of this file is the bit-identity contract: splitting a draw's
fragment batch into tiles — shaded in-process or on the worker pool —
must produce the *byte-identical* framebuffer and the same merged
DrawStats as the monolithic path.  The golden corpus doubles as the
cross-check: every pinned framebuffer was generated monolithically, so
rendering the corpus with tiling (all three backends, plus workers for
the JIT) against the stored bytes catches any divergence.

Also covered here:

* ``gl_FrontFacing`` computed from the signed triangle area (was
  hardcoded all-true),
* GL ES 2.0 §2.1.2 signed-normalized attribute conversion
  ``(2c + 1) / (2^n - 1)`` (was the desktop GL 4.x rule),
* ``glScissor`` + GL_SCISSOR_TEST plumbed through draws and clears
  (was dead code).
"""

import numpy as np
import pytest

from repro.gles2 import GLES2Context, GLError, enums as gl, parallel, raster
from repro.gles2.pipeline import VertexAttribState, _normalize_attribute
from repro.gles2.raster import FragmentBatch, partition_tiles
from repro.testing.corpus import (
    DEFAULT_CORPUS_DIR,
    build_entries,
    parse_framebuffer,
)
from repro.testing.oracle import draw_for_capture

ENTRIES = build_entries()

QUAD_CCW = np.array(
    [[-1, -1], [1, -1], [1, 1], [-1, -1], [1, 1], [-1, 1]],
    dtype=np.float32,
)
# Same two triangles with each one's vertex order reversed: identical
# coverage, opposite winding.
QUAD_CW = np.array(
    [[1, 1], [1, -1], [-1, -1], [-1, 1], [1, 1], [-1, -1]],
    dtype=np.float32,
)

VS = """
attribute vec2 a_position;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5;
    gl_Position = vec4(a_position, 0.0, 1.0);
}
"""

UV_SHADER = """
precision highp float;
varying vec2 v_uv;
void main() {
    gl_FragColor = vec4(v_uv, v_uv.x * v_uv.y, 1.0);
}
"""

DISCARD_SHADER = """
precision highp float;
varying vec2 v_uv;
void main() {
    if (v_uv.x < 0.5) { discard; }
    gl_FragColor = vec4(v_uv, 0.25, 1.0);
}
"""

FRONT_SHADER = """
precision highp float;
void main() {
    if (gl_FrontFacing) {
        gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0);
    } else {
        gl_FragColor = vec4(0.0, 0.0, 1.0, 1.0);
    }
}
"""


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    parallel.shutdown_pool()


def _render(
    fragment_source,
    *,
    size=8,
    backend="ir",
    tile_size=None,
    shade_workers=None,
    quad=QUAD_CCW,
    scissor=None,
    vertex_source=VS,
):
    """Draw one quad; returns (framebuffer, ctx) so stats are visible."""
    ctx = GLES2Context(
        width=size, height=size, float_model="exact",
        execution_backend=backend,
        tile_size=tile_size, shade_workers=shade_workers,
    )
    vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
    ctx.glShaderSource(vs, vertex_source)
    ctx.glCompileShader(vs)
    fs = ctx.glCreateShader(gl.GL_FRAGMENT_SHADER)
    ctx.glShaderSource(fs, fragment_source)
    ctx.glCompileShader(fs)
    assert ctx.glGetShaderiv(fs, gl.GL_COMPILE_STATUS), \
        ctx.glGetShaderInfoLog(fs)
    prog = ctx.glCreateProgram()
    ctx.glAttachShader(prog, vs)
    ctx.glAttachShader(prog, fs)
    ctx.glLinkProgram(prog)
    assert ctx.glGetProgramiv(prog, gl.GL_LINK_STATUS)
    ctx.glUseProgram(prog)
    loc = ctx.glGetAttribLocation(prog, "a_position")
    ctx.glEnableVertexAttribArray(loc)
    ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, quad)
    ctx.glViewport(0, 0, size, size)
    ctx.glClearColor(0.0, 0.0, 0.0, 0.0)
    if scissor is not None:
        ctx.glEnable(gl.GL_SCISSOR_TEST)
        ctx.glScissor(*scissor)
    ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
    ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
    fb = ctx.glReadPixels(0, 0, size, size, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)
    return fb, ctx


def _stats_tuple(draw):
    return (
        draw.vertex_invocations,
        draw.fragment_invocations,
        draw.discarded_fragments,
        draw.framebuffer_writes,
        draw.vertex_ops.snapshot(),
        draw.fragment_ops.snapshot(),
    )


# ======================================================================
# Tiling partition mechanics
# ======================================================================
def test_partition_tiles_is_a_partition():
    rng = np.random.default_rng(7)
    n = 500
    batch = FragmentBatch(
        px=rng.integers(0, 33, n),
        py=rng.integers(0, 17, n),
        vertex_ids=np.zeros((n, 3), dtype=np.int64),
        bary=np.zeros((n, 3)),
        persp=np.zeros((n, 3)),
        frag_z=np.zeros(n),
        frag_w=np.ones(n),
    )
    parts = partition_tiles(batch, 8)
    assert len(parts) > 1
    merged = np.concatenate(parts)
    # Every fragment appears exactly once.
    assert np.array_equal(np.sort(merged), np.arange(n))
    for idx in parts:
        # One tile per index array: all fragments share a tile cell...
        assert np.unique(batch.px[idx] // 8).size == 1
        assert np.unique(batch.py[idx] // 8).size == 1
        # ...and keep their original relative order (last-writer-wins).
        assert np.all(np.diff(idx) > 0)


def test_partition_tiles_degenerate_cases():
    batch = FragmentBatch(
        px=np.array([3, 1]),
        py=np.array([0, 0]),
        vertex_ids=np.zeros((2, 3), dtype=np.int64),
        bary=np.zeros((2, 3)),
        persp=np.zeros((2, 3)),
        frag_z=np.zeros(2),
        frag_w=np.ones(2),
    )
    # tile_size <= 0 means "no tiling": the identity partition.
    (only,) = partition_tiles(batch, 0)
    assert np.array_equal(only, np.array([0, 1]))
    # Huge tiles also collapse to one part.
    (only,) = partition_tiles(batch, 1024)
    assert np.array_equal(np.sort(only), np.array([0, 1]))


# ======================================================================
# Tiled vs monolithic bit-identity (golden corpus)
# ======================================================================
@pytest.mark.parametrize("backend,workers", [
    ("ir", None), ("jit", None), ("jit", 2),
])
@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.name for entry in ENTRIES]
)
def test_corpus_tiled_matches_golden(entry, backend, workers):
    """Every pinned framebuffer was rendered monolithically; the tiled
    (and worker-pool) paths must reproduce it byte for byte."""
    framebuffer, __ = draw_for_capture(
        entry.fragment,
        size=entry.size,
        quantization=entry.quantization,
        uniforms=entry.uniforms,
        textures=entry.textures,
        vertex_source=entry.vertex,
        execution_backend=backend,
        tile_size=2,
        shade_workers=workers,
    )
    expected = parse_framebuffer(
        (DEFAULT_CORPUS_DIR / f"{entry.name}.expected").read_text()
    )
    assert np.array_equal(framebuffer, expected), \
        f"{entry.name}: tiled {backend} render diverged from golden"


# ======================================================================
# Tiled vs monolithic: framebuffer AND merged DrawStats
# ======================================================================
@pytest.mark.parametrize("backend", ["ir", "jit"])
@pytest.mark.parametrize("shader", [UV_SHADER, DISCARD_SHADER],
                         ids=["plain", "discard"])
def test_tiled_matches_monolithic(backend, shader):
    mono_fb, mono_ctx = _render(shader, backend=backend)
    tiled_fb, tiled_ctx = _render(shader, backend=backend, tile_size=3)
    assert np.array_equal(mono_fb, tiled_fb)
    (mono_draw,) = mono_ctx.stats.draws
    (tiled_draw,) = tiled_ctx.stats.draws
    # Per-tile stats merge back to exactly the monolithic totals:
    # per-lane ops sum across the partition, and global-initializer
    # ops are charged once (first tile only).
    assert _stats_tuple(mono_draw) == _stats_tuple(tiled_draw)


def test_discard_spanning_tile_boundary():
    """DISCARD_SHADER kills the left half of a 8x8 quad; tile_size=3
    puts the discard edge inside a tile row.  The per-tile discard
    masks must merge to the exact monolithic mask."""
    fb, ctx = _render(DISCARD_SHADER, tile_size=3)
    # Left half (v_uv.x < 0.5 at x pixel centers 0..3) stays cleared.
    assert (fb[:, :4] == 0).all()
    assert (fb[:, 4:, 3] == 255).all()
    (draw,) = ctx.stats.draws
    assert draw.discarded_fragments == 32
    assert draw.framebuffer_writes == 32


def test_one_capture_per_tiled_draw():
    """The differential oracle consumes exactly one FragmentCapture
    per draw with full-batch arrays in raster order — tiling must
    reassemble, not emit per-tile captures."""
    from repro.gles2 import pipeline as p

    captures = []
    p.set_capture_hook(captures.append)
    try:
        mono_fb, __ = _render(DISCARD_SHADER)
        tiled_fb, __ = _render(DISCARD_SHADER, tile_size=3)
    finally:
        p.clear_capture_hook()
    assert len(captures) == 2
    mono, tiled = captures
    assert np.array_equal(mono.px, tiled.px)
    assert np.array_equal(mono.py, tiled.py)
    assert np.array_equal(mono.discarded, tiled.discarded)
    assert np.array_equal(mono.colors, tiled.colors)
    assert np.array_equal(mono.quantised, tiled.quantised)


# ======================================================================
# Worker-pool shading
# ======================================================================
def test_worker_pool_bit_identical_and_exercised(isolated_counters):
    mono_fb, mono_ctx = _render(UV_SHADER, backend="jit")
    par_fb, par_ctx = _render(
        UV_SHADER, backend="jit", tile_size=3, shade_workers=2
    )
    assert np.array_equal(mono_fb, par_fb)
    # The pool really ran (not a silent in-process fallback) unless
    # process pools are unavailable on this platform.
    if isolated_counters.values["pool.draws"] == 0:
        pytest.skip("process pool unavailable on this platform")
    (mono_draw,) = mono_ctx.stats.draws
    (par_draw,) = par_ctx.stats.draws
    assert _stats_tuple(mono_draw) == _stats_tuple(par_draw)


def test_worker_pool_discard_bit_identical(isolated_counters):
    mono_fb, mono_ctx = _render(DISCARD_SHADER, backend="jit")
    par_fb, par_ctx = _render(
        DISCARD_SHADER, backend="jit", tile_size=3, shade_workers=2
    )
    assert np.array_equal(mono_fb, par_fb)
    if isolated_counters.values["pool.draws"] == 0:
        pytest.skip("process pool unavailable on this platform")
    (mono_draw,) = mono_ctx.stats.draws
    (par_draw,) = par_ctx.stats.draws
    assert _stats_tuple(mono_draw) == _stats_tuple(par_draw)


def test_workers_ignored_for_ir_backend(isolated_counters):
    """The IR backend silently shades in-process — same results."""
    mono_fb, __ = _render(UV_SHADER, backend="ir")
    tiled_fb, __ = _render(
        UV_SHADER, backend="ir", tile_size=3, shade_workers=2
    )
    assert np.array_equal(mono_fb, tiled_fb)
    assert isolated_counters.values["pool.draws"] == 0


# ======================================================================
# gl_FrontFacing (was hardcoded all-true)
# ======================================================================
def test_front_facing_ccw_is_front():
    fb, __ = _render(FRONT_SHADER, quad=QUAD_CCW)
    assert (fb[:, :, 0] == 255).all()  # red everywhere
    assert (fb[:, :, 2] == 0).all()


def test_front_facing_cw_is_back():
    fb, __ = _render(FRONT_SHADER, quad=QUAD_CW)
    assert (fb[:, :, 2] == 255).all()  # blue everywhere
    assert (fb[:, :, 0] == 0).all()


def test_front_facing_mixed_winding_single_draw():
    # First triangle CCW (bottom-left half), second CW (top-right):
    # the two halves of the quad disagree on gl_FrontFacing.
    mixed = np.array(
        [[-1, -1], [1, -1], [-1, 1], [1, 1], [1, -1], [-1, 1]],
        dtype=np.float32,
    )
    fb, __ = _render(FRONT_SHADER, quad=mixed, size=4)
    # Strict lower-left triangle interior: front-facing red.
    assert tuple(fb[0, 0][:3]) == (255, 0, 0)
    assert tuple(fb[1, 1][:3]) == (255, 0, 0)
    # Strict upper-right interior: back-facing blue.
    assert tuple(fb[3, 3][:3]) == (0, 0, 255)
    assert tuple(fb[2, 3][:3]) == (0, 0, 255)


def test_front_facing_tiled_identical():
    mixed = np.array(
        [[-1, -1], [1, -1], [-1, 1], [1, 1], [1, -1], [-1, 1]],
        dtype=np.float32,
    )
    mono_fb, __ = _render(FRONT_SHADER, quad=mixed)
    for backend in ("ir", "jit"):
        tiled_fb, __ = _render(
            FRONT_SHADER, quad=mixed, backend=backend, tile_size=3
        )
        assert np.array_equal(mono_fb, tiled_fb), backend


def test_points_are_front_facing():
    batch = raster.rasterize_points(
        np.array([[0.5, 0.5, 0.0]]), np.array([1.0]),
        np.array([0]), 4, 4,
    )
    assert batch.front.dtype == np.bool_
    assert batch.front.all()


# ======================================================================
# GL ES 2.0 §2.1.2 signed-normalized attributes
# ======================================================================
def test_normalize_signed_byte_es2_rule():
    state = VertexAttribState(
        enabled=True, size=1, type=gl.GL_BYTE, normalized=True
    )
    data = np.array([[-128.0], [-1.0], [0.0], [1.0], [127.0]])
    out = _normalize_attribute(data, state)
    # (2c + 1) / 255 — hand-computed: the extremes land exactly on
    # ±1.0 with no clamp, zero maps to 1/255 (not 0).
    expected = np.array(
        [[-1.0], [-1.0 / 255.0], [1.0 / 255.0], [3.0 / 255.0], [1.0]]
    )
    np.testing.assert_array_equal(out, expected)


def test_normalize_signed_short_es2_rule():
    state = VertexAttribState(
        enabled=True, size=1, type=gl.GL_SHORT, normalized=True
    )
    data = np.array([[-32768.0], [0.0], [32767.0]])
    out = _normalize_attribute(data, state)
    expected = np.array([[-1.0], [1.0 / 65535.0], [1.0]])
    np.testing.assert_array_equal(out, expected)


def test_normalize_unsigned_unchanged():
    state = VertexAttribState(
        enabled=True, size=1, type=gl.GL_UNSIGNED_BYTE, normalized=True
    )
    data = np.array([[0.0], [128.0], [255.0]])
    out = _normalize_attribute(data, state)
    np.testing.assert_array_equal(
        out, np.array([[0.0], [128.0 / 255.0], [1.0]])
    )


def test_normalize_skipped_when_not_normalized():
    state = VertexAttribState(
        enabled=True, size=1, type=gl.GL_BYTE, normalized=False
    )
    data = np.array([[-128.0], [127.0]])
    np.testing.assert_array_equal(_normalize_attribute(data, state), data)


# ======================================================================
# glScissor / GL_SCISSOR_TEST
# ======================================================================
def test_scissored_draw_clips_fragments():
    fb, ctx = _render(UV_SHADER, size=8, scissor=(2, 3, 4, 2))
    inside = np.zeros((8, 8), dtype=bool)
    inside[3:5, 2:6] = True
    # Outside the box: untouched clear colour (alpha 0).
    assert (fb[~inside] == 0).all()
    # Inside: shaded (UV_SHADER writes alpha 1).
    assert (fb[inside][:, 3] == 255).all()
    (draw,) = ctx.stats.draws
    assert draw.fragment_invocations == 8
    assert draw.framebuffer_writes == 8


def test_scissor_disabled_is_full_draw():
    ctx = GLES2Context(width=8, height=8, float_model="exact")
    ctx.glScissor(2, 2, 2, 2)  # box set but test never enabled
    ref_fb, __ = _render(UV_SHADER, size=8)
    fb, __ = _render(UV_SHADER, size=8, scissor=None)
    assert np.array_equal(fb, ref_fb)
    assert (fb[:, :, 3] == 255).all()


def test_scissored_clear():
    ctx = GLES2Context(width=4, height=4, float_model="exact")
    ctx.glClearColor(1.0, 0.0, 0.0, 1.0)
    ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
    ctx.glEnable(gl.GL_SCISSOR_TEST)
    ctx.glScissor(1, 1, 2, 2)
    ctx.glClearColor(0.0, 1.0, 0.0, 1.0)
    ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
    fb = ctx.glReadPixels(0, 0, 4, 4, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)
    green = np.zeros((4, 4), dtype=bool)
    green[1:3, 1:3] = True
    assert (fb[green] == [0, 255, 0, 255]).all()
    assert (fb[~green] == [255, 0, 0, 255]).all()


def test_scissor_negative_extent_is_error():
    ctx = GLES2Context(width=4, height=4, strict_errors=False)
    ctx.glScissor(0, 0, -1, 4)
    assert ctx.glGetError() == gl.GL_INVALID_VALUE
    # The stored box is unchanged by the failed call.
    assert ctx._scissor == (0, 0, 4, 4)


@pytest.mark.parametrize("width, height", [(-1, 4), (4, -1)])
def test_read_pixels_negative_extent_is_error(width, height):
    ctx = GLES2Context(width=4, height=4, strict_errors=False)
    out = ctx.glReadPixels(0, 0, width, height, gl.GL_RGBA,
                           gl.GL_UNSIGNED_BYTE)
    assert ctx.glGetError() == gl.GL_INVALID_VALUE
    assert out.size == 0
    assert ctx.stats.readback_bytes == 0
    with pytest.raises(GLError):
        GLES2Context(width=4, height=4).glReadPixels(
            0, 0, width, height, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)


def test_scissored_draw_tiled_identical():
    for backend in ("ir", "jit"):
        mono_fb, __ = _render(
            UV_SHADER, size=8, backend=backend, scissor=(1, 2, 5, 4)
        )
        tiled_fb, __ = _render(
            UV_SHADER, size=8, backend=backend, scissor=(1, 2, 5, 4),
            tile_size=3,
        )
        assert np.array_equal(mono_fb, tiled_fb), backend
