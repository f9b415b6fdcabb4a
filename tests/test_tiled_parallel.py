"""Multiprocess fragment shading, and the fixed-function conformance
fixes that landed with it.

The heart of this file is the bit-identity contract: splitting a draw's
fragment batch into one contiguous chunk per worker and shading the
chunks on the worker pool must produce the *byte-identical* framebuffer,
the same DrawStats and the same ``draw.*`` counts as one in-process
run.  The golden corpus doubles as the cross-check: every pinned
framebuffer was generated in-process, so rendering the corpus on the
pool against the stored bytes catches any divergence.  Tests that use
workers take the ``pool_floor`` fixture, which lowers the pool floor so
these small draws reach the pool.

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
from repro.perf import counters
from repro.testing import faults
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
    shade_workers=None,
    quad=QUAD_CCW,
    scissor=None,
    vertex_source=VS,
):
    """Draw one quad; returns (framebuffer, ctx) so stats are visible."""
    ctx = GLES2Context(
        width=size, height=size, float_model="exact",
        execution_backend=backend, shade_workers=shade_workers,
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


def _pooled(render):
    """Run ``render()``; skip the test when no draw reached the pool
    because process pools are unavailable on this platform."""
    before = counters.values["pool.draws"]
    result = render()
    if counters.values["pool.draws"] == before:
        pytest.skip("process pool unavailable on this platform")
    return result


# ======================================================================
# Partition mechanics
# ======================================================================
def _batch(n):
    return FragmentBatch(
        px=np.arange(n) % 7,
        py=np.arange(n) // 7,
        vertex_ids=np.zeros((n, 3), dtype=np.int64),
        bary=np.zeros((n, 3)),
        persp=np.zeros((n, 3)),
        frag_z=np.zeros(n),
        frag_w=np.ones(n),
    )


def test_partition_tiles_is_a_partition():
    for n, parts in [(500, 2), (500, 3), (7, 7), (9, 4)]:
        chunks = partition_tiles(_batch(n), parts)
        assert len(chunks) == parts
        # Contiguous ranges that cover the batch in order...
        assert chunks[0].start == 0 and chunks[-1].stop == n
        for left, right in zip(chunks, chunks[1:]):
            assert left.stop == right.start
        # ...with counts that differ by at most one fragment.
        sizes = [chunk.stop - chunk.start for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) > 0


def test_partition_tiles_degenerate_cases():
    # Fewer fragments than parts: one single-fragment chunk each.
    assert partition_tiles(_batch(2), 5) == [slice(0, 1), slice(1, 2)]
    # One part is the whole batch.
    assert partition_tiles(_batch(3), 1) == [slice(0, 3)]
    # An empty batch has no chunks.
    assert partition_tiles(_batch(0), 2) == []


# ======================================================================
# Pool vs in-process bit-identity (golden corpus)
# ======================================================================
@pytest.mark.parametrize("backend,workers", [
    ("ir", None), ("jit", None), ("jit", 2),
])
@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.name for entry in ENTRIES]
)
def test_corpus_tiled_matches_golden(entry, backend, workers, pool_floor):
    """Every pinned framebuffer was rendered in-process; the IR
    backend (which never pools) and the worker pool must reproduce it
    byte for byte, and the pool must count the same draw.* events."""

    def render(shade_workers):
        before = counters.snapshot(counters.DRAW)
        framebuffer, __ = draw_for_capture(
            entry.fragment,
            size=entry.size,
            quantization=entry.quantization,
            uniforms=entry.uniforms,
            textures=entry.textures,
            vertex_source=entry.vertex,
            execution_backend=backend,
            shade_workers=shade_workers,
        )
        changed = counters.delta(before)
        return framebuffer, {name: count for name, count in changed.items()
                             if name.startswith("draw.")}

    framebuffer, __ = render(workers)
    expected = parse_framebuffer(
        (DEFAULT_CORPUS_DIR / f"{entry.name}.expected").read_text()
    )
    assert np.array_equal(framebuffer, expected), \
        f"{entry.name}: {backend} render with workers={workers} " \
        f"diverged from golden"
    if workers:
        # An injected gather_miss fires only in the leader (pool
        # workers never consult it), so under it an in-process draw can
        # count a fallback where the pooled draw cannot.  The counts
        # are compared on two more renders under the environment's
        # other faults (worker crashes, corrupt cache entries), with
        # gather_miss alone masked.
        env = faults.active_plan()
        specs = {} if env is None else {
            site: spec for site, spec in env.specs.items()
            if site != "gather_miss"
        }
        with faults.inject_faults(seed=env.seed if env else 0, **specs):
            __, pooled_counts = render(workers)
            __, in_process_counts = render(0)
        assert pooled_counts == in_process_counts, entry.name


# ======================================================================
# Pool vs in-process: framebuffer AND DrawStats
# ======================================================================
@pytest.mark.parametrize("backend", ["ir", "jit"])
@pytest.mark.parametrize("shader", [UV_SHADER, DISCARD_SHADER],
                         ids=["plain", "discard"])
def test_tiled_matches_monolithic(backend, shader, pool_floor):
    """Two workers against none: the JIT splits the draw across the
    pool, the IR backend shades in-process either way."""
    mono_fb, mono_ctx = _render(shader, backend=backend, shade_workers=0)
    par_fb, par_ctx = _render(shader, backend=backend, shade_workers=2)
    assert np.array_equal(mono_fb, par_fb)
    (mono_draw,) = mono_ctx.stats.draws
    (par_draw,) = par_ctx.stats.draws
    # Per-chunk op counts sum back to exactly the in-process totals,
    # and global-initializer ops are charged once per draw.
    assert _stats_tuple(mono_draw) == _stats_tuple(par_draw)


def test_discard_spanning_chunk_boundary(pool_floor):
    """DISCARD_SHADER kills the left half of each row of an 8x8 quad,
    so the boundary between the two workers' chunks falls between
    discarded and kept fragments.  The chunk discard masks must merge
    to the exact in-process mask."""
    fb, ctx = _pooled(lambda: _render(
        DISCARD_SHADER, backend="jit", shade_workers=2
    ))
    # Left half (v_uv.x < 0.5 at x pixel centers 0..3) stays cleared.
    assert (fb[:, :4] == 0).all()
    assert (fb[:, 4:, 3] == 255).all()
    (draw,) = ctx.stats.draws
    assert draw.discarded_fragments == 32
    assert draw.framebuffer_writes == 32


def test_one_capture_per_tiled_draw(pool_floor):
    """The differential oracle consumes exactly one FragmentCapture
    per draw with full-batch arrays in raster order — the pool must
    merge its chunks, not emit per-chunk captures."""
    from repro.gles2 import pipeline as p

    captures = []
    p.set_capture_hook(captures.append)
    try:
        mono_fb, __ = _render(DISCARD_SHADER, backend="jit",
                              shade_workers=0)
        par_fb, __ = _render(DISCARD_SHADER, backend="jit",
                             shade_workers=2)
    finally:
        p.clear_capture_hook()
    assert len(captures) == 2
    mono, par = captures
    assert np.array_equal(mono.px, par.px)
    assert np.array_equal(mono.py, par.py)
    assert np.array_equal(mono.discarded, par.discarded)
    assert np.array_equal(mono.colors, par.colors)
    assert np.array_equal(mono.quantised, par.quantised)


# ======================================================================
# Worker-pool shading
# ======================================================================
def test_worker_pool_bit_identical_and_exercised(pool_floor):
    mono_fb, mono_ctx = _render(UV_SHADER, backend="jit", shade_workers=0)
    # The pool really ran (not a silent in-process fallback) unless
    # process pools are unavailable on this platform.
    par_fb, par_ctx = _pooled(lambda: _render(
        UV_SHADER, backend="jit", shade_workers=2
    ))
    assert np.array_equal(mono_fb, par_fb)
    (mono_draw,) = mono_ctx.stats.draws
    (par_draw,) = par_ctx.stats.draws
    assert _stats_tuple(mono_draw) == _stats_tuple(par_draw)


def test_worker_pool_discard_bit_identical(pool_floor):
    mono_fb, mono_ctx = _render(DISCARD_SHADER, backend="jit",
                                shade_workers=0)
    par_fb, par_ctx = _pooled(lambda: _render(
        DISCARD_SHADER, backend="jit", shade_workers=2
    ))
    assert np.array_equal(mono_fb, par_fb)
    (mono_draw,) = mono_ctx.stats.draws
    (par_draw,) = par_ctx.stats.draws
    assert _stats_tuple(mono_draw) == _stats_tuple(par_draw)


# ----------------------------------------------------------------------
# Plan transport: every plan carries the function's store entry by
# value, so pooled shading never depends on the artifact store.
# ----------------------------------------------------------------------
def _assert_pooled_matches(shader, launches=1, between=None):
    """``launches`` pooled draws of ``shader`` (``between()`` runs
    after each but the last): each pools, and each matches one
    in-process draw pixel for pixel and stat for stat."""
    mono_fb, mono_ctx = _render(shader, backend="jit", shade_workers=0)
    (mono_draw,) = mono_ctx.stats.draws
    before = counters.values["pool.draws"]
    for launch in range(launches):
        if launch and between is not None:
            between()
        fb, ctx = _render(shader, backend="jit", shade_workers=2)
        if counters.values["pool.draws"] == before:
            pytest.skip("process pool unavailable on this platform")
        assert counters.values["pool.draws"] == before + launch + 1
        assert np.array_equal(fb, mono_fb)
        (draw,) = ctx.stats.draws
        assert _stats_tuple(draw) == _stats_tuple(mono_draw)


def test_pooled_draws_survive_a_cleared_store(monkeypatch, tmp_path,
                                              pool_floor, isolated_counters):
    """The store emptied between two pooled launches of one kernel:
    plans never read it, so both launches still pool.  (Its compiles
    into the private store are fresh by design, hence the isolated
    counters.)"""
    from repro.core import cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    shader = UV_SHADER.replace("1.0);", "0.5);")
    with faults.suppress():
        _assert_pooled_matches(shader, launches=2, between=cache.clear)
    assert list(cache.iter_entries()) == []


def test_pooled_draws_without_a_store(monkeypatch, pool_floor):
    monkeypatch.setenv("REPRO_CACHE", "0")
    shader = DISCARD_SHADER.replace("0.25", "0.625")
    with faults.suppress():
        _assert_pooled_matches(shader)


def test_unloadable_plan_shades_in_process(monkeypatch, pool_floor):
    """Entry bytes a worker cannot load: the draw shades in-process,
    bit-identical, as one counted fallback — not a pool failure."""
    shader = UV_SHADER.replace("1.0);", "0.75);")
    shipped = parallel._plan_entry

    def corrupted(fn, fmodel):
        entry, uid = shipped(fn, fmodel)
        return entry[: len(entry) // 2], uid + "-truncated"

    with faults.suppress():
        mono_fb, mono_ctx = _render(shader, backend="jit", shade_workers=0)
        monkeypatch.setattr(parallel, "_plan_entry", corrupted)
        before = counters.snapshot()
        fb, ctx = _render(shader, backend="jit", shade_workers=2)
    changed = counters.delta(before)
    if parallel._POOL is None:
        pytest.skip("process pool unavailable on this platform")
    assert np.array_equal(fb, mono_fb)
    assert _stats_tuple(ctx.stats.draws[-1]) == \
        _stats_tuple(mono_ctx.stats.draws[-1])
    assert changed.get("fault.fallbacks") == 1
    assert "pool.draws" not in changed
    assert "pool.restarts" not in changed
    assert "pool.retries" not in changed


def test_workers_ignored_for_ir_backend(isolated_counters, pool_floor):
    """The IR backend silently shades in-process — same results."""
    mono_fb, __ = _render(UV_SHADER, backend="ir", shade_workers=0)
    par_fb, __ = _render(UV_SHADER, backend="ir", shade_workers=2)
    assert np.array_equal(mono_fb, par_fb)
    assert isolated_counters.values["pool.draws"] == 0


def test_draw_at_the_pool_floor_stays_in_process(isolated_counters,
                                                 monkeypatch):
    """Only a draw with more fragments than the floor reaches the
    pool: a 64-fragment draw at a floor of 64 shades in-process."""
    from repro.gles2 import pipeline

    monkeypatch.setattr(pipeline, "POOL_MIN_FRAGMENTS", 64)
    fb, __ = _render(UV_SHADER, backend="jit", shade_workers=2)
    mono_fb, __ = _render(UV_SHADER, backend="jit", shade_workers=0)
    assert np.array_equal(fb, mono_fb)
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


def test_front_facing_chunked_identical(pool_floor):
    """Mixed winding in one draw: the front- and back-facing triangles
    land in different worker chunks."""
    mixed = np.array(
        [[-1, -1], [1, -1], [-1, 1], [1, 1], [1, -1], [-1, 1]],
        dtype=np.float32,
    )
    for backend in ("ir", "jit"):
        mono_fb, mono_ctx = _render(FRONT_SHADER, quad=mixed,
                                    backend=backend, shade_workers=0)
        assert (mono_fb[..., 0] == 255).any()
        assert (mono_fb[..., 2] == 255).any()
        par_fb, par_ctx = _render(
            FRONT_SHADER, quad=mixed, backend=backend, shade_workers=2
        )
        assert np.array_equal(mono_fb, par_fb), backend
        assert _stats_tuple(mono_ctx.stats.draws[-1]) == \
            _stats_tuple(par_ctx.stats.draws[-1]), backend


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


def test_scissored_draw_chunked_identical(pool_floor):
    """A scissored draw's batch holds only the fragments inside the
    box, so the chunk boundary falls inside it."""
    for backend in ("ir", "jit"):
        mono_fb, mono_ctx = _render(
            UV_SHADER, size=8, backend=backend, scissor=(1, 2, 5, 4),
            shade_workers=0,
        )
        par_fb, par_ctx = _render(
            UV_SHADER, size=8, backend=backend, scissor=(1, 2, 5, 4),
            shade_workers=2,
        )
        assert np.array_equal(mono_fb, par_fb), backend
        assert _stats_tuple(mono_ctx.stats.draws[-1]) == \
            _stats_tuple(par_ctx.stats.draws[-1]), backend
