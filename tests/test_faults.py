"""Fault-injection coverage (ISSUE 9): every degraded path is forced,
counted, and bit-identical.

The contract under test, per layer:

* **Worker pool** — an injected worker crash / hang / garbled chunk
  makes the draw retry within its bounded budget and then fall back to
  in-process shading, with byte-identical framebuffers and
  untouched DrawStats, counted in ``worker_retries`` /
  ``pool_restarts`` / ``fault_fallbacks``.
* **Disk cache** — a corrupted entry reads as a counted miss (and is
  dropped), a failed publish (ENOSPC) is counted and never breaks a
  compile, a contended trim lock skips the trim, and orphaned publish
  temp files older than an hour are swept.
* **Fusion / JIT** — a failed chain composition replays the chain
  eagerly; a failed JIT codegen runs the draw on the IR executor.
  Both bit-identical.

Healthy baselines run under :func:`repro.testing.faults.suppress` so
these assertions stay valid inside the fault-injected CI leg
(``REPRO_FAULTS=...`` over the whole suite).
"""

import os
import time
import warnings

import numpy as np
import pytest

from repro import GpgpuDevice
from repro.core import cache, knobs
from repro.gles2 import GLES2Context, enums as gl, parallel
from repro.gles2 import shader as shader_mod
from repro.kernels.scan import exclusive_scan
from repro.perf import counters
from repro.testing import faults

VS = """
attribute vec2 a_position;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5;
    gl_Position = vec4(a_position, 0.0, 1.0);
}
"""

QUAD = np.array(
    [[-1, -1], [1, -1], [1, 1], [-1, -1], [1, 1], [-1, 1]],
    dtype=np.float32,
)


def _shader(tag: str) -> str:
    """A per-test fragment shader (the ``tag`` constant keeps sources
    distinct, so in-process memo state never crosses tests)."""
    return (
        "precision highp float;\n"
        "varying vec2 v_uv;\n"
        "void main() {\n"
        f"    gl_FragColor = vec4(v_uv, v_uv.x * v_uv.y * {tag}, 1.0);\n"
        "}\n"
    )


#: One shared shader for the pool tests: the pool path is exercised
#: repeatedly and the plan/program memos warming across tests is
#: exactly the production situation.
POOL_SHADER = _shader("0.5")


@pytest.fixture(autouse=True)
def _fault_guard(monkeypatch, isolated_counters, pool_floor):
    """Per-test isolation: tests here drive their own injection plans
    (never the environment's), counters are isolated so cold compiles
    are invisible to the warm-CI assertion, and the worker pool (with
    its circuit-breaker state) is torn down after every test.  The
    pool floor is lowered so the small pool renders reach the pool."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    yield
    parallel.shutdown_pool()


def _render(fragment_source, *, size=8, backend="jit", shade_workers=None):
    ctx = GLES2Context(
        width=size, height=size, float_model="exact",
        execution_backend=backend, shade_workers=shade_workers,
    )
    vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
    ctx.glShaderSource(vs, VS)
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
    ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, QUAD)
    ctx.glViewport(0, 0, size, size)
    ctx.glClearColor(0.0, 0.0, 0.0, 0.0)
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


def _pool_render(**kwargs):
    return _render(
        POOL_SHADER, size=8, backend="jit", shade_workers=2, **kwargs,
    )


def _healthy_pool_baseline():
    """Healthy parallel render, or skip when this platform has no
    usable process pools (the paths under test would never run)."""
    before = counters.values["pool.draws"]
    with faults.suppress():
        fb, ctx = _pool_render()
    if counters.values["pool.draws"] == before:
        pytest.skip("process pools unavailable on this platform")
    return fb, ctx


# ======================================================================
# The injection engine itself
# ======================================================================
def test_parse_spec():
    specs = faults.parse_spec("worker_crash:0.25,cache_corrupt:1@2, fuse_fail")
    assert specs == {
        "worker_crash": (0.25, None),
        "cache_corrupt": (1.0, 2),
        "fuse_fail": (1.0, None),
    }


def test_parse_spec_rejects_garbage():
    with pytest.raises(ValueError, match="unknown fault site"):
        faults.parse_spec("warp_drive:1")
    with pytest.raises(ValueError, match="must be in"):
        faults.parse_spec("worker_crash:1.5")
    with pytest.raises(ValueError):
        faults.inject_faults(warp_drive=1.0).__enter__()


def test_plan_firing_is_deterministic():
    def sequence(seed):
        plan = faults.FaultPlan({"cache_corrupt": (0.3, None)}, seed=seed)
        return [plan.should_fire("cache_corrupt") for _ in range(300)]

    first = sequence(7)
    assert sequence(7) == first
    assert any(first) and not all(first)
    assert sequence(8) != first


def test_max_fires_cap():
    plan = faults.FaultPlan({"jit_error": (1.0, 2)})
    fires = [plan.should_fire("jit_error") for _ in range(50)]
    assert fires[:2] == [True, True]
    assert sum(fires) == 2


def test_plan_precedence_and_suppress(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "fuse_fail:1")
    assert faults.fire("fuse_fail")
    with faults.inject_faults(cache_corrupt=1.0):
        # The override fully replaces the environment plan.
        assert not faults.fire("fuse_fail")
        assert faults.fire("cache_corrupt")
        with faults.suppress():
            assert not faults.fire("cache_corrupt")
    with faults.suppress():
        assert not faults.fire("fuse_fail")
    assert faults.fire("fuse_fail")


def test_malformed_env_spec_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "warp_drive:1")
    assert faults.active_plan() is None
    assert not faults.fire("fuse_fail")
    assert "warp_drive" in capsys.readouterr().err


def test_worker_encoding_roundtrip():
    saved = (faults._OVERRIDE, faults._SUPPRESSED)
    try:
        with faults.inject_faults(worker_crash=1.0, cache_corrupt=1.0):
            encoded = faults.encode_active()
        # Only worker-evaluated sites travel to the pool.
        assert [site for site, _, __ in encoded["specs"]] == ["worker_crash"]
        faults.install_encoded(encoded)
        assert faults.fire("worker_crash")
        assert not faults.fire("cache_corrupt")
        # None (leader had no plan, or was suppressing) masks the
        # worker's own inherited environment entirely.
        faults.install_encoded(None)
        assert not faults.fire("worker_crash")
    finally:
        faults._OVERRIDE, faults._SUPPRESSED = saved


def test_encode_active_skips_leader_only_plans():
    with faults.inject_faults(cache_corrupt=1.0):
        assert faults.encode_active() is None
    with faults.suppress():
        assert faults.encode_active() is None


# ======================================================================
# Central knob validation (repro.core.knobs)
# ======================================================================
def test_int_knob_bad_value_warns_once(monkeypatch):
    monkeypatch.setenv("REPRO_SHADE_WORKERS", "abc")
    knobs.reset_warned()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert knobs.int_knob("REPRO_SHADE_WORKERS", 0, minimum=0) == 0
        assert knobs.int_knob("REPRO_SHADE_WORKERS", 0, minimum=0) == 0
    messages = [
        str(w.message) for w in caught
        if issubclass(w.category, RuntimeWarning)
    ]
    assert len(messages) == 1
    assert "REPRO_SHADE_WORKERS" in messages[0]
    assert "'abc'" in messages[0]


def test_knob_range_and_float_validation(monkeypatch):
    knobs.reset_warned()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        monkeypatch.setenv("REPRO_SHADE_WORKERS", "-1")
        assert knobs.int_knob("REPRO_SHADE_WORKERS", 0, minimum=0) == 0
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1e9")
        assert knobs.int_knob("REPRO_CACHE_MAX_BYTES", 64, minimum=1) == 64
        monkeypatch.setenv("REPRO_POOL_TIMEOUT", "nan")
        assert knobs.float_knob("REPRO_POOL_TIMEOUT", 5.0) == 5.0
        monkeypatch.setenv("REPRO_POOL_TIMEOUT", "2.5")
        assert knobs.float_knob("REPRO_POOL_TIMEOUT", 5.0) == 2.5
        monkeypatch.delenv("REPRO_POOL_TIMEOUT")
        assert knobs.float_knob("REPRO_POOL_TIMEOUT", 5.0) == 5.0
    assert len(caught) == 3


def test_context_falls_back_on_malformed_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_SHADE_WORKERS", "abc")
    knobs.reset_warned()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ctx = GLES2Context(width=4, height=4)
    assert ctx.shade_workers == 0
    assert sum(
        1 for w in caught if issubclass(w.category, RuntimeWarning)
    ) == 1


@pytest.mark.parametrize("bad", ["2", -3, 2.5, True],
                         ids=["str", "negative", "float", "bool"])
def test_context_rejects_bad_shade_workers(bad):
    """An explicit worker count must be a non-negative int: anything
    else fails at construction, not in the middle of a large draw."""
    with pytest.raises(ValueError, match="shade_workers"):
        GLES2Context(width=4, height=4, shade_workers=bad)
    with pytest.raises(ValueError, match="shade_workers"):
        GpgpuDevice(shade_workers=bad)


# ======================================================================
# Worker-pool faults (crash / hang / garble)
# ======================================================================
def test_worker_crash_falls_back_bit_identical():
    fb_healthy, ctx_healthy = _healthy_pool_baseline()
    with faults.suppress():
        fb_inproc, ctx_inproc = _render(
            POOL_SHADER, size=8, backend="jit", shade_workers=0,
        )
    draws_before = counters.values["pool.draws"]
    with faults.inject_faults(worker_crash=1.0, seed=101):
        fb_fault, ctx_fault = _pool_render()
    # Every dispatch attempt lost its workers, so the draw degraded to
    # in-process shading: byte-identical, DrawStats untouched.
    assert fb_fault.tobytes() == fb_healthy.tobytes()
    assert fb_fault.tobytes() == fb_inproc.tobytes()
    assert _stats_tuple(ctx_fault.stats.draws[-1]) == \
        _stats_tuple(ctx_healthy.stats.draws[-1])
    assert _stats_tuple(ctx_fault.stats.draws[-1]) == \
        _stats_tuple(ctx_inproc.stats.draws[-1])
    assert counters.values["pool.draws"] == draws_before
    assert ctx_fault.stats.worker_retries >= 1
    assert ctx_fault.stats.pool_restarts >= 1
    assert ctx_fault.stats.fault_fallbacks >= 1


def test_worker_garble_retries_then_succeeds():
    # A single-worker pool makes the retry outcome deterministic: the
    # one worker garbles exactly its first chunk (rate 1, capped at 1
    # fire), so the first dispatch fails structural validation and the
    # retry on the same — healthy — pool must succeed.  (With several
    # workers, chunk scheduling decides which worker still has its
    # garble budget unspent at retry time.)
    before = counters.values["pool.draws"]
    with faults.suppress():
        fb_healthy, __ = _render(
            POOL_SHADER, size=8, backend="jit", shade_workers=1,
        )
    if counters.values["pool.draws"] == before:
        pytest.skip("process pools unavailable on this platform")
    draws_before = counters.values["pool.draws"]
    with faults.inject_faults(worker_garble=(1.0, 1), seed=202):
        fb_fault, ctx_fault = _render(
            POOL_SHADER, size=8, backend="jit", shade_workers=1,
        )
    assert fb_fault.tobytes() == fb_healthy.tobytes()
    assert counters.values["pool.draws"] == draws_before + 1
    assert ctx_fault.stats.worker_retries >= 1
    assert ctx_fault.stats.pool_restarts == 0
    assert ctx_fault.stats.fault_fallbacks == 0


def test_worker_garble_persistent_falls_back():
    fb_healthy, __ = _healthy_pool_baseline()
    with faults.inject_faults(worker_garble=1.0, seed=203):
        fb_fault, ctx_fault = _pool_render()
    assert fb_fault.tobytes() == fb_healthy.tobytes()
    assert ctx_fault.stats.fault_fallbacks >= 1


def test_worker_hang_hits_draw_timeout(monkeypatch):
    fb_healthy, __ = _healthy_pool_baseline()
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", "0.3")
    with faults.inject_faults(worker_hang=1.0, seed=303, hang_seconds=1.0):
        start = time.monotonic()
        fb_fault, ctx_fault = _pool_render()
        elapsed = time.monotonic() - start
    assert fb_fault.tobytes() == fb_healthy.tobytes()
    assert ctx_fault.stats.pool_restarts >= 1
    assert ctx_fault.stats.fault_fallbacks >= 1
    # The per-draw deadline bounded the wait: two attempts at ~0.3 s
    # each plus fallback shading, nowhere near an unbounded hang.
    assert elapsed < 10.0


def test_circuit_breaker_opens_after_repeated_failures():
    fb_healthy, __ = _healthy_pool_baseline()
    parallel._CONSECUTIVE_FAILURES = parallel._MAX_CONSECUTIVE_FAILURES - 1
    with faults.inject_faults(worker_crash=1.0, seed=404):
        fb_fault, __ = _pool_render()
    assert fb_fault.tobytes() == fb_healthy.tobytes()
    assert parallel._POOL_BROKEN
    # With the breaker open the pool is never consulted again: the
    # draw shades in-process immediately (and still correctly).
    draws_before = counters.values["pool.draws"]
    with faults.suppress():
        fb_after, __ = _pool_render()
    assert fb_after.tobytes() == fb_healthy.tobytes()
    assert counters.values["pool.draws"] == draws_before


def test_validate_chunk_rejects_garbage():
    good_color = np.zeros((4, 4))
    sites = {0: True, 1: False}
    loads = {"jit.storage_decodes": 1}
    good = (good_color, None, sites, loads, [])
    assert parallel._validate_chunk(good, 4, "gl_FragColor")[0] is good_color
    with pytest.raises(parallel.ChunkFormatError, match="tuple"):
        parallel._validate_chunk((good_color, None), 4, "gl_FragColor")
    with pytest.raises(parallel.ChunkFormatError, match="tuple"):
        # A tuple of the wrong arity, even with plausible fields.
        parallel._validate_chunk(
            (good_color, None, sites, loads, [], 0), 4, "gl_FragColor"
        )
    with pytest.raises(parallel.ChunkFormatError, match="float array"):
        parallel._validate_chunk(
            ("nope", None, sites, loads, []), 4, "gl_FragColor"
        )
    with pytest.raises(parallel.ChunkFormatError, match="broadcast"):
        parallel._validate_chunk(
            (np.full(3, np.nan), None, sites, loads, []), 4, "gl_FragColor"
        )
    with pytest.raises(parallel.ChunkFormatError, match="discard"):
        parallel._validate_chunk(
            (good_color, np.zeros(2, dtype=bool), sites, loads, []),
            4, "gl_FragColor",
        )
    for bad in ([True], {"0": True}, {0: 1}):
        # Not a dict, not an integer site number, not a bool outcome.
        with pytest.raises(parallel.ChunkFormatError, match="site"):
            parallel._validate_chunk(
                (good_color, None, bad, loads, []), 4, "gl_FragColor"
            )
    for bad in ((0, 0), {"jit.storage_decodes": None},
                {"jit.storage_decodes": -1}, {"pool.retries": 1}):
        # Not a dict, not an integer count, negative, or a counter a
        # worker has no business changing.
        with pytest.raises(parallel.ChunkFormatError, match="counters"):
            parallel._validate_chunk(
                (good_color, None, sites, bad, []), 4, "gl_FragColor"
            )
    with pytest.raises(parallel.ChunkFormatError, match="spans"):
        parallel._validate_chunk(
            (good_color, None, sites, loads, 42), 4, "gl_FragColor"
        )


# ======================================================================
# Disk-cache faults (corrupt / ENOSPC / lock contention / orphans)
# ======================================================================
def test_cache_corrupt_entry_reads_as_counted_miss(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    key = "ab" + "0" * 62
    payload = b"artifact payload bytes"
    with faults.suppress():
        assert cache.put(key, payload, "test")
        assert cache.get(key) == payload
    corrupt_before = counters.values["cache.disk.corrupt"]
    misses_before = counters.values["cache.disk.misses"]
    with faults.inject_faults(cache_corrupt=1.0, seed=11):
        assert cache.get(key) is None
    assert counters.values["cache.disk.corrupt"] == corrupt_before + 1
    assert counters.values["cache.disk.misses"] == misses_before + 1
    # The corrupt entry was dropped, not left to fail forever.
    with faults.suppress():
        assert cache.get(key) is None


@pytest.mark.parametrize("backend", ["ir", "jit"])
def test_cache_corrupt_render_recompiles_bit_identical(
    backend, monkeypatch, tmp_path
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    source = _shader({"ir": "0.1875", "jit": "0.21875"}[backend])
    with faults.suppress():
        fb_healthy, __ = _render(source, backend=backend)
    # Drop the in-process front-end memo so the second render actually
    # consults the store (where every read now comes back corrupted).
    shader_mod.clear_frontend_cache()
    corrupt_before = counters.values["cache.disk.corrupt"]
    with faults.inject_faults(cache_corrupt=1.0, seed=12):
        fb_fault, ctx = _render(source, backend=backend)
    assert fb_fault.tobytes() == fb_healthy.tobytes()
    assert counters.values["cache.disk.corrupt"] > corrupt_before
    assert ctx.stats.disk_cache_corrupt >= 1


def test_cache_enospc_write_is_counted(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    key = "cd" + "0" * 62
    failures_before = counters.values["cache.disk.write_failures"]
    with faults.inject_faults(cache_enospc=1.0, seed=13):
        assert cache.put(key, b"data", "test") is False
    assert counters.values["cache.disk.write_failures"] == failures_before + 1
    with faults.suppress():
        assert cache.get(key) is None
    assert list(cache.iter_entries()) == []


def test_cache_enospc_render_still_correct(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    source = _shader("0.375")
    with faults.suppress():
        fb_healthy, __ = _render(source, backend="jit")
    shader_mod.clear_frontend_cache()
    cache.clear()
    with faults.inject_faults(cache_enospc=1.0, seed=14):
        fb_fault, ctx = _render(source, backend="jit")
    assert fb_fault.tobytes() == fb_healthy.tobytes()
    assert ctx.stats.cache_write_failures >= 1
    # Nothing was published — and nothing broke.
    assert list(cache.iter_entries()) == []


def test_cache_lock_contention_skips_trim(monkeypatch, tmp_path):
    """``cache_lock``: the running total will not open, so each publish
    skips it and scans the store instead — and the scan still trims."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    bound = 4096
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(bound))
    skips_before = counters.values["cache.disk.lock_skips"]
    evictions_before = counters.values["cache.disk.evictions"]
    with faults.inject_faults(cache_lock=1.0, seed=15):
        for index in range(12):
            key = f"{index:02x}" + "e" * 62
            assert cache.put(key, bytes(1024), "test")
            assert cache.usage()[1] <= bound
    assert counters.values["cache.disk.lock_skips"] == skips_before + 12
    assert counters.values["cache.disk.evictions"] > evictions_before
    # The newest entry survives the trims.
    with faults.suppress():
        assert cache.get(key) is not None


def test_orphaned_tmp_files_are_swept(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    shard = tmp_path / f"v{cache.SCHEMA_VERSION}" / "ab"
    shard.mkdir(parents=True)
    orphan = shard / ".tmp-dead-writer"
    orphan.write_bytes(b"x")
    stale = time.time() - 2 * cache._ORPHAN_MAX_AGE_SECONDS
    os.utime(orphan, (stale, stale))
    live = shard / ".tmp-inflight-writer"
    live.write_bytes(b"y")
    removed_before = counters.values["cache.disk.orphans_removed"]
    with faults.suppress():
        cache._maybe_evict()
    assert not orphan.exists()
    assert live.exists()
    assert counters.values["cache.disk.orphans_removed"] == removed_before + 1


# ======================================================================
# Fusion and JIT faults
# ======================================================================
@pytest.mark.parametrize("backend", ["ir", "jit"])
def test_fuse_failure_replays_eagerly_bit_identical(backend):
    host = np.linspace(0.25, 16.0, 64, dtype=np.float32)
    with faults.suppress():
        eager_dev = GpgpuDevice(
            float_model="ieee32", execution_backend=backend,
            graph_mode=False,
        )
        expected = exclusive_scan(eager_dev, eager_dev.array(host))
    graph_dev = GpgpuDevice(
        float_model="ieee32", execution_backend=backend, graph_mode=True,
    )
    with faults.inject_faults(fuse_fail=1.0, seed=21):
        got = exclusive_scan(graph_dev, graph_dev.array(host))
    assert np.array_equal(
        np.asarray(expected.to_host()).view(np.uint32),
        np.asarray(got.to_host()).view(np.uint32),
    )
    got.release()
    expected.release()
    # The chain (which fuses when healthy — see test_graph_parity)
    # fell back to its eager ladder, and the degradation was counted.
    assert graph_dev.ctx.stats.fused_draws == 0
    assert graph_dev.ctx.stats.elided_draws == 0
    assert graph_dev.ctx.stats.fault_fallbacks >= 1


def test_jit_error_falls_back_to_ir_bit_identical():
    source = _shader("0.4375")
    with faults.suppress():
        fb_jit, __ = _render(source, backend="jit")
        fb_ir, __ = _render(source, backend="ir")
    fallbacks_before = counters.values["jit.fallbacks"]
    with faults.inject_faults(jit_error=1.0, seed=22):
        fb_fault, ctx = _render(source, backend="jit")
    assert fb_fault.tobytes() == fb_jit.tobytes()
    assert fb_fault.tobytes() == fb_ir.tobytes()
    assert counters.values["jit.fallbacks"] > fallbacks_before
    assert ctx.stats.fault_fallbacks >= 1


def test_jit_error_is_draw_granular():
    source = _shader("0.46875")
    with faults.suppress():
        fb_healthy, __ = _render(source, backend="jit")
    # Exactly one injected codegen failure: the faulted draw degrades,
    # the next render JITs normally from untouched memo/disk state.
    with faults.inject_faults(jit_error=(1.0, 1), seed=23):
        fb_fault, ctx_fault = _render(source, backend="jit")
        fb_next, ctx_next = _render(source, backend="jit")
    assert fb_fault.tobytes() == fb_healthy.tobytes()
    assert fb_next.tobytes() == fb_healthy.tobytes()
    assert ctx_fault.stats.fault_fallbacks >= 1
    assert ctx_next.stats.fault_fallbacks == 0
