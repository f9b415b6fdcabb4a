"""Structured tracing: recorder semantics, full-stack span coverage
across backends/workers/graphs, export round-trips, the CLI,
and the satellite bugfixes that rode along (elided-transfer pricing,
non-finite float knobs)."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from repro import GpgpuDevice
from repro.core import knobs
from repro.perf import trace
from repro.perf.counters import ContextStats
from repro.perf.machines import VIDEOCORE_IV_GPU
from repro.perf.wallclock import gpu_wall_time
from repro import trace as trace_cli


@pytest.fixture
def clean_recorder():
    """Detach any ambient recorder (e.g. a CI-wide REPRO_TRACE) for
    the test's duration, restoring it afterwards so session-level
    tracing still sees the rest of the run."""
    previous = trace.active()
    trace._recorder = None
    try:
        yield
    finally:
        trace._recorder = previous


def _run_draw(backend, n=16):
    device = GpgpuDevice(float_model="exact", execution_backend=backend)
    a = device.array(np.arange(n, dtype=np.int32))
    out = device.empty(n, "int32")
    kernel = device.kernel(
        f"tr_{backend}", [("a", "int32")], "int32", "result = a * 2.0;"
    )
    kernel(out, {"a": a})
    assert np.array_equal(out.to_host(), np.arange(n) * 2)
    return device


def _spans(recorder, name=None, cat=None):
    return [
        e for e in recorder.events
        if e["ph"] == "X"
        and (name is None or e["name"] == name)
        and (cat is None or e.get("cat") == cat)
    ]


# ======================================================================
# Recorder semantics
# ======================================================================
def test_disabled_tracing_is_inert(clean_recorder):
    assert not trace.enabled()
    assert trace.active() is None
    span = trace.span("x", "y")
    assert span is trace.span("other")  # the shared no-op object
    with span as live:
        assert live is None
    trace.instant("x", "y")  # must not raise, must not install anything
    assert trace.active() is None
    assert trace.stop() is None


def test_span_records_complete_event(clean_recorder):
    recorder = trace.start()
    with trace.span("unit.work", "unit", {"k": 1}) as sp:
        sp.args["late"] = True
    trace.stop(write=False)
    (event,) = recorder.events
    assert event["ph"] == "X"
    assert event["name"] == "unit.work"
    assert event["cat"] == "unit"
    assert event["dur"] >= 0
    assert event["args"] == {"k": 1, "late": True}


def test_recorder_caps_events_and_counts_drops(clean_recorder):
    recorder = trace.start(max_events=3)
    for i in range(10):
        trace.instant(f"e{i}", "unit")
    trace.stop(write=False)
    assert len(recorder.events) == 3
    assert recorder.dropped == 7
    doc = recorder.to_chrome_trace()
    assert doc["otherData"]["dropped_events"] == 7


def test_ingest_drops_garbage_keeps_valid(clean_recorder):
    recorder = trace.start()
    good = trace.raw_event("w.ok", "pool", 1.0, 2.0, pid=12345)
    accepted = recorder.ingest([
        good,
        "not a dict",
        {"ph": "X", "ts": 1.0},                     # no name
        {"ph": "X", "name": "x", "ts": "bad"},      # non-numeric ts
        {"ph": "X", "name": "x", "ts": 1.0},        # X without dur
    ])
    trace.stop(write=False)
    assert accepted == 1
    (event,) = recorder.events
    assert event["name"] == "w.ok"
    assert event["pid"] == 12345


def test_session_joins_existing_recorder(clean_recorder, tmp_path):
    outer = trace.start(str(tmp_path / "outer.json"))
    with trace.session(str(tmp_path / "inner.json")) as joined:
        assert joined is outer
    # The outer recorder survives the inner block and owns the file.
    assert trace.active() is outer
    assert not (tmp_path / "inner.json").exists()
    trace.stop(write=False)


def test_configure_from_env_installs_recorder(clean_recorder, monkeypatch,
                                              tmp_path):
    path = tmp_path / "env.json"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    recorder = trace.configure_from_env()
    assert recorder is trace.active()
    assert recorder.path == str(path)
    trace.instant("env.probe", "unit")
    trace.stop(write=True)
    doc = json.loads(path.read_text())
    assert any(e["name"] == "env.probe" for e in doc["traceEvents"])


# ======================================================================
# Full-stack span coverage (satellite: matched spans everywhere)
# ======================================================================
REQUIRED_DRAW_PHASES = [
    "draw", "draw.vertex", "draw.raster", "draw.shade",
    "draw.quantise", "draw.write",
]


@pytest.mark.parametrize("backend", ["ir", "jit"])
def test_every_draw_phase_spans_all_backends(clean_recorder, backend):
    recorder = trace.start()
    _run_draw(backend)
    trace.stop(write=False)
    for name in REQUIRED_DRAW_PHASES:
        spans = _spans(recorder, name=name)
        assert spans, f"missing span {name!r} on backend {backend}"
        for event in spans:
            assert event["dur"] >= 0
            assert isinstance(event["ts"], float)
    (draw,) = _spans(recorder, name="draw")
    # The draw span carries counters + the modeled GPU cost.
    assert draw["args"]["backend"] == backend
    assert draw["args"]["fragment_invocations"] > 0
    assert draw["args"]["modeled_seconds"] > 0
    assert _spans(recorder, name=f"compile.{backend}")
    assert _spans(recorder, cat="compile")
    assert _spans(recorder, cat="upload")
    assert _spans(recorder, name="readback.pixels")


def test_in_process_draw_records_one_chunk(clean_recorder, monkeypatch):
    # Workers off on purpose (a CI leg exports REPRO_SHADE_WORKERS
    # globally, which would route this draw through the pool instead).
    monkeypatch.setenv("REPRO_SHADE_WORKERS", "0")
    recorder = trace.start()
    _run_draw("jit", n=64)
    trace.stop(write=False)
    (shade,) = _spans(recorder, name="draw.shade")
    assert shade["args"]["chunks"] == 1
    assert "workers" not in shade["args"]
    assert not _spans(recorder, name="draw.merge")


def test_shade_span_records_storage_decodes(clean_recorder, monkeypatch):
    """The draw.shade span says how many whole texel storages the
    draw's decode tails decoded (sgemm: A and B, once each)."""
    from repro.kernels import make_sgemm_kernel
    from repro.testing import faults

    monkeypatch.setenv("REPRO_SHADE_WORKERS", "0")
    recorder = trace.start()
    device = GpgpuDevice(float_model="videocore", execution_backend="jit")
    a, b, c0 = (device.array(np.linspace(-1, k, 64, dtype=np.float32))
                for k in (1, 2, 3))
    out = device.empty(64, "float32")
    with faults.suppress():
        make_sgemm_kernel(device, "float32", 8)(
            out, {"a": a, "b": b, "c0": c0},
            {"u_n": 8.0, "u_alpha": 1.0, "u_beta": 1.0},
        )
    trace.stop(write=False)
    (shade,) = _spans(recorder, name="draw.shade")
    assert shade["args"]["storage_decodes"] == 2


@pytest.fixture
def quiet_pool():
    """Join any live worker pool before and after the test, so this
    test's differently-sized pool never abandons a healthy executor
    (abandoned executors GC at interpreter exit with harmless but
    noisy weakref tracebacks)."""
    from repro.gles2 import parallel

    def drain():
        if parallel._POOL is not None:
            parallel._POOL.shutdown(wait=True)
            parallel._POOL = None
            parallel._POOL_WORKERS = 0

    drain()
    yield
    drain()


def test_worker_draw_ships_spans_back(clean_recorder, quiet_pool,
                                      monkeypatch, isolated_counters,
                                      pool_floor):
    monkeypatch.setenv("REPRO_SHADE_WORKERS", "2")
    recorder = trace.start()
    device = _run_draw("jit", n=256)
    trace.stop(write=False)
    if (device.ctx.shade_workers == 0
            or isolated_counters.values["pool.draws"] == 0):
        pytest.skip("process pool unavailable in this environment")
    assert _spans(recorder, name="pool.submit")
    assert _spans(recorder, name="pool.chunk")
    worker_spans = _spans(recorder, name="worker.shade")
    assert worker_spans
    assert _spans(recorder, name="worker.materialize")
    leader_pid = recorder.pid
    assert all(e["pid"] != leader_pid for e in worker_spans)
    assert _spans(recorder, name="draw.merge")
    # The draw span records the chunks it actually dispatched.
    (shade,) = _spans(recorder, name="draw.shade")
    assert shade["args"]["chunks"] == len(worker_spans) == 2


def test_graph_replay_emits_replay_span_and_fuse_instant(clean_recorder):
    recorder = trace.start()
    device = GpgpuDevice(float_model="exact", execution_backend="jit")
    a = device.array(np.arange(16, dtype=np.int32))
    out = device.empty(16, "int32")
    kernel = device.kernel(
        "tr_graph", [("a", "int32")], "int32", "result = a * 2.0;"
    )
    with device.record() as graph:
        mid = graph.scratch(16, "int32")
        graph.launch(kernel, mid, {"a": a})
        graph.launch(kernel, graph.keep(out), {"a": mid})
    assert np.array_equal(out.to_host(), np.arange(16) * 4)
    trace.stop(write=False)
    (replay,) = _spans(recorder, name="graph.replay")
    assert replay["args"]["recorded"] == 2
    assert replay["args"]["executed_draws"] == graph.stats.executed_draws
    assert replay["args"]["counters"] == graph.stats.counts
    if graph.stats.fused_draws:
        assert replay["args"]["counters"]["graph.fused_draws"] == 1
        fuses = [e for e in recorder.events if e["name"] == "graph.fuse"]
        assert fuses and fuses[0]["args"]["elided_bytes"] > 0


_QUAD = np.array([-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1],
                 dtype=np.float32)
_QUAD_VS = """
attribute vec2 a_position;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5;
    gl_Position = vec4(a_position, 0.0, 1.0);
}
"""
_QUAD_FS = """
precision mediump float;
varying vec2 v_uv;
void main() { gl_FragColor = vec4(v_uv, 0.4375, 1.0); }
"""


def _quad_context():
    """A context with a linked program and a bound quad, ready for
    ``glDrawArrays(GL_TRIANGLES, 0, 6)``."""
    from repro.gles2 import GLES2Context, enums as gl

    ctx = GLES2Context(width=8, height=8, float_model="exact",
                       shade_workers=0)
    prog = ctx.glCreateProgram()
    for stage, source in ((gl.GL_VERTEX_SHADER, _QUAD_VS),
                          (gl.GL_FRAGMENT_SHADER, _QUAD_FS)):
        shader = ctx.glCreateShader(stage)
        ctx.glShaderSource(shader, source)
        ctx.glCompileShader(shader)
        ctx.glAttachShader(prog, shader)
    ctx.glLinkProgram(prog)
    ctx.glUseProgram(prog)
    loc = ctx.glGetAttribLocation(prog, "a_position")
    ctx.glEnableVertexAttribArray(loc)
    ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, _QUAD)
    ctx.glViewport(0, 0, 8, 8)
    return ctx


def test_draw_span_registry_and_context_stats_agree(
    clean_recorder, monkeypatch, tmp_path, isolated_counters
):
    # One number, three readers: the draw span's counter args, the
    # registry delta around the draw, and the ContextStats delta must
    # agree key for key — on a draw whose JIT loads hit a corrupt entry
    # and undeserialisable payloads, so it compiles its IR programs,
    # and whose publishes run without the store's running total (so
    # each scans the store).
    from repro.core import cache
    from repro.gles2 import enums as gl, shader as shader_mod
    from repro.perf import counters
    from repro.testing import faults

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with faults.suppress():
        # Fresh shader objects, so both stages publish their entries.
        shader_mod.clear_frontend_cache()
        _quad_context().glDrawArrays(gl.GL_TRIANGLES, 0, 6)
        # Valid envelopes around payloads that will not unpickle: the
        # front ends recompile with the new context, the JIT functions
        # in the draw.
        for path in list(cache.iter_entries()):
            kind = cache._unpack(path.read_bytes())[0]["kind"]
            cache.put(path.stem, b"not a pickle", kind)
        shader_mod.clear_frontend_cache()
        ctx = _quad_context()
    recorder = trace.start()
    registry_before = counters.snapshot()
    context_before = dict(ctx.stats.counts)
    with faults.inject_faults(cache_corrupt=(1.0, 1), cache_lock=1.0,
                              seed=41):
        ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
    trace.stop(write=False)
    registry = counters.delta(registry_before)
    context = counters.delta(context_before, ctx.stats.counts)
    (draw,) = _spans(recorder, name="draw")
    assert draw["args"]["counters"] == registry
    assert context == registry
    assert ctx.stats.draws[-1].counts == {
        name: count for name, count in registry.items()
        if counters.SCOPES[name] == counters.DRAW
    }
    for name in ("cache.disk.corrupt", "cache.disk.load_failures",
                 "cache.disk.lock_skips", "compile.ir.uncached",
                 "compile.jit.fresh"):
        assert registry.get(name, 0) > 0, name


def test_cache_traffic_emits_instants(clean_recorder, monkeypatch,
                                      tmp_path, isolated_counters):
    # A private, empty store: the compile must miss, then publish.
    # The deliberate cold compile is invisible to the warm-CI
    # sessionfinish check because the counters are isolated.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    recorder = trace.start()
    device = GpgpuDevice(float_model="exact", execution_backend="jit")
    a = device.array(np.arange(8, dtype=np.int32))
    out = device.empty(8, "int32")
    kernel = device.kernel(
        "tr_cache_probe", [("a", "int32")], "int32", "result = a * 3.0;"
    )
    kernel(out, {"a": a})
    trace.stop(write=False)
    names = {
        e["name"] for e in recorder.events if e.get("cat") == "cache"
    }
    assert "cache.miss" in names
    assert "cache.publish" in names
    assert names <= {
        "cache.hit", "cache.miss", "cache.corrupt", "cache.publish",
    }


def test_device_trace_context_manager(clean_recorder, tmp_path):
    path = tmp_path / "dev.json"
    device = GpgpuDevice(float_model="exact")
    with device.trace(str(path)):
        a = device.array(np.arange(8, dtype=np.int32))
        out = device.empty(8, "int32")
        kernel = device.kernel(
            "tr_dev", [("a", "int32")], "int32", "result = a + 1.0;"
        )
        kernel(out, {"a": a})
    assert trace.active() is None  # session owned + uninstalled it
    doc = json.loads(path.read_text())
    assert any(e["name"] == "draw" for e in doc["traceEvents"])


# ======================================================================
# Export round-trip + CLI
# ======================================================================
def test_export_round_trips_with_monotonic_timestamps(clean_recorder,
                                                      tmp_path):
    path = tmp_path / "trace.json"
    recorder = trace.start(str(path))
    _run_draw("ir")
    trace.stop(write=True)
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert events
    stamps = [e["ts"] for e in events]
    assert stamps == sorted(stamps)
    for event in events:
        assert isinstance(event["name"], str)
        assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["producer"] == "repro.perf.trace"
    assert recorder.dropped == 0


def test_cli_view_and_export(clean_recorder, tmp_path, capsys):
    path = tmp_path / "t.json"
    trace.start(str(path))
    _run_draw("ir")
    trace.stop(write=True)

    assert trace_cli.main(["view", str(path)]) == 0
    out = capsys.readouterr().out
    assert "events" in out and "draw" in out

    assert trace_cli.main(["view", "--json", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["events"] > 0
    assert "draw" in info["categories"]

    exported = tmp_path / "sorted.json"
    assert trace_cli.main(
        ["export", str(path), "-o", str(exported)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(exported.read_text())
    stamps = [e["ts"] for e in doc["traceEvents"]]
    assert stamps == sorted(stamps)


def test_cli_rejects_invalid_traces(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert trace_cli.main(["view", str(missing)]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"ph": "X"}]}')
    assert trace_cli.main(["view", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid trace" in err

    empty = tmp_path / "empty.json"
    empty.write_text('{"traceEvents": []}')
    assert trace_cli.main(["view", str(empty)]) == 1


def test_view_reports_self_time_per_span_name(tmp_path, capsys):
    def span(name, ts, dur, pid=1, tid=1):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                "pid": pid, "tid": tid, "cat": "test"}

    document = {"traceEvents": [
        span("A", 0, 100),
        span("B", 10, 30),
        span("C", 15, 10),
        span("B", 40, 20),  # starts where its sibling ends
        span("A", 200, 10),
        # Overlapping in time, but on another thread / process: never
        # a child of A.
        span("D", 5, 50, tid=2),
        span("B", 20, 5, pid=2),
        {"name": "mark", "ph": "i", "ts": 12, "pid": 1, "tid": 1},
    ]}
    assert trace_cli.self_times(document["traceEvents"]) == {
        "A": {"spans": 2, "self_us": 100 - 30 - 20 + 10},
        "B": {"spans": 3, "self_us": 30 - 10 + 20 + 5},
        "C": {"spans": 1, "self_us": 10},
        "D": {"spans": 1, "self_us": 50},
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(document))
    assert trace_cli.main(["view", "--json", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["self_time"]["A"] == {"spans": 2, "self_us": 60.0}
    assert info["categories"]["test"]["span_us"] == 225.0
    assert trace_cli.main(["view", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    self_lines = [line for line in lines if line.endswith("ms self")]
    # Largest self time first.
    assert [line.split(":")[0].strip() for line in self_lines] == [
        "A", "D", "B", "C",
    ]


# ======================================================================
# Satellite bugfixes
# ======================================================================
def test_elided_transfer_prices_both_legs():
    stats = ContextStats()
    stats.elided_intermediate_bytes = 1 << 20
    timeline = gpu_wall_time(stats, VIDEOCORE_IV_GPU)
    half = stats.elided_intermediate_bytes / 2
    expected = (
        half / VIDEOCORE_IV_GPU.upload_bytes_per_second
        + half / VIDEOCORE_IV_GPU.readback_bytes_per_second
    )
    assert timeline.elided_transfer_seconds == pytest.approx(expected)
    # The readback leg is slower than upload on VideoCore IV, so the
    # old upload-only pricing strictly undercounted the saving.
    assert timeline.elided_transfer_seconds > (
        stats.elided_intermediate_bytes
        / VIDEOCORE_IV_GPU.upload_bytes_per_second
    )


@pytest.mark.parametrize("raw", ["inf", "-inf", "Infinity", "nan"])
def test_float_knob_rejects_non_finite(monkeypatch, raw):
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", raw)
    knobs.reset_warned()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = knobs.float_knob("REPRO_POOL_TIMEOUT", 7.5)
        assert value == 7.5
        assert math.isfinite(value)
        # warn-once: a second read stays silent
        assert knobs.float_knob("REPRO_POOL_TIMEOUT", 7.5) == 7.5
    runtime = [
        w for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    assert len(runtime) == 1
    assert "not finite" in str(runtime[0].message) or "not a number" in str(
        runtime[0].message
    )
