"""Persistent compile-artifact cache (:mod:`repro.core.cache`).

Covers the disk layer end to end: cold/warm bit-identity across
backends and processes, corrupt-entry robustness, key-composition
audit (codegen-affecting knobs fragment the key, execution-irrelevant
knobs don't), concurrent cold starts on a shared store, the LRU size
bound, the maintenance CLI, and the multiprocess shading workers'
load-by-reference path.

Every test that compiles points REPRO_CACHE_DIR at a private tmp dir,
and every test runs under the ``isolated_counters`` fixture — so the
deliberate cold compiles here never trip the warm-CI
``REPRO_CACHE_EXPECT_WARM`` assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import cache as store
from repro.glsl import ir as ir_mod
from repro.glsl import jit as jit_mod
from repro.perf import counters
from repro.testing import faults

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(autouse=True)
def _counter_guard(monkeypatch, tmp_path, isolated_counters):
    """Private cache dir and isolated counters per test.  Fault
    injection is masked:
    these tests pin exact healthy-path hit/miss accounting, which a
    fault-injected CI run (REPRO_FAULTS=cache_corrupt:...) would
    legitimately perturb."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    with faults.suppress():
        yield


# ----------------------------------------------------------------------
# Child process harness: compile + run one kernel, report a digest of
# the exact output bytes plus the compile-path counters.
# ----------------------------------------------------------------------
_CHILD = r"""
import hashlib, json, os, sys
import numpy as np
from repro.core import GpgpuDevice
from repro.core import cache as store
from repro.gles2 import pipeline
from repro.perf import counters

backend = sys.argv[1]
if len(sys.argv) > 2 and sys.argv[2] != "-":
    pipeline.POOL_MIN_FRAGMENTS = int(sys.argv[2])
workers = int(sys.argv[3]) if len(sys.argv) > 3 else 0

dev = GpgpuDevice(execution_backend=backend, shade_workers=workers)
k = dev.kernel(
    name="probe",
    inputs=[("x", "float32"), ("y", "float32")],
    output="float32",
    body="result = a * x + sin(y);",
    uniforms=[("a", "float")],
)
x = np.linspace(-2.0, 2.0, 64, dtype=np.float32)
y = np.linspace(0.0, 3.0, 64, dtype=np.float32)
out = dev.empty(64, "float32")
res = k(
    out,
    inputs={"x": dev.array(x, "float32"), "y": dev.array(y, "float32")},
    uniforms={"a": 0.5},
).to_host()
if workers:
    from repro.gles2 import parallel
    parallel.shutdown_pool()
def group(prefix):
    return {name[len(prefix):]: count
            for name, count in counters.values.items()
            if name.startswith(prefix)}
print(json.dumps({
    "digest": hashlib.sha256(res.tobytes()).hexdigest(),
    "ir": group("compile.ir."),
    "jit": group("compile.jit."),
    "disk": group("cache.disk."),
    "entries": sorted(p.name for p in store.iter_entries()),
}))
"""


def _run_child(cache_dir, backend="jit", floor="-", workers=0,
               env_extra=None):
    """Run the child harness; ``floor`` sets the pool floor
    (``pipeline.POOL_MIN_FRAGMENTS``; "-" keeps the default)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, backend, str(floor), str(workers)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ----------------------------------------------------------------------
# Cold/warm bit-identity across processes and backends
# ----------------------------------------------------------------------
def test_warm_start_is_bit_identical_across_backends(tmp_path):
    shared = tmp_path / "shared"
    digests = set()
    for backend in ("ir", "jit"):
        cold = _run_child(shared, backend=backend)
        warm = _run_child(shared, backend=backend)
        digests.add(cold["digest"])
        digests.add(warm["digest"])
        assert warm["disk"]["hits"] > 0, backend
        # Second process must compile nothing fresh.
        assert warm["ir"]["fresh"] == 0, backend
        assert warm["ir"]["disk"] > 0, backend
        if backend == "jit":
            assert warm["jit"]["fresh"] == 0
            assert warm["jit"]["disk"] > 0
    # One output for every backend, cold or warm.
    assert len(digests) == 1


def test_cache_disabled_writes_nothing(tmp_path):
    shared = tmp_path / "off"
    result = _run_child(shared, env_extra={"REPRO_CACHE": "0"})
    assert result["entries"] == []
    assert result["disk"] == {
        "hits": 0, "misses": 0, "evictions": 0, "corrupt": 0,
        "write_failures": 0, "orphans_removed": 0, "load_failures": 0,
        "lock_skips": 0,
    }
    assert result["ir"]["uncached"] > 0
    assert result["ir"]["fresh"] == 0


# ----------------------------------------------------------------------
# Corrupt-entry robustness
# ----------------------------------------------------------------------
def _mangle(path, mode):
    blob = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(blob[: len(blob) // 2])
    elif mode == "garbage":
        path.write_bytes(b"\x00garbage" + os.urandom(32))
    elif mode == "schema":
        magic, rest = blob.split(b"\n", 1)
        header, payload = rest.split(b"\n", 1)
        poked = json.loads(header)
        poked["schema"] = store.SCHEMA_VERSION + 999
        path.write_bytes(
            magic + b"\n" + json.dumps(poked).encode() + b"\n" + payload
        )
    else:
        raise AssertionError(mode)


def test_corrupt_entries_miss_and_are_rewritten():
    # Children share the fixture's cache dir so the parent-side store
    # helpers (iter_entries/verify) see the same files.
    shared = os.environ["REPRO_CACHE_DIR"]
    cold = _run_child(shared)
    entries = sorted(store.iter_entries())
    assert entries  # sanity: the probe kernel persisted artifacts
    modes = ["truncate", "garbage", "schema"]
    for i, path in enumerate(entries):
        _mangle(path, modes[i % len(modes)])
    recovered = _run_child(shared)
    assert recovered["digest"] == cold["digest"]
    assert recovered["disk"]["corrupt"] >= len(entries)
    assert recovered["disk"]["hits"] == 0
    # Every mangled entry was silently replaced by a fresh, valid one.
    report = store.verify()
    assert report["dropped"] == 0
    assert report["kept"] == len(cold["entries"])


def test_unit_level_corruption_is_a_counted_miss():
    key = store.artifact_key("jit", "deadbeef", stage="fragment")
    assert store.put(key, b"payload", "jit")
    assert store.get(key) == b"payload"
    path = store._entry_path(key)
    for mode in ("truncate", "garbage", "schema"):
        assert store.put(key, b"payload", "jit")
        _mangle(path, mode)
        before = counters.snapshot()
        assert store.get(key) is None, mode
        changed = counters.delta(before)
        assert changed["cache.disk.corrupt"] == 1, mode
        assert changed["cache.disk.misses"] == 1, mode
        assert not path.exists(), mode  # dropped, next put rewrites


# ----------------------------------------------------------------------
# Artifact (de)serialisation
# ----------------------------------------------------------------------
_BUILTIN_SHADER = """
precision mediump float;
varying vec2 v_uv;
void main() {
    float s = sin(v_uv.x) + mod(v_uv.y, 0.25);
    gl_FragColor = vec4(clamp(s, 0.0, 1.0), floor(v_uv.y * 4.0), 0.0, 1.0);
}
"""


def test_builtin_overloads_round_trip_by_registry_identity():
    from repro.glsl.builtins import OVERLOADS_BY_KEY
    from repro.glsl.interp import _ExactModel, compile_shader

    keys = sorted(OVERLOADS_BY_KEY)[:5]
    shipped = [OVERLOADS_BY_KEY[k] for k in keys]
    loaded = store._loads(store._dumps({"overloads": shipped * 2}))
    # Resolved back to the live registry objects (impls included),
    # memoised so repeats stay one object.
    assert all(a is b for a, b in zip(loaded["overloads"], shipped * 2))

    checked = compile_shader(_BUILTIN_SHADER, "fragment")
    blob = store.dump_checked(checked)
    assert store.dump_checked(store.load_checked(blob)) == blob
    program = ir_mod.compile_ir(checked)
    restored = store.load_program(store.dump_program(program), checked)
    assert ir_mod.dump_ir(restored) == ir_mod.dump_ir(program)
    assert restored.checked is checked and restored.linear is None
    fmodel = _ExactModel()
    assert jit_mod.codegen.generate(restored, fmodel, set())._jit_source \
        == jit_mod.codegen.generate(program, fmodel, set())._jit_source


def test_unknown_builtin_key_is_a_counted_load_failure():
    import dataclasses

    from repro.glsl.builtins import OVERLOADS_BY_KEY
    from repro.glsl.interp import compile_shader

    retired = dataclasses.replace(
        next(iter(OVERLOADS_BY_KEY.values())), key="retired/0"
    )
    before = counters.values["cache.disk.load_failures"]
    assert store.load_checked(store._dumps(retired)) is None
    assert store.load_program(store._dumps([retired]), None) is None
    assert store.load_jit_entry(store._dumps({"o": retired})) is None
    assert counters.values["cache.disk.load_failures"] == before + 3

    # A stored IR program calling a builtin whose key has left the
    # registry degrades the same way.
    checked = compile_shader(_BUILTIN_SHADER, "fragment")
    blob = store.dump_program(ir_mod.compile_ir(checked))
    stale = blob.replace(b"sin/0", b"nil/0")
    assert stale != blob
    assert store.load_program(stale, checked) is None
    assert counters.values["cache.disk.load_failures"] == before + 4


def test_warm_jit_execs_the_stored_code_object(monkeypatch):
    from repro.core import GpgpuDevice
    from repro.gles2 import shader as shader_mod

    x = np.linspace(-1, 1, 16).astype(np.float32)

    def run_cold_process_view():
        # A fresh in-memory front-end cache: every artifact comes from
        # the store, as in a new process.
        monkeypatch.setattr(shader_mod, "_FRONTEND_CACHE", {})
        dev = GpgpuDevice(execution_backend="jit")
        kernel = dev.kernel("marshal_probe", [("x", "float32")], "float32",
                            "result = x * 2.0 + 1.0;")
        out = dev.empty(16, "float32")
        return kernel(out, {"x": dev.array(x, "float32")}).to_host()

    expected = run_cold_process_view()
    jit_keys = [
        path.stem for path in store.iter_entries()
        if store._unpack(path.read_bytes())[0]["kind"] == "jit"
    ]
    assert jit_keys

    # Warm: the stored code object is executed; nothing is compiled.
    def no_compile(*args, **kwargs):
        raise AssertionError("warm JIT load recompiled its source")

    monkeypatch.setattr(jit_mod, "compile", no_compile, raising=False)
    before = counters.snapshot()
    assert np.array_equal(run_cold_process_view(), expected)
    changed = counters.delta(before)
    assert changed.get("compile.jit.disk") == len(jit_keys)
    assert "compile.jit.fresh" not in changed
    monkeypatch.delattr(jit_mod, "compile")

    # A code blob that no longer loads is a counted failure: the entry
    # is invalidated and regenerated, and the draw is unaffected.
    for key in jit_keys:
        entry = store.load_jit_entry(store.get(key))
        store.put(key, store._dumps(dict(entry, code=b"\x00junk")), "jit")
    before = counters.snapshot()
    assert np.array_equal(run_cold_process_view(), expected)
    changed = counters.delta(before)
    assert changed.get("cache.disk.load_failures") == len(jit_keys)
    assert changed.get("cache.disk.corrupt") == len(jit_keys)
    assert changed.get("compile.jit.fresh") == len(jit_keys)
    for key in jit_keys:
        assert store.load_jit_entry(store.get(key))["code"] != b"\x00junk"


# ----------------------------------------------------------------------
# Key-composition audit
# ----------------------------------------------------------------------
def test_every_codegen_knob_fragments_the_key():
    base = dict(
        stage="fragment", model="exact:<f8", gather=True,
        wide=frozenset({"x"}), fusion="",
    )
    key = store.artifact_key("jit", "cafe", **base)
    assert key == store.artifact_key("jit", "cafe", **base)  # stable
    variants = [
        ("kind", store.artifact_key("ir", "cafe", **base)),
        ("digest", store.artifact_key("jit", "beef", **base)),
        ("stage", store.artifact_key(
            "jit", "cafe", **{**base, "stage": "vertex"})),
        ("model", store.artifact_key(
            "jit", "cafe", **{**base, "model": "ieee32:<f4"})),
        ("gather", store.artifact_key(
            "jit", "cafe", **{**base, "gather": False})),
        ("wide", store.artifact_key(
            "jit", "cafe", **{**base, "wide": frozenset({"x", "y"})})),
        ("fusion", store.artifact_key(
            "jit", "cafe", **{**base, "fusion": "abc123"})),
    ]
    seen = {key}
    for knob, variant in variants:
        assert variant not in seen, f"{knob} does not fragment the key"
        seen.add(variant)
    # Wide-set key is order-independent (sets have no order to encode).
    assert store.artifact_key(
        "jit", "cafe", **{**base, "wide": frozenset({"b", "a"})}
    ) == store.artifact_key(
        "jit", "cafe", **{**base, "wide": frozenset({"a", "b"})}
    )


def test_in_memory_jit_key_covers_gather_and_wide():
    from repro.gles2 import enums, shader as shader_mod
    from repro.glsl.interp import _ExactModel
    from repro.glsl.jit import _jit_function, texture_gather

    obj = shader_mod.Shader(1, enums.GL_FRAGMENT_SHADER)
    obj.source = """
    precision mediump float;
    uniform float u_a;
    void main() { gl_FragColor = vec4(u_a, 0.0, 0.0, 1.0); }
    """
    obj.compile()
    assert obj.compiled, obj.info_log
    fmodel = _ExactModel()
    program = ir_mod.get_compiled(obj.checked, fmodel)
    fns = {
        _jit_function(program, fmodel, frozenset()),
        _jit_function(program, fmodel, frozenset({"u_a"})),
    }
    with texture_gather(not jit_mod.gather_enabled()):
        fns.add(_jit_function(program, fmodel, frozenset()))
    fns.discard(None)
    assert len(fns) == 3  # gather flag and wide set each fragment
    assert len(program._jit_cache) == 3


def test_execution_knobs_do_not_fragment_the_key(tmp_path):
    """shade_workers and the pool floor change scheduling, not code:
    every configuration must address the exact same artifact set."""
    plain = _run_child(tmp_path / "a", workers=0)
    pooled = _run_child(tmp_path / "b", floor=2, workers=2)
    assert plain["entries"] == pooled["entries"]
    assert pooled["digest"] == plain["digest"]
    # And re-running with another worker count against the first dir
    # is a pure warm start — nothing new written.
    repooled = _run_child(tmp_path / "a", floor=2, workers=3)
    assert repooled["entries"] == plain["entries"]
    assert repooled["ir"]["fresh"] == 0 and repooled["jit"]["fresh"] == 0


def test_fused_chains_key_on_the_fusion_signature():
    """Launch-graph fusion stamps a content signature into the fused
    source (``// gpgpu-fusion:``), the front end lifts it onto the
    CheckedShader, and recomposing the same chain is memoised."""
    from repro.core import GpgpuDevice
    from repro.core.codegen import fuse
    from repro.gles2 import shader as shader_mod

    dev = GpgpuDevice(execution_backend="jit", graph_mode=True)
    shift = dev.kernel(
        "sig_shift", [("a", "float32")], "float32",
        "result = a + u_s;", uniforms=[("u_s", "float")],
    )
    scale = dev.kernel(
        "sig_scale", [("a", "float32")], "float32",
        "result = u_k * a;", uniforms=[("u_k", "float")],
    )
    src = dev.array(np.linspace(-1, 1, 32).astype(np.float32), "float32")
    memo_before = len(fuse._RECIPE_MEMO)

    def replay():
        with dev.record() as graph:
            a = graph.scratch(32, "float32")
            graph.launch(shift, a, {"a": src}, {"u_s": 0.25})
            b = graph.scratch(32, "float32")
            graph.launch(scale, b, {"a": a}, {"u_k": 2.0})
            graph.keep(b)
        assert graph.stats.fused_draws == 1
        return b

    replay()
    out = replay().to_host()
    assert out.shape == (32,)
    # One recipe composition for two replays of the same chain.
    assert len(fuse._RECIPE_MEMO) == memo_before + 1
    signatures = {
        checked.fusion_signature
        for checked in shader_mod._FRONTEND_CACHE.values()
        if getattr(checked, "fusion_signature", "")
    }
    assert signatures  # the fused program carries its chain signature
    # The signature reaches the artifact key, so a fused fragment
    # shader and an identically-sourced unfused one can never collide.
    key_plain = store.artifact_key("ir", "d1g3st", stage="fragment")
    key_fused = store.artifact_key(
        "ir", "d1g3st", stage="fragment", fusion=next(iter(signatures))
    )
    assert key_plain != key_fused


# ----------------------------------------------------------------------
# Concurrent cold start on a shared store
# ----------------------------------------------------------------------
def test_concurrent_cold_start_is_race_free():
    shared = os.environ["REPRO_CACHE_DIR"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["REPRO_CACHE_DIR"] = str(shared)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, "jit", "-", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        for _ in range(2)
    ]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        results.append(json.loads(out))
    assert results[0]["digest"] == results[1]["digest"]
    assert results[0]["entries"]
    # No torn or half-written entries: every file on disk validates.
    report = store.verify()
    assert report["dropped"] == 0
    assert report["kept"] >= len(results[0]["entries"])
    # No stray tmp files leaked by the atomic-publish protocol.
    import pathlib

    strays = list(
        (pathlib.Path(shared) / f"v{store.SCHEMA_VERSION}").rglob(".tmp-*")
    )
    assert strays == []


# ----------------------------------------------------------------------
# LRU size bound
# ----------------------------------------------------------------------
def test_lru_eviction_trims_oldest(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
    payload = b"x" * 256
    keys = [
        store.artifact_key("jit", f"entry{i:03d}", stage="fragment")
        for i in range(32)
    ]
    for i, key in enumerate(keys):
        assert store.put(key, payload, "jit")
        # Distinct mtimes so the LRU order is well defined.
        os.utime(store._entry_path(key), (1_000_000 + i, 1_000_000 + i))
    __, total = store.usage()
    assert total <= 4096
    assert counters.values["cache.disk.evictions"] > 0
    # The newest entry survived; the oldest was evicted.
    assert store.contains(keys[-1])
    assert not store.contains(keys[0])


# ----------------------------------------------------------------------
# Maintenance CLI
# ----------------------------------------------------------------------
def test_cache_cli_stats_verify_clear():
    shared = os.environ["REPRO_CACHE_DIR"]
    _run_child(shared)

    def cli(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env["REPRO_CACHE_DIR"] = str(shared)
        return subprocess.run(
            [sys.executable, "-m", "repro.cache", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    proc = cli("stats", "--json")
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert info["entries"] > 0
    assert info["bytes"] > 0
    assert set(info["kinds"]) <= {"frontend", "ir", "jit"}
    assert info["cache_dir"] == str(shared)

    proc = cli("verify", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "kept": info["entries"], "dropped": 0,
    }

    # Corrupt one entry: verify reports + drops it, and exits non-zero.
    victim = next(iter(store.iter_entries()))
    _mangle(victim, "garbage")
    proc = cli("verify", "--json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {
        "kept": info["entries"] - 1, "dropped": 1,
    }

    proc = cli("clear", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"removed": info["entries"] - 1}
    assert list(store.iter_entries()) == []


# ----------------------------------------------------------------------
# Multiprocess shading workers load artifacts by reference
# ----------------------------------------------------------------------
def test_workers_load_jit_artifacts_from_disk(tmp_path):
    result = _run_child(tmp_path / "w", backend="jit", floor=2, workers=2)
    # The leader publishes the generated function before shipping the
    # plan, so even a cold run ships the cache key, not the source, and
    # each worker materialises from the shared store.
    warm = _run_child(tmp_path / "w", backend="jit", floor=2, workers=2)
    assert warm["digest"] == result["digest"]


def test_worker_disk_load_counters(monkeypatch, tmp_path, pool_floor):
    from repro.gles2 import parallel

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "wcache"))
    try:
        from repro.core import GpgpuDevice

        dev = GpgpuDevice(execution_backend="jit", shade_workers=2)
        k = dev.kernel(
            name="wprobe",
            inputs=[("x", "float32")],
            output="float32",
            body="result = 2.0 * x;",
        )
        x = np.linspace(0.0, 1.0, 256, dtype=np.float32)
        out = dev.empty(256, "float32")
        res = k(out, inputs={"x": dev.array(x, "float32")}).to_host()
        assert res.shape == (256,)
        if counters.values["pool.draws"]:
            # The plan went out by cache reference and every worker
            # rebuilt the function from the shared store — the pickle
            # stream carried no generated source.
            assert counters.values["pool.plan_cache_refs"] >= 1
            assert counters.values["pool.worker_disk_loads"] >= 1
    finally:
        parallel.shutdown_pool()
