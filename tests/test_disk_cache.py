"""Persistent compile-artifact cache (:mod:`repro.core.cache`).

Covers the disk layer end to end: cold/warm bit-identity across
backends and processes, the two stored kinds (``frontend`` and
``jit``), corrupt-entry robustness, key-composition audit
(codegen-affecting knobs fragment the key, execution-irrelevant knobs
don't), concurrent cold starts on a shared store, the LRU size bound,
the maintenance CLI, and pooled shading against a warm store.

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
    "pool": group("pool."),
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
        # IR programs are never stored or loaded.
        assert warm["ir"]["fresh"] == warm["ir"]["disk"] == 0, backend
        if backend == "jit":
            # A warm JIT draw runs from its JIT entry alone.
            assert warm["ir"]["uncached"] == 0
            assert warm["jit"]["fresh"] == 0
            assert warm["jit"]["disk"] > 0
        else:
            # An IR-executor draw compiles its program in every process.
            assert warm["ir"]["uncached"] > 0
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
    from repro.glsl.interp import _ExactModel, compile_shader

    # A front end names its builtin calls by key; restored from its
    # entry, it compiles to the same IR and JIT source.
    checked = compile_shader(_BUILTIN_SHADER, "fragment")
    blob = store.dump_checked(checked)
    restored = store.load_checked(blob)
    assert store.dump_checked(restored) == blob
    program = ir_mod.compile_ir(checked)
    program_restored = ir_mod.compile_ir(restored)
    assert ir_mod.dump_ir(program_restored) == ir_mod.dump_ir(program)
    fmodel = _ExactModel()
    fn = jit_mod.generate(program, fmodel, set())
    assert jit_mod.generate(program_restored, fmodel, set())._jit_source \
        == fn._jit_source
    # The generated function's builtin implementations ship in its
    # entry by registry key and resolve back to the live registry
    # objects.
    encoded = store.encode_captured(fn._jit_captured)
    assert ("builtin", "sin/0") in encoded.values()
    decoded = store.decode_captured(store._loads(store._dumps(encoded)))
    assert decoded.keys() == fn._jit_captured.keys()
    for name, (kind, __) in encoded.items():
        if kind == "builtin":
            assert decoded[name] is fn._jit_captured[name], name


def test_unknown_builtin_key_is_a_counted_load_failure():
    from repro.core import GpgpuDevice
    from repro.gles2 import shader as shader_mod

    # A stored JIT function calling a builtin whose key has left the
    # registry is a counted load failure: the entry is dropped and the
    # function regenerated.
    x = np.linspace(-1, 1, 16).astype(np.float32)

    def launch():
        shader_mod.clear_frontend_cache()
        dev = GpgpuDevice(execution_backend="jit")
        kernel = dev.kernel("retired_probe", [("x", "float32")], "float32",
                            "result = sin(x);")
        out = dev.empty(16, "float32")
        return kernel(out, {"x": dev.array(x, "float32")}).to_host()

    expected = launch()
    sin, retired = ("builtin", "sin/0"), ("builtin", "nil/0")
    stale = 0
    for path in store.iter_entries():
        header, payload = store._unpack(path.read_bytes())
        if header["kind"] != "jit":
            continue
        entry = store.load_jit_entry(payload)
        if sin in entry["captured"].values():
            captured = {name: retired if code == sin else code
                        for name, code in entry["captured"].items()}
            store.put(path.stem, store._dumps(dict(entry, captured=captured)),
                      "jit")
            stale += 1
    assert stale == 1
    before = counters.snapshot()
    assert np.array_equal(launch(), expected)
    changed = counters.delta(before)
    assert changed["cache.disk.load_failures"] == 1
    assert changed["cache.disk.corrupt"] == 1
    assert changed["compile.jit.fresh"] == 1


# ----------------------------------------------------------------------
# Warm start loads only what a warm run executes
# ----------------------------------------------------------------------
#: Modules only a cold compile (front end, fold rules, IR lowering and
#: passes, JIT code generator) or the oracle uses, and the ``numpy.ma``
#: import ``np.median`` costs.
_COLD_ONLY_MODULES = (
    "repro.glsl.parser", "repro.glsl.preprocessor", "repro.glsl.lexer",
    "repro.glsl.printer", "repro.glsl.ir.lower",
    "repro.glsl.ir.passes", "repro.glsl.ir.foldrules",
    "repro.glsl.jit.codegen", "repro.glsl.jit.uniform",
    "repro.glsl.scalar_ref", "numpy.ma",
)

#: Child harness: launch the kernels of one ``set`` against the store
#: in REPRO_CACHE_DIR and report their output bytes, the DrawStats and
#: IR compiles of each launch, the compile counters and the cold-only
#: modules loaded.
_WARM_CHILD = r"""
import hashlib, json, sys
import repro
import numpy as np
from repro.core import GpgpuDevice
from repro.kernels.elementwise import make_sum_kernel
from repro.kernels.sgemm import make_sgemm_kernel
from repro.perf import counters
from repro.perf.counters import OpCounters

dev = GpgpuDevice(float_model="videocore", shade_workers=0)
x = np.linspace(-2.0, 2.0, 64, dtype=np.float32)
y = np.linspace(0.0, 3.0, 64, dtype=np.float32)
launches = []
if sys.argv[1] == "paper":
    k = make_sum_kernel(dev, "float32")
    launches.append((k, {"a": dev.array(x), "b": dev.array(y)}, {}))
    k = make_sgemm_kernel(dev, "float32", 8)
    launches.append((k, {"a": dev.array(x), "b": dev.array(y),
                         "c0": dev.array(x)},
                     {"u_n": 8.0, "u_alpha": 1.0, "u_beta": 0.5}))
else:
    # Outside the JIT subset (a struct): the draw runs on the IR
    # executor.
    k = dev.kernel("structs", [("x", "float32")], "float32",
                   "Pair p = Pair(x, u_a); result = p.a * p.b;",
                   uniforms=[("u_a", "float")],
                   preamble="struct Pair { float a; float b; };")
    launches.append((k, {"x": dev.array(x)}, {"u_a": 0.75}))
    # An initialiser that reads a uniform does not fold to a constant.
    k = dev.kernel("scaled", [("x", "float32")], "float32",
                   "result = x * g_scale;", uniforms=[("u_a", "float")],
                   preamble="float g_scale = u_a * 2.0;")
    launches.append((k, {"x": dev.array(x)}, {"u_a": 0.75}))
runs = []
for kernel, inputs, uniforms in launches:
    before = counters.snapshot()
    res = kernel(dev.empty(64, "float32"), inputs, uniforms).to_host()
    draw = dev.ctx.stats.draws[-1]
    runs.append({
        "digest": hashlib.sha256(res.tobytes()).hexdigest(),
        "draw": {name: value.snapshot() if isinstance(value, OpCounters)
                 else value for name, value in vars(draw).items()},
        "ir_compiles": counters.delta(before).get("compile.ir.uncached", 0),
    })
print(json.dumps({
    "runs": runs,
    "compile": {name: count for name, count in counters.values.items()
                if name.startswith("compile.")},
    "loaded": sorted(name for name in sys.argv[2].split(",")
                     if name in sys.modules),
}))
"""


def _run_warm_child(cache_dir, kernel_set):
    env = dict(os.environ, PYTHONPATH=SRC_DIR, REPRO_CACHE_DIR=str(cache_dir))
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_CHILD, kernel_set,
         ",".join(_COLD_ONLY_MODULES)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_warm_jit_draws_load_no_ir_and_no_compile_only_module(tmp_path):
    cold = _run_warm_child(tmp_path / "store", "paper")
    assert cold["compile"]["compile.jit.fresh"] > 0
    assert "repro.glsl.parser" in cold["loaded"]
    warm = _run_warm_child(tmp_path / "store", "paper")
    assert warm["loaded"] == []
    assert warm["compile"]["compile.ir.uncached"] == 0
    assert warm["compile"]["compile.jit.disk"] > 0
    assert warm["compile"]["compile.jit.fresh"] == 0
    assert [(run["digest"], run["draw"]) for run in warm["runs"]] == \
        [(run["digest"], run["draw"]) for run in cold["runs"]]


def _entry_kinds():
    return {store._unpack(path.read_bytes())[0]["kind"]
            for path in store.iter_entries()}


def test_warm_fallback_and_unfolded_init_compile_their_ir_lazily():
    # A cold run on an empty store publishes front ends and JIT
    # functions only, for kernels the JIT runs and for those it
    # cannot (the struct kernel).
    shared = os.environ["REPRO_CACHE_DIR"]
    cold = _run_warm_child(shared, "fallbacks")
    assert _entry_kinds() == {"frontend", "jit"}
    warm = _run_warm_child(shared, "fallbacks")
    assert [run["digest"] for run in warm["runs"]] == \
        [run["digest"] for run in cold["runs"]]
    assert [run["draw"] for run in warm["runs"]] == \
        [run["draw"] for run in cold["runs"]]
    # Each kernel compiles its fragment program once, counted; the
    # rest of the launch binds from the JIT entry.
    assert [run["ir_compiles"] for run in warm["runs"]] == [1, 1]
    assert not any(count for name, count in warm["compile"].items()
                   if name.endswith(".fresh"))


def test_v6_jit_entries_are_never_addressed(monkeypatch):
    from repro.core import GpgpuDevice
    from repro.gles2 import shader as shader_mod

    x = np.linspace(-1, 1, 16).astype(np.float32)

    def run_fresh_process_view():
        monkeypatch.setattr(shader_mod, "_FRONTEND_CACHE", {})
        dev = GpgpuDevice(execution_backend="jit")
        kernel = dev.kernel("schema_probe", [("x", "float32")], "float32",
                            "result = x * 3.0 - 1.0;")
        out = dev.empty(16, "float32")
        return kernel(out, {"x": dev.array(x, "float32")}).to_host()

    monkeypatch.setattr(store, "SCHEMA_VERSION", 6)
    expected = run_fresh_process_view()
    v6_keys = {path.stem for path in store.iter_entries()}
    monkeypatch.setattr(store, "SCHEMA_VERSION", 7)
    before = counters.snapshot()
    assert np.array_equal(run_fresh_process_view(), expected)
    changed = counters.delta(before)
    assert changed.get("compile.jit.fresh", 0) > 0
    assert "compile.jit.disk" not in changed
    assert not v6_keys & {path.stem for path in store.iter_entries()}
    # A v6-shaped payload (no bindings or cost) under a v7 key is a
    # miss, never a kernel.
    for path in store.iter_entries():
        header, payload = store._unpack(path.read_bytes())
        if header["kind"] != "jit":
            continue
        entry = store.load_jit_entry(payload)
        assert entry is not None and "bindings" in entry
        old = {name: entry[name] for name in ("source", "captured", "code")}
        assert store.load_jit_entry(store._dumps(old)) is None


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
        stage="fragment", model="exact:<f8",
        wide=frozenset({"x"}), fusion="",
    )
    key = store.artifact_key("jit", "cafe", **base)
    assert key == store.artifact_key("jit", "cafe", **base)  # stable
    variants = [
        ("kind", store.artifact_key("frontend", "cafe", **base)),
        ("digest", store.artifact_key("jit", "beef", **base)),
        ("stage", store.artifact_key(
            "jit", "cafe", **{**base, "stage": "vertex"})),
        ("model", store.artifact_key(
            "jit", "cafe", **{**base, "model": "ieee32:<f4"})),
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


def test_in_memory_jit_key_covers_wide():
    from repro.gles2 import enums, shader as shader_mod
    from repro.glsl.interp import _ExactModel

    obj = shader_mod.Shader(1, enums.GL_FRAGMENT_SHADER)
    obj.source = """
    precision mediump float;
    uniform float u_a;
    void main() { gl_FragColor = vec4(u_a, 0.0, 0.0, 1.0); }
    """
    obj.compile()
    assert obj.compiled, obj.info_log
    fmodel = _ExactModel()
    checked = obj.checked
    kernels = {
        jit_mod.get_compiled(checked, fmodel, frozenset()),
        jit_mod.get_compiled(checked, fmodel, frozenset({"u_a"})),
    }
    assert jit_mod.get_compiled(checked, fmodel, frozenset()) in kernels
    kernels.discard(None)
    assert len(kernels) == 2  # the wide set fragments
    assert len(checked._jit_cache) == 2


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
    assert repooled["jit"]["fresh"] == 0


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
    key_plain = store.artifact_key("jit", "d1g3st", stage="fragment")
    key_fused = store.artifact_key(
        "jit", "d1g3st", stage="fragment", fusion=next(iter(signatures))
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
    assert store._entry_path(keys[-1]).is_file()
    assert not store._entry_path(keys[0]).is_file()


# ----------------------------------------------------------------------
# Running byte total: a publish scans the store only when it must
# ----------------------------------------------------------------------
def _count_scans(monkeypatch):
    calls = []
    scan = store._scan

    def counting(root):
        calls.append(root)
        return scan(root)

    monkeypatch.setattr(store, "_scan", counting)
    return calls


def _usage_file():
    return store.cache_dir() / f"v{store.SCHEMA_VERSION}" / store._USAGE_FILE


def test_publishes_scan_a_fresh_store_once(monkeypatch):
    scans = _count_scans(monkeypatch)
    for i in range(200):
        assert store.put(
            store.artifact_key("jit", f"entry{i:03d}"), b"x" * 512, "jit"
        )
    assert len(scans) == 1
    assert store.tracked_bytes() == store.usage()[1]
    # Republishing a key replaces its bytes rather than adding to them.
    assert store.put(store.artifact_key("jit", "entry000"), b"y" * 64, "jit")
    assert len(scans) == 1
    assert store.tracked_bytes() == store.usage()[1]


@pytest.mark.parametrize("damage", ["missing", "garbled", "torn"])
def test_unknown_total_rescans_once_and_repairs(monkeypatch, damage):
    for i in range(5):
        store.put(store.artifact_key("jit", f"seed{i}"), b"x" * 300, "jit")
    usage = _usage_file()
    if damage == "missing":
        usage.unlink()
    elif damage == "garbled":
        usage.write_bytes(b"not a number\n")
    else:  # a shorter total written over a longer one, untruncated
        usage.write_bytes(b"123\n456\n")
    assert store.tracked_bytes() is None
    scans = _count_scans(monkeypatch)
    for i in range(5):
        store.put(store.artifact_key("jit", f"more{i}"), b"x" * 300, "jit")
    assert len(scans) == 1
    assert store.tracked_bytes() == store.usage()[1]


def test_trims_reset_the_total_to_the_trimmed_store(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
    scans = _count_scans(monkeypatch)
    for i in range(64):
        key = store.artifact_key("jit", f"entry{i:03d}", stage="fragment")
        assert store.put(key, b"x" * 256, "jit")
        os.utime(store._entry_path(key), (1_000_000 + i, 1_000_000 + i))
        tracked = store.tracked_bytes()
        assert tracked == store.usage()[1]
        assert tracked <= 4096
    evictions = counters.values["cache.disk.evictions"]
    assert evictions > 0
    # One scan for the fresh store, then one per overflow: a trim to
    # 80 % of the bound leaves room for two more ~400-byte entries, so
    # at most every third publish scans.
    assert len(scans) <= 1 + 64 // 3


def test_publish_creates_a_shard_directory_only_once(monkeypatch):
    import pathlib

    # An existing store root, so the shard's mkdir does not recurse.
    (store.cache_dir() / f"v{store.SCHEMA_VERSION}").mkdir(parents=True)
    made = []
    mkdir = pathlib.Path.mkdir

    def counting(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "mkdir", counting)
    keys = [f"ab{i:062d}" for i in range(3)]
    for key in keys:
        assert store.put(key, b"payload", "jit")
    assert made == [store._entry_path(keys[0]).parent]


def test_clear_resets_the_total():
    for i in range(3):
        store.put(store.artifact_key("jit", f"entry{i}"), b"x" * 100, "jit")
    assert store.tracked_bytes() > 0
    assert store.clear() == 3
    assert store.tracked_bytes() == 0 == store.usage()[1]


def test_concurrent_writers_keep_the_total_exact(monkeypatch, tmp_path):
    import threading

    shared = tmp_path / "shared"
    results = []
    threads = [
        threading.Thread(target=lambda backend=backend: results.append(
            _run_child(shared, backend=backend)
        ))
        for backend in ("jit", "ir")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)
        assert not thread.is_alive()
    assert len(results) == 2
    assert len({result["digest"] for result in results}) == 1
    monkeypatch.setenv("REPRO_CACHE_DIR", str(shared))
    assert store.tracked_bytes() == store.usage()[1] > 0
    assert store.verify()["dropped"] == 0


_PUBLISHER = r"""
import sys
from repro.core import cache as store
me = sys.argv[1]
for i in range(120):
    # Every other key is shared with the other writers: racing
    # republishes of one entry as well as distinct ones.
    source = f"shared{i}" if i % 2 else f"{me}-{i}"
    assert store.put(store.artifact_key("jit", source), b"x" * (200 + i), "test")
"""


@pytest.mark.parametrize("bound", [None, 16384])
def test_racing_publishers_lose_no_update(monkeypatch, bound):
    # Three writers (more than a 2-core runner has cores), each
    # publishing while the others rename, account and (under the small
    # bound) trim.
    if bound is not None:
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(bound))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _PUBLISHER, f"writer{n}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        for n in range(3)
    ]
    for proc in procs:
        __, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    entries, scanned = store.usage()
    assert store.tracked_bytes() == scanned
    if bound is None:
        assert entries == 3 * 60 + 60
    else:
        assert scanned <= bound
        assert entries < 3 * 60 + 60  # the writers trimmed
    assert store.verify()["dropped"] == 0


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
    assert set(info["kinds"]) == {"frontend", "jit"}
    assert info["cache_dir"] == str(shared)
    assert info["tracked_bytes"] == info["bytes"]

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
    proc = cli("stats", "--json")
    assert json.loads(proc.stdout)["tracked_bytes"] == 0


# ----------------------------------------------------------------------
# Multiprocess shading against a shared store
# ----------------------------------------------------------------------
def test_pooled_cold_and_warm_runs_agree(tmp_path):
    result = _run_child(tmp_path / "w", backend="jit", floor=2, workers=2)
    # Workers rebuild each function from the entry bytes the leader
    # ships, so a warm leader (functions loaded from the store) and a
    # cold one (functions generated fresh) shade the same pixels.
    warm = _run_child(tmp_path / "w", backend="jit", floor=2, workers=2)
    if result["pool"]["draws"] == 0:
        pytest.skip("process pool unavailable on this platform")
    assert warm["pool"]["draws"] == result["pool"]["draws"]
    assert warm["jit"]["fresh"] == 0
    assert warm["digest"] == result["digest"]
