"""Wall-clock smoke benchmark: linear IR executor vs NumPy JIT.

Times repeated kernel launches (the steady state the program cache is
for) of the paper workloads that bracket the shader-complexity range —
the int32 ``sum`` elementwise kernel and the loop-heavy ``sgemm`` at
two sizes — under both execution backends, and records the results in
``BENCH_glsl_exec.json`` at the repository root.

The sum microbenchmark runs in the dispatch-bound regime (small batch,
many launches), which is where per-instruction dispatch overhead — the
thing the JIT removes — dominates; at very large batches both backends
converge on the same numpy bulk work.  The script also
demonstrates the two cache layers: a second ``device.kernel()``
request for the same source is served from the kernel cache (no
recompile, no relink), and repeated launches never re-lower the shader
(the compiled program, and the JIT's generated function, are cached on
the CheckedShader).

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--out BENCH_glsl_exec.json] [--baseline [ROW=]REV] [--only ROW]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.api.device import GpgpuDevice
from repro.kernels.elementwise import make_sum_kernel
from repro.kernels.sgemm import make_sgemm_kernel

BACKENDS = ("ir", "jit")
SUM_N = 512  # dispatch-bound: launch overhead, not numpy bulk work
SGEMM_N = 8  # 8x8 matrices, 8-iteration dot-product loop per fragment
SGEMM_N_LARGE = 16  # 16x16: more per-fragment loop work, same dispatch
SGEMM_N_XL = 128  # 16384 fragments: the multiprocess-shading regime
SHADE_WORKERS = 2
REPS = 50
WARMUP = 5
XL_REPS = 7
XL_WARMUP = 2


def _time_interleaved(launches, reps=REPS, warmup=WARMUP):
    """Time several launch thunks with interleaved sampling.

    Alternating between the backends on every reptition means clock
    drift (CPU frequency ramp-up, background load) hits all of them
    equally instead of biasing whichever ran first.
    """
    for _ in range(warmup):
        for launch in launches.values():
            launch()
    samples = {name: [] for name in launches}
    for _ in range(reps):
        for name, launch in launches.items():
            t0 = time.perf_counter()
            launch()
            samples[name].append(time.perf_counter() - t0)
    return {
        name: {
            "median_ms": statistics.median(ts) * 1e3,
            "min_ms": min(ts) * 1e3,
            "reps": reps,
        }
        for name, ts in samples.items()
    }


def _cache_stats(stats, backend, dev, request_again, launch):
    """Cache behaviour: an identical kernel request is a cache hit,
    and relaunching triggers no further compiles or links."""
    compiles_before = dev.ctx.stats.shader_compiles
    links_before = dev.ctx.stats.program_links
    request_again()
    launch()
    stats[backend]["kernel_cache_hits"] = dev.kernel_cache_hits
    stats[backend]["recompiles_on_relaunch"] = (
        dev.ctx.stats.shader_compiles - compiles_before
    )
    stats[backend]["relinks_on_relaunch"] = (
        dev.ctx.stats.program_links - links_before
    )


def _gather_stats(stats, backend, dev):
    """Texture-gather engagement of the most recent draw: >0 gathers
    and 0 fallbacks on the JIT backend means every kernel fetch took
    the direct texel-storage path (zero on IR by definition)."""
    draw = dev.ctx.stats.draws[-1]
    stats[backend]["texture_gathers"] = draw.texture_gathers
    stats[backend]["gather_fallbacks"] = draw.gather_fallbacks


def _sum_launch(backend):
    dev = GpgpuDevice(float_model="videocore", execution_backend=backend)
    rng = np.random.default_rng(0)
    a_host = rng.integers(-(2**20), 2**20, size=SUM_N).astype(np.int64)
    b_host = rng.integers(-(2**20), 2**20, size=SUM_N).astype(np.int64)
    a = dev.array(a_host, "int32")
    b = dev.array(b_host, "int32")
    out = dev.empty(SUM_N, "int32")
    kernel = make_sum_kernel(dev, "int32")
    expected = a_host + b_host
    return dev, out, expected, lambda: kernel(out, {"a": a, "b": b})


def bench_sum():
    rigs = {backend: _sum_launch(backend) for backend in BACKENDS}
    stats = _time_interleaved(
        {backend: rig[3] for backend, rig in rigs.items()}
    )
    for backend, (dev, out, expected, launch) in rigs.items():
        stats[backend]["correct"] = bool(
            np.array_equal(out.to_host(), expected)
        )
        _cache_stats(stats, backend, dev,
                     lambda dev=dev: make_sum_kernel(dev, "int32"), launch)
        _gather_stats(stats, backend, dev)
    return stats


def _sgemm_launch(backend, n, shade_workers=None):
    dev = GpgpuDevice(
        float_model="videocore", execution_backend=backend,
        shade_workers=shade_workers,
    )
    rng = np.random.default_rng(1)
    a_host = rng.uniform(-1, 1, size=n * n).astype(np.float32)
    b_host = rng.uniform(-1, 1, size=n * n).astype(np.float32)
    c_host = rng.uniform(-1, 1, size=n * n).astype(np.float32)
    a = dev.array(a_host, "float32")
    b = dev.array(b_host, "float32")
    c0 = dev.array(c_host, "float32")
    out = dev.empty(n * n, "float32")
    kernel = make_sgemm_kernel(dev, "float32", n)
    uniforms = {"u_n": float(n), "u_alpha": 1.0, "u_beta": 1.0}
    launch = lambda: kernel(out, {"a": a, "b": b, "c0": c0}, uniforms)
    return dev, out, n, launch


def bench_sgemm(n=SGEMM_N, backends=BACKENDS, include_workers=False,
                reps=REPS, warmup=WARMUP):
    """Time sgemm under ``backends``; ``include_workers`` adds a
    ``jit+workers`` column (JIT backend with ``SHADE_WORKERS``
    fragment-shading worker processes under the default pool policy:
    only a draw above the pool floor splits across the workers)."""
    rigs = {backend: _sgemm_launch(backend, n) for backend in backends}
    if include_workers:
        rigs["jit+workers"] = _sgemm_launch(
            "jit", n, shade_workers=SHADE_WORKERS
        )
    stats = _time_interleaved(
        {backend: rig[3] for backend, rig in rigs.items()},
        reps=reps, warmup=warmup,
    )
    # No closed-form host expectation under the videocore float model:
    # correctness here is bit-identical agreement with the reference
    # backend (whose conformance the differential oracle establishes).
    reference = rigs[backends[0]][1].to_host()
    for backend, (dev, out, size, launch) in rigs.items():
        stats[backend]["correct"] = bool(
            np.array_equal(out.to_host(), reference)
        )
        _cache_stats(
            stats, backend, dev,
            lambda dev=dev, size=size: make_sgemm_kernel(dev, "float32", size),
            launch,
        )
        _gather_stats(stats, backend, dev)
    if include_workers:
        from repro.perf.counters import values

        stats["jit+workers"]["parallel_draws"] = values["pool.draws"]
    return stats


GRAPH_CHAIN_N = 4096
GRAPH_CHAIN_STAGES = 3


def _graph_chain_rig(graph_mode):
    """A three-stage elementwise chain — the multi-pass shape the
    launch-graph scheduler fuses.  Eager: three draws through two
    materialised intermediates; graph: record + replay as one fused
    draw into a kept scratch."""
    dev = GpgpuDevice(
        float_model="videocore", execution_backend="jit",
        graph_mode=graph_mode,
    )
    shift = dev.kernel(
        "bench_shift", [("a", "float32")], "float32",
        "result = a + u_s;", uniforms=[("u_s", "float")],
    )
    scale = dev.kernel(
        "bench_scale", [("a", "float32")], "float32",
        "result = u_k * a;", uniforms=[("u_k", "float")],
    )
    rng = np.random.default_rng(2)
    src = dev.array(
        rng.uniform(-1, 1, GRAPH_CHAIN_N).astype(np.float32), "float32"
    )
    if graph_mode:
        state = {"out": None, "stats": None}

        def launch():
            if state["out"] is not None:
                state["out"].release()
            with dev.record() as graph:
                a = graph.scratch(GRAPH_CHAIN_N, "float32")
                graph.launch(shift, a, {"a": src}, {"u_s": 0.125})
                b = graph.scratch(GRAPH_CHAIN_N, "float32")
                graph.launch(scale, b, {"a": a}, {"u_k": 1.5})
                c = graph.scratch(GRAPH_CHAIN_N, "float32")
                graph.launch(shift, c, {"a": b}, {"u_s": -0.25})
                graph.keep(c)
            state["out"] = c
            state["stats"] = graph.stats

        return dev, state, launch
    mid1 = dev.empty(GRAPH_CHAIN_N, "float32")
    mid2 = dev.empty(GRAPH_CHAIN_N, "float32")
    out = dev.empty(GRAPH_CHAIN_N, "float32")
    state = {"out": out, "stats": None}

    def launch():
        shift(mid1, {"a": src}, {"u_s": 0.125})
        scale(mid2, {"a": mid1}, {"u_k": 1.5})
        shift(out, {"a": mid2}, {"u_s": -0.25})

    return dev, state, launch


def bench_graph():
    """Eager vs deferred-graph wall clock on the multi-pass chain.
    Fails the bench run outright if the replay stops fusing the chain
    into a single draw — a silent fusion loss would otherwise read as
    an ordinary perf regression."""
    rigs = {mode: _graph_chain_rig(mode == "graph")
            for mode in ("eager", "graph")}
    stats = _time_interleaved(
        {mode: rig[2] for mode, rig in rigs.items()}
    )
    eager_out = rigs["eager"][1]["out"].to_host()
    graph_out = rigs["graph"][1]["out"].to_host()
    stats["graph"]["correct"] = bool(
        np.array_equal(eager_out.view(np.uint32),
                       graph_out.view(np.uint32))
    )
    stats["eager"]["correct"] = True
    replay = rigs["graph"][1]["stats"]
    stats["graph"]["fused_draws_per_replay"] = replay.fused_draws
    stats["graph"]["elided_draws_per_replay"] = replay.elided_draws
    graph_dev = rigs["graph"][0]
    stats["graph"]["elided_transfer_seconds"] = (
        graph_dev.wall_time().elided_transfer_seconds
    )
    if replay.fused_draws != 1 or replay.elided_draws != (
        GRAPH_CHAIN_STAGES - 1
    ):
        raise SystemExit(
            "map_chain_float32: launch-graph replay no longer fuses "
            f"the {GRAPH_CHAIN_STAGES}-stage chain into one draw "
            f"(fused={replay.fused_draws}, elided={replay.elided_draws})"
            " — see repro.core.api.graph"
        )
    if not stats["graph"]["correct"]:
        raise SystemExit(
            "map_chain_float32: fused replay diverged from eager "
            "execution — the round-trip bit-identity contract broke"
        )
    return stats


COLD_WARM_REPS = 5
COLD_WARM_MIN_SPEEDUP = 2.0

#: Child process for the cold/warm first-launch columns: build the
#: sgemm-8 JIT kernel and run its first launch in a fresh interpreter,
#: timing only the in-process work (interpreter/numpy startup is the
#: same either way and would dilute the compile-path signal).
_COLD_WARM_CHILD = r"""
import hashlib, json, time
import numpy as np
from repro.core.api.device import GpgpuDevice
from repro.kernels.sgemm import make_sgemm_kernel

n = 8
rng = np.random.default_rng(1)
a_host = rng.uniform(-1, 1, size=n * n).astype(np.float32)
b_host = rng.uniform(-1, 1, size=n * n).astype(np.float32)
c_host = rng.uniform(-1, 1, size=n * n).astype(np.float32)

t0 = time.perf_counter()
dev = GpgpuDevice(float_model="videocore", execution_backend="jit")
a = dev.array(a_host, "float32")
b = dev.array(b_host, "float32")
c0 = dev.array(c_host, "float32")
out = dev.empty(n * n, "float32")
kernel = make_sgemm_kernel(dev, "float32", n)
kernel(out, {"a": a, "b": b, "c0": c0},
       {"u_n": float(n), "u_alpha": 1.0, "u_beta": 1.0})
res = out.to_host()
elapsed = time.perf_counter() - t0

from repro.perf.counters import values
def group(prefix):
    return {name[len(prefix):]: count for name, count in values.items()
            if name.startswith(prefix)}
print(json.dumps({
    "first_launch_ms": elapsed * 1e3,
    "digest": hashlib.sha256(res.tobytes()).hexdigest(),
    "disk": group("cache.disk."),
    "ir": group("compile.ir."),
    "jit": group("compile.jit."),
}))
"""


def _cold_warm_child(cache_dir):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    env.setdefault("PYTHONPATH", str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_WARM_CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"first_launch_sgemm_float32: child failed\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def bench_cold_warm(reps=COLD_WARM_REPS):
    """Disk-cache first-launch columns: kernel build + first launch of
    sgemm-8 (JIT) in a fresh process, against an empty artifact store
    (cold) vs a populated one (warm).  Fails the bench run outright if
    the warm runs stop hitting the disk cache, compile anything fresh,
    or lose the required speedup — a silent cache loss would otherwise
    read as an ordinary perf regression."""
    base = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cold_samples, warm_samples = [], []
        digests = set()
        warm_dir = os.path.join(base, "warm")
        primer = _cold_warm_child(warm_dir)  # populate the shared store
        digests.add(primer["digest"])
        warm_reports = []
        for i in range(reps):
            cold = _cold_warm_child(os.path.join(base, f"cold{i}"))
            warm = _cold_warm_child(warm_dir)
            cold_samples.append(cold["first_launch_ms"])
            warm_samples.append(warm["first_launch_ms"])
            digests.add(cold["digest"])
            digests.add(warm["digest"])
            warm_reports.append(warm)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if len(digests) != 1:
        raise SystemExit(
            "first_launch_sgemm_float32: warm-start output diverged "
            "from cold compile — the artifact store broke bit-identity"
        )
    for warm in warm_reports:
        if warm["disk"]["hits"] == 0:
            raise SystemExit(
                "first_launch_sgemm_float32: warm run recorded zero "
                "disk-cache hits — the persistent store stopped serving"
            )
        if warm["jit"]["fresh"]:
            raise SystemExit(
                "first_launch_sgemm_float32: warm run still generated "
                f"JIT code fresh (jit={warm['jit']})"
            )
        if warm["ir"]["uncached"]:
            raise SystemExit(
                "first_launch_sgemm_float32: warm JIT run compiled its "
                f"IR program ({warm['ir']['uncached']} compiles) — the "
                "JIT entry no longer carries what a draw reads"
            )
    stats = {
        "cold": {
            "median_ms": statistics.median(cold_samples),
            "min_ms": min(cold_samples),
            "reps": reps,
        },
        "warm": {
            "median_ms": statistics.median(warm_samples),
            "min_ms": min(warm_samples),
            "reps": reps,
        },
    }
    last = warm_reports[-1]
    stats["warm"]["disk_cache_hits"] = last["disk"]["hits"]
    stats["warm"]["ir_compiles"] = last["ir"]["uncached"]
    stats["warm"]["jit_codegen_fresh"] = last["jit"]["fresh"]
    stats["cold"]["correct"] = stats["warm"]["correct"] = True
    speedup = (stats["cold"]["median_ms"]
               / max(stats["warm"]["median_ms"], 1e-9))
    if speedup < COLD_WARM_MIN_SPEEDUP:
        raise SystemExit(
            "first_launch_sgemm_float32: warm first launch is only "
            f"{speedup:.2f}x faster than cold "
            f"(required >= {COLD_WARM_MIN_SPEEDUP}x) — the disk cache "
            "stopped paying for itself"
        )
    return stats


PUBLISH_STORE_ENTRIES = (0, 300, 1000, 3000)
PUBLISH_PAYLOAD_BYTES = 6 * 1024
PUBLISH_REPS = 25

#: Child process for the cache_publish_6k row: for each store size,
#: fill a fresh store with that many entries (plain file writes, not
#: publishes), make one untimed publish, then time PUBLISH_REPS
#: ``cache.put`` calls of distinct keys.
_PUBLISH_CHILD = r"""
import json, os, statistics, sys, time
from repro.core import cache as store

payload = b"Z" * int(sys.argv[1])
reps = int(sys.argv[3])
root = os.environ["REPRO_CACHE_DIR"]
report = {}
for filled in map(int, sys.argv[2].split(",")):
    os.environ["REPRO_CACHE_DIR"] = os.path.join(root, str(filled))
    blob = store._pack(payload, "jit")
    for i in range(filled):
        path = store._entry_path(store.artifact_key("jit", f"fill{i}"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
    store.put(store.artifact_key("jit", "untimed"), payload, "jit")
    samples = []
    for i in range(reps):
        key = store.artifact_key("jit", f"timed{i}")
        t0 = time.perf_counter()
        assert store.put(key, payload, "jit")
        samples.append(time.perf_counter() - t0)
    report[str(filled)] = {
        "median_ms": statistics.median(samples) * 1e3,
        "min_ms": min(samples) * 1e3,
        "reps": reps,
    }
print(json.dumps(report))
"""


def _publish_child(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    env.pop("REPRO_CACHE", None)
    env.pop("REPRO_CACHE_MAX_BYTES", None)
    with tempfile.TemporaryDirectory(prefix="repro-bench-publish-") as root:
        env["REPRO_CACHE_DIR"] = root
        proc = subprocess.run(
            [sys.executable, "-c", _PUBLISH_CHILD,
             str(PUBLISH_PAYLOAD_BYTES),
             ",".join(map(str, PUBLISH_STORE_ENTRIES)), str(PUBLISH_REPS)],
            capture_output=True, text=True, env=env, timeout=600,
        )
    if proc.returncode != 0:
        raise SystemExit(f"cache_publish_6k: child failed\n{proc.stderr}")
    return json.loads(proc.stdout)


ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def _revision_src(rev):
    """The ``src/`` of git revision ``rev``, extracted with ``git
    archive`` into a temporary directory for the block."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory(prefix="repro-bench-base-") as tmp:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(
            tmp, filter="data"
        )
        yield Path(tmp) / "src"


def bench_publish(baseline=None):
    """Artifact publish latency against store size: the median
    ``cache.put`` of a 6 KB payload into stores already holding 0, 300,
    1000 and 3000 entries, in a fresh process.  ``after`` times this
    checkout; with ``baseline`` (a git revision) ``before`` times that
    revision's ``src/`` the same way."""
    stats = {"after": _publish_child(ROOT / "src")}
    if baseline is not None:
        with _revision_src(baseline) as src:
            stats["before"] = _publish_child(src)
        stats["before_rev"] = baseline
    stats["payload_bytes"] = PUBLISH_PAYLOAD_BYTES
    return stats


WARM_START_REPS = 10
#: Rows with a 'before' column timed on a git baseline.
BEFORE_AFTER_ROWS = ("cache_publish_6k", "warm_start", "cold_compile")

#: Child process for the warm_start row: import the report module and
#: regenerate EXPERIMENTS.md into argv[1] against the store in
#: REPRO_CACHE_DIR, as ``python -m repro.experiments.report`` does.
_WARM_START_CHILD = r"""
import time
t0 = time.perf_counter()
import hashlib, json, sys
from repro.experiments import report
t1 = time.perf_counter()
if report.main([sys.argv[1]]) != 0:
    sys.exit("report.main failed")
t2 = time.perf_counter()
from repro.perf.counters import values
with open(sys.argv[1], "rb") as out:
    digest = hashlib.sha256(out.read()).hexdigest()
print(json.dumps({
    "import_ms": (t1 - t0) * 1e3,
    "main_ms": (t2 - t1) * 1e3,
    "digest": digest,
}))
"""


def _warm_start_child(src_dir, store, out):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src_dir)
    env["REPRO_CACHE_DIR"] = str(store)
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_START_CHILD, str(out)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"warm_start: child failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(samples):
    return {"median": statistics.median(samples), "min": min(samples)}


def bench_warm_start(baseline=None, reps=WARM_START_REPS):
    """Warm start of the E1-E10 regeneration: in each of ``reps`` fresh
    interpreters against an artifact store one cold run populated, the
    ms to import ``repro.experiments.report`` and the ms of its
    ``main``.  ``after`` runs this checkout; with ``baseline`` (a git
    revision) ``before`` runs that revision's ``src/``, interleaved run
    for run with ``after``."""
    expected = hashlib.sha256(
        (ROOT / "EXPERIMENTS.md").read_bytes()).hexdigest()
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-bench-warm-")))
        trees = {"after": ROOT / "src"}
        if baseline is not None:
            trees["before"] = stack.enter_context(_revision_src(baseline))
        runs = {column: [] for column in trees}
        for rep in range(reps + 1):  # run 0 populates each store
            for column, src in trees.items():
                run = _warm_start_child(src, tmp / f"store-{column}",
                                        tmp / f"{column}.md")
                if rep:
                    runs[column].append(run)
    stats = {}
    for column, column_runs in runs.items():
        stats[column] = {
            "import_ms": _summary([r["import_ms"] for r in column_runs]),
            "main_ms": _summary([r["main_ms"] for r in column_runs]),
            "reps": reps,
            "correct": all(r["digest"] == expected for r in column_runs),
        }
    if not stats["after"]["correct"]:
        raise SystemExit(
            "warm_start: the warm regeneration differs from the "
            "committed EXPERIMENTS.md"
        )
    if baseline is not None:
        stats["before_rev"] = baseline
    return stats


COLD_COMPILE_REPS = 7
#: The compile-path trace spans whose self time the cold_compile row
#: records.
COLD_COMPILE_SPANS = ("compile.shader", "compile.ir", "compile.jit")

#: Child process for the cold_compile row: build and first-launch one
#: never-seen kernel of each ledger ``first_launch`` family on the JIT
#: against the empty store in REPRO_CACHE_DIR, traced.  Pass rounds are
#: counted as calls of ``passes.dce``, the last pass of every round,
#: which counts the same way on trees that predate the
#: ``compile.ir.pass_rounds`` counter.
_COLD_COMPILE_CHILD = r"""
import hashlib, json, time
import numpy as np
from repro.core.api.device import GpgpuDevice
from repro.glsl.ir import passes
from repro.kernels import (convolve1d, inclusive_scan, make_sgemm_kernel,
                           reduce_sum, sort_host_array)
from repro.perf import counters, trace
from repro.workloads.kmeans import kmeans_assign_gpu

rounds = [0]
dce = passes.dce
def counting_dce(program):
    rounds[0] += 1
    return dce(program)
passes.dce = counting_dce

rng = np.random.default_rng(3)
x = rng.uniform(-1, 1, 256).astype(np.float32)
ints = rng.integers(-1000, 1000, 256).astype(np.int32)
bytes_ = rng.integers(0, 256, 256).astype(np.uint8)
mats = [rng.uniform(-1, 1, 64).astype(np.float32) for _ in range(3)]

def launch_map(dev, fmt, host, body):
    kernel = dev.kernel("cold_map", [("a", fmt)], fmt, body)
    out = dev.empty(host.size, fmt)
    return kernel(out, {"a": dev.array(host, fmt)}).to_host()

def launch_sgemm(dev):
    kernel = make_sgemm_kernel(dev, "float32", 8)
    arrays = {name: dev.array(m, "float32")
              for name, m in zip(("a", "b", "c0"), mats)}
    out = dev.empty(64, "float32")
    return kernel(out, arrays, {"u_n": 8.0, "u_alpha": 1.0,
                                "u_beta": 0.5}).to_host()

families = [
    lambda d: launch_map(d, "float32", x, "result = a * 3.0 + 12.5;"),
    lambda d: launch_map(d, "int32", ints, "result = a * 3.0 + 417.0;"),
    lambda d: launch_map(d, "uint8", bytes_,
                         "result = mod(a + 77.0, 256.0);"),
    launch_sgemm,
    lambda d: kmeans_assign_gpu(d, x[:64].reshape(32, 2),
                                x[64:70].reshape(3, 2)),
    lambda d: convolve1d(d, d.array(x, "float32"),
                         np.linspace(0.1, 0.5, 5)).to_host(),
    lambda d: sort_host_array(d, x[:64].copy()),
    lambda d: np.asarray([reduce_sum(d, d.array(x, "float32"))]),
    lambda d: inclusive_scan(d, d.array(ints, "int32")).to_host(),
]

recorder = trace.start()
t0 = time.perf_counter()
dev = GpgpuDevice(float_model="ieee32", execution_backend="jit",
                  shade_workers=0)
outputs = [np.asarray(run(dev)) for run in families]
wall_ms = (time.perf_counter() - t0) * 1e3
trace.stop(write=False)

# Self time per span name: a span's duration less its direct children's.
self_us = {}
stack = []
def close(entry):
    __, name, dur, children = entry
    self_us[name] = self_us.get(name, 0.0) + dur - children
for event in sorted((e for e in recorder.events if e["ph"] == "X"),
                    key=lambda e: (e["ts"], -e["dur"])):
    while stack and stack[-1][0] <= event["ts"]:
        close(stack.pop())
    if stack:
        stack[-1][3] += event["dur"]
    stack.append([event["ts"] + event["dur"], event["name"],
                  event["dur"], 0.0])
while stack:
    close(stack.pop())

digest = hashlib.sha256()
for out in outputs:
    digest.update(out.tobytes())
print(json.dumps({
    "wall_ms": wall_ms,
    "self_ms": {name: us / 1e3 for name, us in self_us.items()},
    "pass_rounds": rounds[0],
    # IR pipeline runs: ``uncached`` since IR programs left the store; a
    # baseline tree that still publishes them counts its runs as
    # ``fresh``.
    "ir_compiles": (counters.values["compile.ir.uncached"]
                    + counters.values["compile.ir.fresh"]),
    "digest": digest.hexdigest(),
}))
"""


def _cold_compile_child(src_dir):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src_dir)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cold-") as store:
        env["REPRO_CACHE_DIR"] = store
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_COMPILE_CHILD],
            capture_output=True, text=True, env=env, timeout=600,
        )
    if proc.returncode != 0:
        raise SystemExit(f"cold_compile: child failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_cold_compile(baseline=None, reps=COLD_COMPILE_REPS):
    """Cold compile of the ledger's ``first_launch`` kernel families: in
    each of ``reps`` fresh interpreters on an empty artifact store,
    build and first-launch one kernel per family, and record the wall
    ms, the self ms of the compile spans (front end, IR, JIT) and the
    IR pass rounds per IR compile.  ``after`` runs this checkout;
    with ``baseline`` (a git revision) ``before`` runs that revision's
    ``src/``, interleaved run for run with ``after``."""
    with contextlib.ExitStack() as stack:
        trees = {"after": ROOT / "src"}
        if baseline is not None:
            trees["before"] = stack.enter_context(_revision_src(baseline))
        runs = {column: [] for column in trees}
        for __ in range(reps):
            for column, src in trees.items():
                runs[column].append(_cold_compile_child(src))
    digests = {run["digest"] for column in runs.values() for run in column}
    if len(digests) != 1:
        raise SystemExit(
            "cold_compile: kernel outputs differ between runs or trees"
        )
    stats = {}
    for column, column_runs in runs.items():
        row = {"wall_ms": _summary([r["wall_ms"] for r in column_runs])}
        for name in COLD_COMPILE_SPANS:
            row[f"{name}.self_ms"] = _summary(
                [r["self_ms"].get(name, 0.0) for r in column_runs])
        last = column_runs[-1]
        row["ir_compiles"] = last["ir_compiles"]
        row["pass_rounds_per_compile"] = round(
            last["pass_rounds"] / max(last["ir_compiles"], 1), 3)
        row["reps"] = reps
        row["correct"] = True
        stats[column] = row
    if baseline is not None:
        stats["before_rev"] = baseline
    return stats


def _recorded_baselines(path):
    """``row -> before_rev`` of the before/after rows already recorded
    in the report at ``path`` (empty when there is none)."""
    try:
        workloads = json.loads(Path(path).read_text())["workloads"]
    except (OSError, ValueError, KeyError):
        return {}
    return {name: row["before_rev"] for name, row in workloads.items()
            if isinstance(row, dict) and "before_rev" in row}


def _baselines(args):
    """The git revision each before/after row times its ``before``
    column against: ``--baseline REV`` sets every row, ``--baseline
    ROW=REV`` one row; a row given none keeps the revision its last
    recording in ``--out`` names."""
    baselines = _recorded_baselines(args.out)
    for value in args.baseline or ():
        row, sep, rev = value.rpartition("=")
        if not sep:
            baselines.update(dict.fromkeys(BEFORE_AFTER_ROWS, rev))
        elif row in BEFORE_AFTER_ROWS:
            baselines[row] = rev
        else:
            raise SystemExit(f"--baseline: no before/after row {row!r}")
    return baselines


#: The kernel rows, timed in-process: name -> (bench, size, timed
#: columns).
KERNEL_ROWS = {
    "sum_int32": (bench_sum, SUM_N, BACKENDS),
    "sgemm_float32": (bench_sgemm, SGEMM_N, BACKENDS),
    # sgemm-16 carries a jit+workers column too: its 256 fragments
    # are below the pool floor, so the column shows what workers
    # cost a draw that stays in-process.
    "sgemm_float32_16": (
        lambda: bench_sgemm(SGEMM_N_LARGE, include_workers=True),
        SGEMM_N_LARGE, BACKENDS + ("jit+workers",)),
    # sgemm-128 is the workload the worker pool targets: 16384
    # fragments with a 128-iteration loop each, where fragment
    # shading is ~98% of the launch.  IR is skipped (minutes per
    # rep); the draw splits across the workers by default.
    "sgemm_float32_128": (
        lambda: bench_sgemm(SGEMM_N_XL, backends=("jit",),
                            include_workers=True,
                            reps=XL_REPS, warmup=XL_WARMUP),
        SGEMM_N_XL, ("jit", "jit+workers")),
    # Deferred launch graph vs eager on the multi-pass map chain:
    # replay must fuse the chain into one draw and match eager
    # bit for bit (both asserted); the speed ratio is only timed.
    "map_chain_float32": (bench_graph, GRAPH_CHAIN_N, ("eager", "graph")),
    # Persistent artifact store: kernel build + first launch in a
    # fresh process, cold (empty REPRO_CACHE_DIR) vs warm
    # (populated).  Asserts disk hits, zero fresh compiles, and
    # the minimum warm speedup — not just timed.
    "first_launch_sgemm_float32": (bench_cold_warm, SGEMM_N,
                                   ("cold", "warm")),
}

#: Every row, in report order.
ROWS = tuple(KERNEL_ROWS) + BEFORE_AFTER_ROWS


def _kernel_row(name):
    fn, size, timed = KERNEL_ROWS[name]
    per_backend = fn()
    for backend in timed:
        print(
            f"{name} [{backend}] median {per_backend[backend]['median_ms']:.3f} ms"
            f"  min {per_backend[backend]['min_ms']:.3f} ms"
        )
    for slow, fast, key in (
        ("ir", "jit", "speedup_jit_over_ir"),
        ("jit", "jit+workers", "speedup_workers_over_jit"),
        ("eager", "graph", "speedup_graph_over_eager"),
        ("cold", "warm", "speedup_warm_over_cold"),
    ):
        if slow in per_backend and fast in per_backend:
            ratio = (per_backend[slow]["median_ms"]
                     / per_backend[fast]["median_ms"])
            per_backend[key] = round(ratio, 3)
            print(f"{name} speedup ({slow}/{fast}): {ratio:.3f}x")
    per_backend["size"] = size
    return per_backend


def _publish_row(baseline):
    publish = bench_publish(baseline)
    for column in ("before", "after"):
        for entries, row in publish.get(column, {}).items():
            print(
                f"cache_publish_6k [{column}, {entries} entries] median "
                f"{row['median_ms']:.3f} ms  min {row['min_ms']:.3f} ms"
            )
    return publish


def _warm_start_row(baseline):
    warm = bench_warm_start(baseline)
    for column in ("before", "after"):
        if column in warm:
            row = warm[column]
            print(
                f"warm_start [{column}] import median "
                f"{row['import_ms']['median']:.1f} ms, main median "
                f"{row['main_ms']['median']:.1f} ms"
            )
    return warm


def _cold_compile_row(baseline):
    cold = bench_cold_compile(baseline)
    for column in ("before", "after"):
        if column in cold:
            row = cold[column]
            spans = ", ".join(
                f"{name} {row[f'{name}.self_ms']['median']:.1f}"
                for name in COLD_COMPILE_SPANS
            )
            print(
                f"cold_compile [{column}] wall median "
                f"{row['wall_ms']['median']:.1f} ms; self ms {spans}; "
                f"{row['pass_rounds_per_compile']:g} pass rounds per "
                "IR compile"
            )
    return cold


BEFORE_AFTER_BENCHES = {
    "cache_publish_6k": _publish_row,
    "warm_start": _warm_start_row,
    "cold_compile": _cold_compile_row,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_glsl_exec.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--baseline", metavar="[ROW=]REV", action="append",
        help="time the 'before' column of the before/after rows "
        f"({', '.join(BEFORE_AFTER_ROWS)}) on the src/ of git revision "
        "REV, or only ROW's with ROW=REV (repeatable); without it each "
        "row reuses the revision recorded in --out",
    )
    parser.add_argument(
        "--only", metavar="ROW", action="append", choices=ROWS,
        help="record only ROW (repeatable), keeping every other row "
        "as --out has it",
    )
    args = parser.parse_args(argv)
    baselines = _baselines(args)

    workloads = {}
    if args.only:
        try:
            workloads = json.loads(Path(args.out).read_text())["workloads"]
        except (OSError, ValueError, KeyError):
            workloads = {}
    report = {
        "description": (
            "repeated-launch wall clock, linear IR executor vs "
            "NumPy-source JIT; 'jit+workers' columns add multiprocess "
            f"fragment shading (shade_workers={SHADE_WORKERS}, default "
            "pool floor); map_chain_float32 "
            "times the deferred launch graph (record + fused replay) "
            "against eager multi-pass dispatch; "
            "first_launch_sgemm_float32 times kernel build + first "
            "launch in a fresh process with the persistent artifact "
            "store cold vs warm (REPRO_CACHE_DIR); cache_publish_6k "
            "times one artifact publish (cache.put, 6 KB) against the "
            "number of entries already in the store, keyed by that "
            "number, for this checkout ('after') and a git baseline "
            "('before', --baseline); warm_start times importing "
            "repro.experiments.report and its main (E1-E10) in fresh "
            "interpreters against a warm store, after and before; "
            "cold_compile times building and first-launching one "
            "kernel of each ledger "
            "first_launch family on an empty store in fresh "
            "interpreters, with the self ms of the compile.shader, "
            "compile.ir and compile.jit spans and the IR pass rounds "
            "per compile, after and before"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Worker-pool columns only make sense relative to the cores
        # actually available: on a single-core host they measure pure
        # dispatch overhead, not parallel shading.
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }
    selected = args.only or ROWS
    for name in ROWS:
        if name not in selected:
            continue
        if name in KERNEL_ROWS:
            workloads[name] = _kernel_row(name)
        else:
            workloads[name] = BEFORE_AFTER_BENCHES[name](baselines.get(name))

    # The gather fast path must actually engage on the kernel
    # workloads: a silent loss (e.g. a codegen-template rephrase that
    # breaks the IR annotation match) fails the bench run itself.
    for wname in ("sum_int32", "sgemm_float32", "sgemm_float32_128"):
        if wname not in selected:
            continue
        jit_stats = workloads[wname]["jit"]
        if jit_stats.get("texture_gathers", 0) <= 0:
            raise SystemExit(
                f"{wname}: JIT draw reported no texture gathers — the "
                "gather fast path was lost (see repro.glsl.ir.gather)"
            )
        if jit_stats.get("gather_fallbacks", 0) != 0:
            raise SystemExit(
                f"{wname}: JIT draw hit gather fallbacks on a kernel "
                "whose fetches must all qualify"
            )

    from repro.gles2 import parallel

    parallel.shutdown_pool()
    report["workloads"] = {name: workloads[name] for name in ROWS
                           if name in workloads}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return report


if __name__ == "__main__":
    main()
