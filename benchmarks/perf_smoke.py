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

    PYTHONPATH=src python benchmarks/perf_smoke.py [--out BENCH_glsl_exec.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
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
    draw from pooled scratch."""
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
    stats["graph"]["scratch_reuses_per_replay"] = replay.scratch_reuses
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
        if warm["ir"]["fresh"] or warm["jit"]["fresh"]:
            raise SystemExit(
                "first_launch_sgemm_float32: warm run still compiled "
                f"fresh (ir={warm['ir']}, jit={warm['jit']})"
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
    stats["warm"]["ir_compiles_fresh"] = last["ir"]["fresh"]
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_glsl_exec.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

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
            "store cold vs warm (REPRO_CACHE_DIR)"
        ),
        "python": platform.python_version(),
        # Worker-pool columns only make sense relative to the cores
        # actually available: on a single-core host they measure pure
        # dispatch overhead, not parallel shading.
        "cpu_count": os.cpu_count(),
        "workloads": {},
    }
    for name, fn, size, timed in (
        ("sum_int32", bench_sum, SUM_N, BACKENDS),
        ("sgemm_float32", bench_sgemm, SGEMM_N, BACKENDS),
        # sgemm-16 carries a jit+workers column too: its 256 fragments
        # are below the pool floor, so the column shows what workers
        # cost a draw that stays in-process.
        ("sgemm_float32_16",
         lambda: bench_sgemm(SGEMM_N_LARGE, include_workers=True),
         SGEMM_N_LARGE, BACKENDS + ("jit+workers",)),
        # sgemm-128 is the workload the worker pool targets: 16384
        # fragments with a 128-iteration loop each, where fragment
        # shading is ~98% of the launch.  IR is skipped (minutes per
        # rep); the draw splits across the workers by default.
        ("sgemm_float32_128",
         lambda: bench_sgemm(SGEMM_N_XL, backends=("jit",),
                             include_workers=True,
                             reps=XL_REPS, warmup=XL_WARMUP),
         SGEMM_N_XL, ("jit", "jit+workers")),
        # Deferred launch graph vs eager on the multi-pass map chain:
        # replay must fuse the chain into one draw and match eager
        # bit for bit (both asserted); the speed ratio is only timed.
        ("map_chain_float32", bench_graph, GRAPH_CHAIN_N,
         ("eager", "graph")),
        # Persistent artifact store: kernel build + first launch in a
        # fresh process, cold (empty REPRO_CACHE_DIR) vs warm
        # (populated).  Asserts disk hits, zero fresh compiles, and
        # the minimum warm speedup — not just timed.
        ("first_launch_sgemm_float32", bench_cold_warm, SGEMM_N,
         ("cold", "warm")),
    ):
        per_backend = fn()
        for backend in timed:
            print(
                f"{name} [{backend}] median {per_backend[backend]['median_ms']:.3f} ms"
                f"  min {per_backend[backend]['min_ms']:.3f} ms"
            )
        if "ir" in per_backend:
            ratio = (per_backend["ir"]["median_ms"]
                     / per_backend["jit"]["median_ms"])
            per_backend["speedup_jit_over_ir"] = round(ratio, 3)
            print(f"{name} speedup (ir/jit): {ratio:.3f}x")
        if "jit+workers" in per_backend:
            ratio = (per_backend["jit"]["median_ms"]
                     / per_backend["jit+workers"]["median_ms"])
            per_backend["speedup_workers_over_jit"] = round(ratio, 3)
            print(f"{name} speedup (jit/jit+workers): {ratio:.3f}x")
        if "eager" in per_backend and "graph" in per_backend:
            ratio = (per_backend["eager"]["median_ms"]
                     / per_backend["graph"]["median_ms"])
            per_backend["speedup_graph_over_eager"] = round(ratio, 3)
            print(f"{name} speedup (eager/graph): {ratio:.3f}x")
        if "cold" in per_backend and "warm" in per_backend:
            ratio = (per_backend["cold"]["median_ms"]
                     / per_backend["warm"]["median_ms"])
            per_backend["speedup_warm_over_cold"] = round(ratio, 3)
            print(f"{name} speedup (cold/warm): {ratio:.3f}x")
        per_backend["size"] = size
        report["workloads"][name] = per_backend

    # The gather fast path must actually engage on the kernel
    # workloads: a silent loss (e.g. a codegen-template rephrase that
    # breaks the IR annotation match) fails the bench run itself.
    for wname in ("sum_int32", "sgemm_float32", "sgemm_float32_128"):
        jit_stats = report["workloads"][wname]["jit"]
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
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return report


if __name__ == "__main__":
    main()
