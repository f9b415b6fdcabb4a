"""The five ledger workloads: seeded inputs, one op, and its check.

An in-process workload object exposes what ``child.py`` drives:

* ``build()`` creates the device and its kernels (part of set-up);
* ``op(i)`` runs op ``i`` host to host and returns its host outputs;
* ``check(i, out)`` compares them with an independent reference (numpy
  or the library's CPU baselines) — called outside the timed interval;
* ``fingerprint(out)`` gives the bytes the output digest is built from;
* ``device`` is the one device whose context counters the ledger reads.

Ops cycle through a fixed pool of ``round_size`` seeded inputs, and the
harness always runs whole rounds, so per-op means of counts repeat
exactly however many rounds fit into the time budget.  Every op keeps
the same shape for the whole workload, so the median does not depend
on which size lands next to it.

``first_launch`` and ``paper_repro`` span several processes; their op
lists live here too (``FirstLaunch``, ``run_report``) and ``run.py``
orchestrates the processes.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from repro.baselines.cpu_kernels import cpu_sgemm, cpu_sum
from repro.core.api.device import GpgpuDevice
from repro.kernels import elementwise, reduction, scan, sgemm, sort, transform
from repro.workloads import hotspot, kmeans, pathfinder

ROOT = Path(__file__).resolve().parents[2]

#: float32 ``sum`` tolerance of the paper's E1 check
#: (repro.experiments.speedup).
SUM_RTOL = 1e-5
#: ``shade_heavy`` sgemm-96 under the videocore float model (about 15
#: significant bits per operation) against the float64 CPU product:
#: absolute error relative to the largest output magnitude.  Measured
#: worst case over seeds 0-19 is 1.2e-5.
SGEMM_VIDEOCORE_TOL = 1e-4


def rng_for(seed: int, name: str, *extra: int) -> np.random.Generator:
    """The op-sequence generator of one workload: ``(seed, workload)``."""
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *extra])


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class LaunchSmall:
    """Dispatch-bound: 1024 fragments, below the auto-tiling floor, and a
    one-add shader, so the GL state machine, the §IV pack/unpack, the
    rasteriser and per-draw bookkeeping dominate."""

    name = "launch_small"
    n = 1024
    round_size = 16
    warmup_rounds = 12

    def __init__(self, seed: int, smoke: bool = False):
        rng = rng_for(seed, self.name)
        self.inputs = []
        for j in range(self.round_size):
            if j % 2 == 0:
                a = rng.integers(-(2**22), 2**22, self.n).astype(np.int32)
                b = rng.integers(-(2**22), 2**22, self.n).astype(np.int32)
            else:
                a = rng.uniform(-1e3, 1e3, self.n).astype(np.float32)
                b = rng.uniform(-1e3, 1e3, self.n).astype(np.float32)
            self.inputs.append((a, b))
        if smoke:
            self.warmup_rounds = 1

    def build(self):
        self.device = GpgpuDevice(float_model="ieee32", execution_backend="jit")
        self.rigs = {}
        for fmt in ("int32", "float32"):
            kernel = elementwise.make_sum_kernel(self.device, fmt)
            arrays = [self.device.empty(self.n, fmt) for _ in range(3)]
            self.rigs[fmt] = (kernel, *arrays)

    def op(self, i):
        a, b = self.inputs[i % self.round_size]
        kernel, a_arr, b_arr, out = self.rigs[a.dtype.name]
        a_arr.upload(a)
        b_arr.upload(b)
        kernel(out, {"a": a_arr, "b": b_arr})
        return out.to_host()

    def check(self, i, out):
        a, b = self.inputs[i % self.round_size]
        expected = cpu_sum(a, b)
        if a.dtype == np.int32:
            return np.array_equal(out, expected)
        return np.allclose(out, expected, rtol=SUM_RTOL)

    def fingerprint(self, out):
        return _bits(out)


class ShadeHeavy:
    """Shading-bound: 9216 fragments each running a 96-step gather loop,
    tiled across two worker processes, so JIT shading and pool dispatch
    dominate and launch overhead is a few percent."""

    name = "shade_heavy"
    n = 96
    round_size = 2
    warmup_rounds = 2

    def __init__(self, seed: int, smoke: bool = False):
        rng = rng_for(seed, self.name)
        self.inputs = []
        for _ in range(self.round_size):
            mats = [rng.uniform(-1, 1, self.n * self.n).astype(np.float32)
                    for _ in range(3)]
            alpha, beta = (float(x) for x in rng.uniform(0.5, 1.5, 2))
            self.inputs.append((mats, alpha, beta))
        if smoke:
            self.warmup_rounds = 0

    def build(self):
        self.device = GpgpuDevice(
            float_model="videocore", execution_backend="jit", shade_workers=2
        )
        self.kernel = sgemm.make_sgemm_kernel(self.device, "float32", self.n)
        self.arrays = [self.device.empty(self.n * self.n, "float32")
                       for _ in range(4)]

    def op(self, i):
        mats, alpha, beta = self.inputs[i % self.round_size]
        a, b, c0, out = self.arrays
        for arr, host in zip((a, b, c0), mats):
            arr.upload(host)
        self.kernel(out, {"a": a, "b": b, "c0": c0},
                    {"u_n": float(self.n), "u_alpha": alpha, "u_beta": beta})
        return out.to_host()

    def check(self, i, out):
        (a, b, c0), alpha, beta = self.inputs[i % self.round_size]
        n = self.n
        expected = cpu_sgemm(alpha, a.reshape(n, n).astype(np.float64),
                             b.reshape(n, n), beta, c0.reshape(n, n))
        error = np.abs(out.reshape(n, n) - expected).max()
        return bool(error <= SGEMM_VIDEOCORE_TOL * np.abs(expected).max())

    def fingerprint(self, out):
        return _bits(out)


class GraphPipeline:
    """Multi-pass drivers under launch-graph replay: 125 draws over 14
    framebuffer shapes per op, most into scratch textures never read
    back — fusion, scratch pooling, dead-launch elision and kernel-cache
    hits."""

    name = "graph_pipeline"
    round_size = 2
    warmup_rounds = 1
    hotspot_iterations = 8

    def __init__(self, seed: int, smoke: bool = False):
        rng = rng_for(seed, self.name)
        self.inputs = []
        for _ in range(self.round_size):
            points = rng.standard_normal((2048, 2)).astype(np.float32) * 3
            self.inputs.append({
                "reduce": rng.integers(-256, 256, 2**14).astype(np.int32),
                "scan": rng.integers(-512, 512, 4096).astype(np.int32),
                "sort": rng.uniform(-1e3, 1e3, 1024).astype(np.float32),
                "points": points,
                "centroids": points[rng.choice(2048, 8, replace=False)],
                "shift": float(rng.uniform(-1, 1)),
                "scale": float(rng.uniform(0.25, 0.5)),
                "temp": rng.uniform(20, 90, (64, 64)).astype(np.float32),
                "power": rng.uniform(0, 1, (64, 64)).astype(np.float32),
                "grid": rng.integers(0, 10, (32, 256)).astype(np.int32),
            })
        if smoke:
            self.warmup_rounds = 0

    def build(self):
        self.device = GpgpuDevice(
            float_model="ieee32", execution_backend="jit", graph_mode=True
        )

    def op(self, i):
        x = self.inputs[i % self.round_size]
        device = self.device
        arr = device.array(x["reduce"], "int32")
        total = reduction.reduce_sum(device, arr)
        arr.release()
        arr = device.array(x["scan"], "int32")
        scanned = scan.inclusive_scan(device, arr)
        prefix = scanned.to_host()
        scanned.release()
        arr.release()
        return (
            np.asarray([total]),
            prefix,
            sort.sort_host_array(device, x["sort"]),
            kmeans.kmeans_assign_gpu(device, x["points"], x["centroids"],
                                     shift=x["shift"], scale=x["scale"]),
            hotspot.hotspot_gpu(device, x["temp"], x["power"],
                                self.hotspot_iterations),
            pathfinder.pathfinder_gpu(device, x["grid"]),
        )

    def check(self, i, out):
        x = self.inputs[i % self.round_size]
        total, prefix, ordered, membership, heat, cost = out
        # Tolerances follow tests/test_workloads.py.
        return (
            int(total[0]) == int(x["reduce"].astype(np.int64).sum())
            and np.array_equal(prefix, np.cumsum(x["scan"]))
            and np.array_equal(ordered, np.sort(x["sort"]))
            and (membership == kmeans.kmeans_assign_cpu(
                x["points"], x["centroids"])).mean() > 0.99
            and np.allclose(heat, hotspot.hotspot_cpu(
                x["temp"], x["power"], self.hotspot_iterations),
                rtol=1e-4, atol=1e-3)
            and np.array_equal(cost, pathfinder.pathfinder_cpu(x["grid"]))
        )

    def fingerprint(self, out):
        return b"".join(_bits(part) for part in out)


IN_PROCESS = {w.name: w for w in (LaunchSmall, ShadeHeavy, GraphPipeline)}


# ----------------------------------------------------------------------
# first_launch: never-seen kernels, cold then warm
# ----------------------------------------------------------------------
#: Kernels per cold/warm child, by family.  Every family holds at least
#: as many distinct kernels as it is asked for, so one child never
#: repeats a kernel; the first entry is always a float32 map so the set-up sample
#: has the same shape on every seed.
FIRST_LAUNCH_MIX = {"map": 36, "sgemm": 20, "kmeans": 30, "convolve1d": 4,
                    "reduce": 2, "scan": 2, "sort": 6}
FIRST_LAUNCH_SMOKE_MIX = {"map": 3, "sgemm": 2, "kmeans": 2, "convolve1d": 1,
                          "reduce": 1, "scan": 1, "sort": 1}
_MAP_FORMATS = ("float32", "int32", "uint8")
_SORT_FORMATS = ("int32", "float32", "int8", "uint8", "int16", "uint16")
_STEP_FORMATS = ("int32", "float32")


def first_launch_plan(seed: int, smoke: bool = False):
    """The seeded kernel list one cold child builds and its warm twin
    replays: ``(family, params)`` pairs, distinct within the list."""
    rng = rng_for(seed, "first_launch")
    mix = FIRST_LAUNCH_SMOKE_MIX if smoke else FIRST_LAUNCH_MIX
    picks = {
        "sgemm": [("sgemm", int(n)) for n in
                  rng.choice(np.arange(4, 25), mix["sgemm"], replace=False)],
        "kmeans": [("kmeans", (int(c // 4) + 2, int(c % 4) + 1)) for c in
                   rng.choice(60, mix["kmeans"], replace=False)],
        "convolve1d": [("convolve1d", int(t)) for t in
                       rng.choice([3, 5, 7, 9], mix["convolve1d"],
                                  replace=False)],
        "reduce": [("reduce", f) for f in _STEP_FORMATS[:mix["reduce"]]],
        "scan": [("scan", f) for f in _STEP_FORMATS[:mix["scan"]]],
        "sort": [("sort", f) for f in _SORT_FORMATS[:mix["sort"]]],
    }
    # Map constants come from a large range; redraw the rare repeat.
    maps, seen = [], set()
    while len(maps) < mix["map"]:
        fmt = _MAP_FORMATS[len(maps) % len(_MAP_FORMATS)]
        if fmt == "uint8":
            const = int(rng.integers(1, 256))
        elif fmt == "int32":
            const = int(rng.integers(-10**6, 10**6))
        else:
            const = round(float(rng.uniform(-100, 100)), 4)
        if (fmt, const) not in seen:
            seen.add((fmt, const))
            maps.append(("map", (fmt, const)))
    rest = maps[1:] + [entry for family in picks.values() for entry in family]
    order = rng.permutation(len(rest))
    return [maps[0]] + [rest[k] for k in order]


class FirstLaunch:
    """Build, first-launch and read back one never-seen kernel per op:
    compile (preprocess, parse, typecheck, IR passes, JIT codegen) and
    the artifact store dominate."""

    name = "first_launch"
    points = 256
    length = 256

    def __init__(self, seed: int, smoke: bool = False, count=None):
        self.seed = seed
        self.plan = first_launch_plan(seed, smoke)[:count]
        self.round_size = len(self.plan)

    def build(self):
        self.device = GpgpuDevice(float_model="ieee32", execution_backend="jit")

    def _inputs(self, i):
        family, param = self.plan[i]
        rng = rng_for(self.seed, self.name, i)
        if family == "map":
            fmt, __ = param
            if fmt == "uint8":
                return rng.integers(0, 256, self.length).astype(np.uint8)
            if fmt == "int32":
                return rng.integers(-10**6, 10**6, self.length).astype(np.int32)
            return rng.uniform(-100, 100, self.length).astype(np.float32)
        if family == "sgemm":
            n = param
            mats = [rng.uniform(-1, 1, (n, n)).astype(np.float32)
                    for _ in range(3)]
            return mats, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))
        if family == "kmeans":
            k, d = param
            points = rng.standard_normal((self.points, d)).astype(np.float32)
            return points, (rng.standard_normal((k, d)) * 2).astype(np.float32)
        if family == "convolve1d":
            return (rng.uniform(-1, 1, self.length).astype(np.float32),
                    rng.uniform(-1, 1, param))
        if family == "sort":
            info = np.iinfo(param) if param != "float32" else None
            if info is None:
                return rng.uniform(-1e3, 1e3, self.length).astype(np.float32)
            low, high = max(info.min, -(2**23)), min(info.max, 2**23 - 1)
            return rng.integers(low, high + 1, self.length).astype(param)
        if param == "int32":  # reduce / scan
            return rng.integers(-1000, 1000, self.length).astype(np.int32)
        return rng.uniform(-1, 1, self.length).astype(np.float32)

    def op(self, i):
        family, param = self.plan[i]
        x = self._inputs(i)
        device = self.device
        if family == "map":
            fmt, const = param
            body = (f"result = mod(a + {float(const)}, 256.0);"
                    if fmt == "uint8" else f"result = a * 3.0 + {float(const)};")
            kernel = device.kernel("first_launch_map", [("a", fmt)], fmt, body)
            src, out = device.array(x, fmt), device.empty(self.length, fmt)
            kernel(out, {"a": src})
            return out.to_host()
        if family == "sgemm":
            (a, b, c0), alpha, beta = x
            n = param
            kernel = sgemm.make_sgemm_kernel(device, "float32", n)
            arrays = {name: device.array(m.reshape(-1), "float32")
                      for name, m in zip(("a", "b", "c0"), (a, b, c0))}
            out = device.empty(n * n, "float32")
            kernel(out, arrays, {"u_n": float(n), "u_alpha": alpha,
                                 "u_beta": beta})
            return out.to_host()
        if family == "kmeans":
            return kmeans.kmeans_assign_gpu(device, *x)
        if family == "convolve1d":
            values, taps = x
            return transform.convolve1d(
                device, device.array(values, "float32"), taps).to_host()
        if family == "sort":
            return sort.sort_host_array(device, x)
        arr = device.array(x, param)
        if family == "reduce":
            return np.asarray([reduction.reduce_sum(device, arr)])
        return scan.inclusive_scan(device, arr).to_host()

    def check(self, i, out):
        family, param = self.plan[i]
        x = self._inputs(i)
        if family == "map":
            fmt, const = param
            if fmt == "uint8":
                return np.array_equal(out, (x.astype(np.int64) + const) % 256)
            expected = x.astype(np.float64) * 3 + const
            if fmt == "int32":
                return np.array_equal(out, expected.astype(np.int64))
            return np.allclose(out, expected, rtol=1e-5, atol=1e-4)
        if family == "sgemm":
            (a, b, c0), alpha, beta = x
            expected = cpu_sgemm(alpha, a, b, beta, c0).reshape(-1)
            # E1's sgemm tolerance (repro.experiments.speedup).
            return np.allclose(out, expected, rtol=1e-4, atol=1e-4)
        if family == "kmeans":
            return (out == kmeans.kmeans_assign_cpu(*x)).mean() > 0.99
        if family == "convolve1d":
            values, taps = x
            half, n = len(taps) // 2, len(values)
            index = np.clip(np.arange(n)[:, None] + np.arange(len(taps)) - half,
                            0, n - 1)
            expected = (values.astype(np.float64)[index] * taps).sum(axis=1)
            return np.allclose(out, expected, rtol=1e-4, atol=1e-5)
        if family == "sort":
            return np.array_equal(out, np.sort(x))
        reference = x.astype(np.float64)
        expected = reference.sum() if family == "reduce" else np.cumsum(reference)
        if param == "int32":
            return np.array_equal(np.asarray(out, np.int64).reshape(-1),
                                  np.asarray(expected, np.int64).reshape(-1))
        scale = np.abs(reference).sum()
        return np.allclose(out, expected, rtol=0, atol=1e-5 * scale)

    def fingerprint(self, out):
        return _bits(out)


def make(name: str, seed: int, smoke: bool = False, count=None):
    if name == FirstLaunch.name:
        return FirstLaunch(seed, smoke, count)
    return IN_PROCESS[name](seed, smoke)


# ----------------------------------------------------------------------
# paper_repro: the E1-E10 regeneration a reader of the paper runs
# ----------------------------------------------------------------------
def run_report(path: Path) -> None:
    """What ``python -m repro.experiments.report <path>`` runs, in this
    interpreter (the caller is a fresh child process).  Calling ``main``
    of the imported module, rather than re-executing it as ``__main__``,
    keeps the names the traced run patches the ones the report calls."""
    from repro.experiments import report

    if report.main([str(path)]) != 0:
        raise RuntimeError("repro.experiments.report failed")


def check_report(path: Path) -> bool:
    """The regenerated report must be byte-identical to the committed
    EXPERIMENTS.md."""
    return path.read_bytes() == (ROOT / "EXPERIMENTS.md").read_bytes()
