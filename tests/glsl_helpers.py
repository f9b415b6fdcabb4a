"""Shared GLSL test helpers (importable without conftest-name
collisions when tests and benchmarks run in one pytest invocation)."""

from __future__ import annotations

import functools

import numpy as np

from repro.glsl import compile_shader
from repro.glsl.ir import IRExecutor
from repro.glsl.values import Value


def run_fragment_expr(expr_source: str, n: int = 1, presets=None, decls: str = ""):
    """Compile and run a tiny fragment shader whose main() assigns
    ``gl_FragColor = vec4(<expr>, 0.0, 0.0, 1.0)`` (expr must be a
    float expression) and return the resulting red-channel array.
    """
    source = f"""
    precision highp float;
    {decls}
    void main() {{
        gl_FragColor = vec4({expr_source}, 0.0, 0.0, 1.0);
    }}
    """
    checked = compile_shader(source, "fragment")
    interp = IRExecutor(checked)
    env = interp.execute(n, presets or {})
    return env["gl_FragColor"].data[:, 0]


def run_fragment_main(body: str, n: int = 1, presets=None, decls: str = ""):
    """Compile and run a fragment shader with the given main() body;
    returns (env, interp)."""
    source = f"""
    precision highp float;
    {decls}
    void main() {{
    {body}
    }}
    """
    checked = compile_shader(source, "fragment")
    interp = IRExecutor(checked)
    env = interp.execute(n, presets or {})
    return env, interp


def float_value(gtype, data):
    """Build a Value with float64 data for interpreter presets."""
    return Value(gtype, np.asarray(data, dtype=np.float64))


@functools.lru_cache(maxsize=None)
def library_kernel_sources():
    """``{family: [(source, stage), ...]}``: every shader the library
    kernels and the Rodinia-style workloads compile, collected from
    one small run of each family on a fresh device."""
    from repro.core import GpgpuDevice
    from repro.kernels import (
        argmin_via_encoding,
        convolve1d,
        exclusive_scan,
        make_saxpy_kernel,
        make_scale_kernel,
        make_sgemm_kernel,
        make_sum_kernel,
        reduce_max,
        reduce_min,
        reduce_sum,
        sort_host_array,
        transpose,
    )
    from repro.workloads.hotspot import hotspot_gpu
    from repro.workloads.kmeans import kmeans_assign_gpu
    from repro.workloads.nn import nearest_neighbor_gpu
    from repro.workloads.pathfinder import pathfinder_gpu

    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 16).astype(np.float32)
    grid = rng.uniform(0, 1, (4, 4)).astype(np.float32)
    runs = {
        "elementwise": lambda d: [
            make_sum_kernel(d, fmt) for fmt in ("int32", "float32", "uint8")
        ] + [make_saxpy_kernel(d), make_scale_kernel(d)],
        "sgemm": lambda d: make_sgemm_kernel(d, "float32", 4),
        "reduction": lambda d: reduce_sum(d, d.array(x)),
        "minmax": lambda d: (reduce_min(d, d.array(x)),
                             reduce_max(d, d.array(x)),
                             argmin_via_encoding(d, x)),
        "scan": lambda d: exclusive_scan(d, d.array(x)),
        "sort": lambda d: sort_host_array(d, x),
        "transform": lambda d: (transpose(d, d.array(x), 4, 4),
                                convolve1d(d, d.array(x), np.ones(3) / 3)),
        "hotspot": lambda d: hotspot_gpu(d, grid, grid, 1),
        "kmeans": lambda d: kmeans_assign_gpu(d, x.reshape(8, 2), x[:6].reshape(3, 2)),
        "nn": lambda d: nearest_neighbor_gpu(d, x, x[::-1].copy(), (0.0, 0.0)),
        "pathfinder": lambda d: pathfinder_gpu(d, grid),
    }
    sources = {}
    for family, run in runs.items():
        device = GpgpuDevice(float_model="ieee32", shade_workers=0)
        run(device)
        sources[family] = sorted({
            (shader.source, shader.stage)
            for shader in device.ctx._shaders.values() if shader.source
        })
    return sources
