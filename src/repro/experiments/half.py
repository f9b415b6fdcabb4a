"""E7 — why vendor half-float extensions are "not enough".

Paper §II-B(5/6): "some vendors provide extensions for half floats, in
general it is not enough for general purpose computations" and the
half-float framebuffer path is "neither enough nor portable".

The same sum and sgemm computations run through (a) the fp16 path a
vendor extension would give and (b) the paper's fp32 byte-packing
path, both against the fp32 CPU reference.  The fp16 path tops out at
its 10-bit mantissa (and overflows at 65504), while the paper's
transformations keep the full fp32 width.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..baselines.cpu_kernels import cpu_sgemm, random_matrices
from ..core.api.device import GpgpuDevice
from ..kernels.elementwise import make_sum_kernel
from ..kernels.sgemm import make_sgemm_kernel
from ..validation.compare import PrecisionReport, precision_report

#: The two storage paths compared.
HALF_FLOAT_FORMATS = ("float16", "float32")


def _storage_dtype(fmt: str):
    return np.float16 if fmt == "float16" else np.float32


def run_sum(fmt: str, size: int = 4096, seed: int = 13) -> PrecisionReport:
    """Elementwise sum stored as ``fmt``, against the fp32 reference."""
    rng = np.random.default_rng(seed)
    a32 = (rng.standard_normal(size) * 100).astype(np.float32)
    b32 = (rng.standard_normal(size) * 100).astype(np.float32)
    device = GpgpuDevice(float_model="ieee32")
    kernel = make_sum_kernel(device, fmt)
    dtype = _storage_dtype(fmt)
    out = device.empty(size, fmt)
    kernel(out, {"a": device.array(a32.astype(dtype)),
                 "b": device.array(b32.astype(dtype))})
    return precision_report(a32 + b32, out.to_host().astype(np.float64))


def run_sgemm(fmt: str, n: int = 32, seed: int = 14) -> PrecisionReport:
    """``n``-by-``n`` sgemm stored as ``fmt``, against the fp32
    reference."""
    a, b, c = random_matrices(n, np.float32, seed=seed)
    device = GpgpuDevice(float_model="ieee32")
    kernel = make_sgemm_kernel(device, fmt, n)
    dtype = _storage_dtype(fmt)
    out = device.empty(n * n, fmt)
    kernel(
        out,
        {"a": device.array(a.reshape(-1).astype(dtype)),
         "b": device.array(b.reshape(-1).astype(dtype)),
         "c0": device.array(c.reshape(-1).astype(dtype))},
        {"u_n": float(n), "u_alpha": 1.0, "u_beta": 0.0},
    )
    reference = cpu_sgemm(1.0, a, b, 0.0, c)
    return precision_report(reference, out.to_host().astype(np.float64))


def run_half_float_comparison() -> Dict[Tuple[str, str], PrecisionReport]:
    """``{(benchmark, format): report}`` for sum and sgemm on both
    storage paths."""
    table = {}
    for bench, runner in (("sum", run_sum), ("sgemm", run_sgemm)):
        for fmt in HALF_FLOAT_FORMATS:
            table[(bench, fmt)] = runner(fmt)
    return table
