"""E5 — ablations of two design choices the paper calls out.

Readback ordering (§III-7)
    Reading a texture back needs either a pass-through copy shader or
    "careful kernel ordering [so] the texture to be read [is] already
    mapped into the framebuffer".  The ablation runs the same
    computation with and without the optimisation and compares the
    modeled wall time (the copy costs one extra fullscreen pass plus a
    second readback-sized draw).

Packing overhead (§V)
    The paper notes kernels win "even with the extra burden of packing
    and unpacking inputs and outputs".  The ablation measures that
    burden directly: the same add kernel expressed (a) with the §IV
    int32 transformations and (b) as a raw byte pass-through (what a
    kernel would cost if the API had native formats), comparing
    dynamic ALU counts and modeled execute time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.api.device import GpgpuDevice
from ..kernels.elementwise import make_sum_kernel
from ..perf.wallclock import GpuTimeline, gpu_wall_time


@dataclass
class AblationResult:
    """Modeled wall times of the optimised and unoptimised variants."""

    name: str
    optimized: GpuTimeline
    unoptimized: GpuTimeline
    #: Dynamic ALU ops per element in each variant (packing ablation).
    optimized_alu_per_element: float = 0.0
    unoptimized_alu_per_element: float = 0.0

    @property
    def alu_overhead_factor(self) -> float:
        """Per-element shader-arithmetic ratio — the pure 'burden of
        packing and unpacking' with fixed costs stripped away."""
        if self.optimized_alu_per_element == 0:
            return 1.0
        return self.unoptimized_alu_per_element / self.optimized_alu_per_element

    @property
    def overhead_factor(self) -> float:
        """End-to-end wall-time ratio (transfers and compiles included)."""
        return self.unoptimized.total_seconds / self.optimized.total_seconds


def _run_sum_once(device: GpgpuDevice, size: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.integers(-(2**22), 2**22, size).astype(np.int32)
    b = rng.integers(-(2**22), 2**22, size).astype(np.int32)
    kernel = make_sum_kernel(device, "int32")
    out = device.empty(size, "int32")
    kernel(out, {"a": device.array(a), "b": device.array(b)})
    result = out.to_host()
    assert np.array_equal(result, a + b)
    return result


def run_readback_ablation(size: int = 16384) -> AblationResult:
    """Direct readback (kernel output already in the framebuffer) vs
    forcing the extra copy shader."""
    direct = GpgpuDevice(float_model="ieee32")
    _run_sum_once(direct, size)

    copied = GpgpuDevice(float_model="ieee32")
    copied.force_copy_readback = True
    _run_sum_once(copied, size)

    return AblationResult(
        name="readback ordering (challenge 7)",
        optimized=gpu_wall_time(direct.ctx.stats),
        unoptimized=gpu_wall_time(copied.ctx.stats),
    )


def run_packing_ablation(size: int = 16384) -> AblationResult:
    """int32 kernel with §IV pack/unpack vs a raw byte-copy kernel of
    the same shape (models an API with native formats)."""
    packed = GpgpuDevice(float_model="ieee32")
    _run_sum_once(packed, size)

    raw = GpgpuDevice(float_model="ieee32")
    rng = np.random.default_rng(11)
    a = rng.integers(0, 255, size).astype(np.uint8)
    b = rng.integers(0, 255, size).astype(np.uint8)
    kernel = raw.kernel(
        "raw_add",
        inputs=[("a", "uint8"), ("b", "uint8")],
        output="uint8",
        body="result = mod(a + b, 256.0);",
    )
    out = raw.empty(size, "uint8")
    kernel(out, {"a": raw.array(a), "b": raw.array(b)})
    out.to_host()

    def alu_per_element(device: GpgpuDevice) -> float:
        kernel_draw = device.ctx.stats.draws[0]
        return kernel_draw.fragment_ops.alu / kernel_draw.fragment_invocations

    return AblationResult(
        name="numeric packing overhead (§IV vs native formats)",
        optimized=gpu_wall_time(raw.ctx.stats),
        unoptimized=gpu_wall_time(packed.ctx.stats),
        optimized_alu_per_element=alu_per_element(raw),
        unoptimized_alu_per_element=alu_per_element(packed),
    )
