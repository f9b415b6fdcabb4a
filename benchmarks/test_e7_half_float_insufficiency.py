"""E7 (extension) — why vendor half-float extensions are "not enough".

Paper §II-B(5/6): "some vendors provide extensions for half floats, in
general it is not enough for general purpose computations" and the
half-float framebuffer path is "neither enough nor portable".

This bench makes the claim quantitative: the same sum and sgemm
computations run through (a) the fp16 path a vendor extension would
give and (b) the paper's fp32 byte-packing path, both against the
fp32 CPU reference.  The fp16 path tops out at its 10-bit mantissa
(and overflows at 65504), while the paper's transformations keep the
full fp32 width — exceeding even the 15-bit band the real platform
achieves.
"""

import numpy as np
import pytest

from repro import GpgpuDevice
from repro.core.numerics import FP16_MANTISSA_BITS, FP16_MAX
from repro.experiments.half import run_half_float_comparison, run_sum
from repro.kernels import make_sum_kernel


@pytest.fixture(scope="module")
def reports():
    table = run_half_float_comparison()
    print()
    print(f"{'benchmark':>9} {'path':>8} {'median bits':>12} {'>=15 bits':>10}")
    for (bench, fmt), report in table.items():
        print(f"{bench:>9} {fmt:>8} {report.median_bits:12.1f} "
              f"{report.fraction_ge_15 * 100:9.1f}%")
    return table


def test_benchmark_fp16_sum(benchmark):
    benchmark.pedantic(run_sum, args=("float16", 1024), rounds=1, iterations=1)


def test_benchmark_fp32_sum(benchmark):
    benchmark.pedantic(run_sum, args=("float32", 1024), rounds=1, iterations=1)


class TestShape:
    def test_fp16_limited_to_its_mantissa(self, reports):
        for bench in ("sum", "sgemm"):
            report = reports[(bench, "float16")]
            assert report.median_bits <= FP16_MANTISSA_BITS + 1.5

    def test_fp16_misses_the_paper_band(self, reports):
        """The extension path cannot reach the >= 15-bit band."""
        for bench in ("sum", "sgemm"):
            assert not reports[(bench, "float16")].meets_paper_band()

    def test_fp32_path_reaches_the_band(self, reports):
        for bench in ("sum", "sgemm"):
            assert reports[(bench, "float32")].meets_paper_band()

    def test_fp32_beats_fp16_everywhere(self, reports):
        for bench in ("sum", "sgemm"):
            assert (
                reports[(bench, "float32")].median_bits
                > reports[(bench, "float16")].median_bits + 5
            )

    def test_fp16_range_saturates(self):
        """Beyond 65504 the fp16 path destroys data outright."""
        device = GpgpuDevice(float_model="ieee32")
        kernel = make_sum_kernel(device, "float16")
        big = np.array([60000.0, 1.0], dtype=np.float16)
        out = device.empty(2, "float16")
        kernel(out, {"a": device.array(big), "b": device.array(big)})
        result = out.to_host().astype(np.float64)
        assert np.isinf(result[0])  # 120000 overflows fp16
        assert result[1] == 2.0
        assert FP16_MAX == 65504.0
