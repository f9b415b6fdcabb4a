#!/usr/bin/env python
"""sgemm on the GPU: the paper's second benchmark, end to end.

Computes C = alpha*A@B + beta*C0 for float32 matrices entirely through
the OpenGL ES 2 path: matrices live in RGBA8 textures using the
Figure 2 float layout, each output element is one fragment running an
n-iteration dot-product loop, and the result is validated against the
CPU reference with the paper's mantissa-agreement metric.

Run:  python examples/sgemm_pipeline.py [n] [backend]

``backend`` is jit (the library default) or ir.  Combine with the usual
knobs to exercise the full stack, e.g. a traced multiprocess run (the
workers take a draw only above 4096 fragments, so n must exceed 64;
the ``draw.shade`` span's ``chunks`` says how many ranges it shipped)::

    REPRO_TRACE=out.json REPRO_SHADE_WORKERS=2 \
        python examples/sgemm_pipeline.py 128 jit
    python -m repro.trace view out.json
"""

import sys

import numpy as np

from repro import GpgpuDevice
from repro.gles2.pipeline import DEFAULT_EXECUTION_BACKEND
from repro.baselines import cpu_sgemm
from repro.baselines.cpu_kernels import random_matrices
from repro.kernels import make_sgemm_kernel
from repro.validation import precision_report


def main(n: int = 32, backend: str = DEFAULT_EXECUTION_BACKEND):
    alpha, beta = 1.5, 0.5
    a, b, c0 = random_matrices(n, np.float32)

    # --- GPU ----------------------------------------------------------
    device = GpgpuDevice(  # the real platform
        float_model="videocore", execution_backend=backend
    )
    kernel = make_sgemm_kernel(device, "float32", n)
    out = device.empty(n * n, "float32")
    kernel(
        out,
        {
            "a": device.array(a.reshape(-1)),
            "b": device.array(b.reshape(-1)),
            "c0": device.array(c0.reshape(-1)),
        },
        {"u_n": float(n), "u_alpha": alpha, "u_beta": beta},
    )
    gpu_result = out.to_host().reshape(n, n)

    # --- CPU reference and validation ---------------------------------
    cpu_result = cpu_sgemm(alpha, a, b, beta, c0)
    report = precision_report(cpu_result, gpu_result)
    print(f"sgemm {n}x{n} (float32, videocore model)")
    print(f"  {report}")
    print(f"  within the paper's 15-bit band: {report.meets_paper_band()}")

    print()
    print("modeled VideoCore IV wall time:")
    print(device.wall_time().breakdown())


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 32,
        sys.argv[2] if len(sys.argv) > 2 else DEFAULT_EXECUTION_BACKEND,
    )
