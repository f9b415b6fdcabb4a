"""k-means clustering (Rodinia `kmeans`).

The GPU-friendly half is the assignment step: each point finds its
nearest of k centroids — a single-output gather kernel with the
centroid loop baked in (GLSL ES loop bounds must be constants).  The
update step (averaging per cluster) is a scatter, which ES 2 cannot do
in a shader; like Rodinia's OpenMP+CUDA split, it runs on the host.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.api.device import GpgpuDevice


def kmeans_assign_cpu(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """CPU reference assignment: index of the nearest centroid per
    point.  ``points`` is (n, d), ``centroids`` is (k, d)."""
    deltas = points[:, None, :].astype(np.float64) - centroids[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=2))
    return np.argmin(distances, axis=1).astype(np.int32)


def _assign_kernel(device: GpgpuDevice, k: int, d: int):
    body_lines = [
        "float best = 3.4e38;",
        "float best_index = 0.0;",
        f"for (int c = 0; c < {k}; c++) {{",
        "    float dist2 = 0.0;",
        f"    for (int j = 0; j < {d}; j++) {{",
        f"        float delta = fetch_points(gpgpu_index * {float(d)} + "
        "float(j)) - fetch_centroids(float(c) * "
        f"{float(d)} + float(j));",
        "        dist2 += delta * delta;",
        "    }",
        "    if (dist2 < best) {",
        "        best = dist2;",
        "        best_index = float(c);",
        "    }",
        "}",
        "result = best_index;",
    ]
    return device.kernel(
        f"kmeans_assign_k{k}_d{d}",
        inputs=[("points", "float32"), ("centroids", "float32")],
        output="int32",
        body="\n".join(body_lines),
        mode="gather",
    )


def _normalize_kernels(device: GpgpuDevice):
    """The two-stage pre-conditioning chain: subtract a shift, then
    multiply by a scale.  Two elementwise map kernels on purpose —
    under graph mode the scheduler fuses them into one draw (the
    intermediate is consumed element-for-element by exactly one
    launch), which is the workload's map-chain fusion showcase."""
    shift = device.kernel(
        "kmeans_shift",
        [("a", "float32")],
        "float32",
        "result = a - u_shift;",
        uniforms=[("u_shift", "float")],
    )
    scale = device.kernel(
        "kmeans_scale",
        [("a", "float32")],
        "float32",
        "result = u_scale * a;",
        uniforms=[("u_scale", "float")],
    )
    return shift, scale


def kmeans_assign_gpu(
    device: GpgpuDevice,
    points: np.ndarray,
    centroids: np.ndarray,
    shift: float = None,
    scale: float = None,
) -> np.ndarray:
    """GPU assignment step.  Returns the (n,) int32 membership array.

    ``shift``/``scale`` enable an optional on-GPU pre-conditioning of
    both coordinate sets, ``(v - shift) * scale`` — membership is
    invariant under the affine map (distances scale uniformly), but
    conditioning coordinates around zero keeps the distance arithmetic
    inside the device float format's accurate band.  The two map
    passes fuse into a single draw per coordinate set under graph
    mode.
    """
    points = np.asarray(points, dtype=np.float32)
    centroids = np.asarray(centroids, dtype=np.float32)
    n, d = points.shape
    k = centroids.shape[0]
    kernel = _assign_kernel(device, k, d)
    with device.launches() as scope:
        inputs = {
            "points": scope.array(points.reshape(-1)),
            "centroids": scope.array(centroids.reshape(-1)),
        }
        out = scope.keep(scope.scratch(n, "int32"))
        if shift is not None or scale is not None:
            shift_k, scale_k = _normalize_kernels(device)
            u_shift = {"u_shift": float(0.0 if shift is None else shift)}
            u_scale = {"u_scale": float(1.0 if scale is None else scale)}
            for name, arr in list(inputs.items()):
                mid = scope.scratch(arr.length, "float32")
                scope.launch(shift_k, mid, {"a": arr}, u_shift)
                cooked = scope.scratch(arr.length, "float32")
                scope.launch(scale_k, cooked, {"a": mid}, u_scale)
                inputs[name] = cooked
        scope.launch(kernel, out, inputs)
    try:
        return out.to_host()
    finally:
        out.release()


def kmeans_iteration(
    device: GpgpuDevice, points: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One full k-means iteration: GPU assignment + host update.

    Returns (membership, new_centroids); empty clusters keep their old
    centroid.
    """
    membership = kmeans_assign_gpu(device, points, centroids)
    k, d = centroids.shape
    new_centroids = np.array(centroids, dtype=np.float32, copy=True)
    for c in range(k):
        members = points[membership == c]
        if members.shape[0]:
            new_centroids[c] = members.mean(axis=0)
    return membership, new_centroids
