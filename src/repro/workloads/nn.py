"""Nearest neighbour (Rodinia `nn`).

Finds the record closest to a query point: one single-output distance
kernel over all records, then a GPU argmin (log-depth min reduction
with index encoding).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.api.device import GpgpuDevice
from ..kernels.minmax import argmin_via_encoding


def nearest_neighbor_cpu(
    lat: np.ndarray, lon: np.ndarray, query: Tuple[float, float]
) -> Tuple[int, float]:
    """CPU reference: (index, distance) of the closest record."""
    distances = np.sqrt(
        (lat.astype(np.float64) - query[0]) ** 2
        + (lon.astype(np.float64) - query[1]) ** 2
    )
    best = int(np.argmin(distances))
    return best, float(distances[best])


def nearest_neighbor_gpu(
    device: GpgpuDevice,
    lat: np.ndarray,
    lon: np.ndarray,
    query: Tuple[float, float],
) -> Tuple[int, float]:
    """GPU implementation: distance kernel + argmin reduction."""
    lat = np.asarray(lat, dtype=np.float32).reshape(-1)
    lon = np.asarray(lon, dtype=np.float32).reshape(-1)
    n = lat.shape[0]
    kernel = device.kernel(
        "nn_distance",
        inputs=[("lat", "float32"), ("lon", "float32")],
        output="float32",
        body=(
            "float dlat = lat - u_qlat;\n"
            "float dlon = lon - u_qlon;\n"
            "result = sqrt(dlat * dlat + dlon * dlon);"
        ),
        uniforms=[("u_qlat", "float"), ("u_qlon", "float")],
    )
    with device.launches() as scope:
        distances = scope.keep(scope.scratch(n, "float32"))
        scope.launch(
            kernel,
            distances,
            {"lat": scope.array(lat), "lon": scope.array(lon)},
            {"u_qlat": float(query[0]), "u_qlon": float(query[1])},
        )
    try:
        host_distances = distances.to_host()
    finally:
        distances.release()
    best = argmin_via_encoding(device, host_distances)
    return best, float(host_distances[best])
