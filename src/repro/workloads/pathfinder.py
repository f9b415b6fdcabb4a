"""Grid dynamic programming (Rodinia `pathfinder`).

Finds, for every column, the cheapest path from the top row to the
bottom row moving down/down-left/down-right.  The DP recurrence

    cost[r][c] = grid[r][c] + min(cost[r-1][c-1..c+1])

is inherently row-sequential but each row is a perfect single-output
map: one kernel launch per row, ping-ponging the running cost vector.
"""

from __future__ import annotations

import numpy as np

from ..core.api.device import GpgpuDevice

_BODY = """
float width = u_width;
float center = fetch_prev(gpgpu_index);
float left = gpgpu_index > 0.0 ? fetch_prev(gpgpu_index - 1.0) : center;
float right = gpgpu_index < width - 1.0 ? fetch_prev(gpgpu_index + 1.0)
    : center;
result = fetch_row(gpgpu_index) + min(center, min(left, right));
"""


def pathfinder_cpu(grid: np.ndarray) -> np.ndarray:
    """CPU reference: final-row cumulative costs."""
    grid = np.asarray(grid, dtype=np.int64)
    cost = grid[0].copy()
    width = grid.shape[1]
    for r in range(1, grid.shape[0]):
        left = np.concatenate([cost[:1], cost[:-1]])
        right = np.concatenate([cost[1:], cost[-1:]])
        cost = grid[r] + np.minimum(cost, np.minimum(left, right))
    return cost.astype(np.int32)


def pathfinder_gpu(device: GpgpuDevice, grid: np.ndarray) -> np.ndarray:
    """GPU implementation: one kernel launch per DP row."""
    grid = np.asarray(grid, dtype=np.int32)
    rows, width = grid.shape
    kernel = device.kernel(
        "pathfinder_row",
        inputs=[("prev", "int32"), ("row", "int32")],
        output="int32",
        body=_BODY,
        uniforms=[("u_width", "float")],
        mode="gather",
    )
    uniforms = {"u_width": float(width)}
    # Each row reads its left/right neighbours, so nothing fuses under
    # graph mode; the uploaded top row doubles as the second ping-pong
    # buffer.
    with device.launches() as scope:
        ping = scope.array(grid[0])
        row_arrays = [scope.array(grid[r]) for r in range(1, rows)]
        pong = scope.scratch(width, "int32")
        for row_array in row_arrays:
            scope.launch(kernel, pong,
                         {"prev": ping, "row": row_array}, uniforms)
            ping, pong = pong, ping
        scope.keep(ping)
    try:
        return ping.to_host()
    finally:
        ping.release()
