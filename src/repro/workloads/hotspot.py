"""Thermal simulation stencil (Rodinia `hotspot`).

Each iteration updates a temperature grid from its 5-point
neighbourhood plus a per-cell power term — a classic single-output
stencil: one fragment per cell, gathering four neighbours
(clamped boundary), ping-ponging between two textures across
iterations.

A simplified Rodinia update rule with stable coefficients:

    t' = t + cp * (north + south + east + west - 4 t) + pw * power
"""

from __future__ import annotations

import numpy as np

from ..core.api.device import GpgpuDevice

_BODY = """
float width = u_width;
float height = u_height;
float row = floor(gpgpu_index / width);
float col = mod(gpgpu_index, width);
float t = fetch_temp(gpgpu_index);
float north = row > 0.0 ? fetch_temp(gpgpu_index - width) : t;
float south = row < height - 1.0 ? fetch_temp(gpgpu_index + width) : t;
float west = col > 0.0 ? fetch_temp(gpgpu_index - 1.0) : t;
float east = col < width - 1.0 ? fetch_temp(gpgpu_index + 1.0) : t;
result = t + u_cp * (north + south + east + west - 4.0 * t)
    + u_pw * fetch_power(gpgpu_index);
"""


def hotspot_cpu(
    temp: np.ndarray, power: np.ndarray, iterations: int,
    cp: float = 0.125, pw: float = 0.1,
) -> np.ndarray:
    """CPU reference: ``iterations`` stencil steps in float32 (matching
    the GPU's arithmetic order)."""
    t = np.array(temp, dtype=np.float32, copy=True)
    p = np.asarray(power, dtype=np.float32)
    cp32, pw32 = np.float32(cp), np.float32(pw)
    four = np.float32(4.0)
    for __ in range(iterations):
        north = np.vstack([t[:1], t[:-1]])
        south = np.vstack([t[1:], t[-1:]])
        west = np.hstack([t[:, :1], t[:, :-1]])
        east = np.hstack([t[:, 1:], t[:, -1:]])
        t = t + cp32 * (north + south + east + west - four * t) + pw32 * p
    return t


def hotspot_gpu(
    device: GpgpuDevice, temp: np.ndarray, power: np.ndarray,
    iterations: int, cp: float = 0.125, pw: float = 0.1,
) -> np.ndarray:
    """GPU implementation: ping-pong stencil passes."""
    temp = np.asarray(temp, dtype=np.float32)
    power = np.asarray(power, dtype=np.float32)
    height, width = temp.shape
    kernel = device.kernel(
        "hotspot_step",
        inputs=[("temp", "float32"), ("power", "float32")],
        output="float32",
        body=_BODY,
        uniforms=[
            ("u_width", "float"), ("u_height", "float"),
            ("u_cp", "float"), ("u_pw", "float"),
        ],
        mode="gather",
    )
    uniforms = {
        "u_width": float(width), "u_height": float(height),
        "u_cp": cp, "u_pw": pw,
    }
    # The stencil reads neighbours, so no pass fuses under graph mode;
    # the uploaded grid doubles as the second ping-pong buffer.
    with device.launches() as scope:
        power_arr = scope.array(power.reshape(-1))
        ping = scope.array(temp.reshape(-1))
        pong = scope.scratch(width * height, "float32")
        for __ in range(iterations):
            scope.launch(kernel, pong,
                         {"temp": ping, "power": power_arr}, uniforms)
            ping, pong = pong, ping
        scope.keep(ping)
    try:
        return ping.to_host().reshape(height, width)
    finally:
        ping.release()
