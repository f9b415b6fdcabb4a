"""Shared GLSL test helpers (importable without conftest-name
collisions when tests and benchmarks run in one pytest invocation)."""

from __future__ import annotations

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
