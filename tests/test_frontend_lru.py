"""A linked program keeps only what its draws read.

Shader objects and programs hold link summaries; the typed ASTs and IR
programs live only in the front end's LRU
(``repro.gles2.shader.FRONTEND_CAPACITY`` entries).  A relaunch runs
from the summary's JIT kernels and never needs the AST; every consumer
of an IR program on an evicted shader reruns the front end from source
exactly once and gets the same bits as a shader that was never evicted.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import GpgpuDevice
from repro.gles2 import enums, pipeline, shader as shader_mod
from repro.testing import faults

X = np.linspace(-4, 4, 16).astype(np.float32)
PROBE_BODY = "result = sin(a) * 3.0 + 0.5;"


@pytest.fixture
def frontend(monkeypatch, isolated_counters):
    """A fresh front end with the artifact store off (every miss
    compiles in memory), no injected faults, and a log of the sources
    each front-end run compiled."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    runs = []
    run_frontend = shader_mod.run_frontend

    def logged(source, stage):
        checked = run_frontend(source, stage)
        runs.append((stage, source, weakref.ref(checked)))
        return checked

    monkeypatch.setattr(shader_mod, "run_frontend", logged)
    shader_mod.clear_frontend_cache()
    with faults.inject_faults():  # an empty plan over any REPRO_FAULTS
        yield runs
    shader_mod.clear_frontend_cache()


def device(**kwargs):
    kwargs.setdefault("float_model", "ieee32")
    return GpgpuDevice(shade_workers=0, graph_mode=False, **kwargs)


def launch(dev, body, length=X.size):
    kernel = dev.kernel("lru_probe", [("a", "float32")], "float32", body)
    out = dev.empty(length, "float32")
    kernel(out, {"a": dev.array(X[:length], "float32")})
    return kernel, out.to_host()


def evict():
    """Run the front end on FRONTEND_CAPACITY new fragment shaders, so
    the LRU holds none of the earlier ones."""
    for i in range(shader_mod.FRONTEND_CAPACITY):
        obj = shader_mod.Shader(0, enums.GL_FRAGMENT_SHADER)
        obj.source = ("precision mediump float;\nvoid main() { "
                      f"gl_FragColor = vec4({i}.0 / 64.0); }}\n")
        obj.compile()
        assert obj.compiled, obj.info_log


def test_a_device_keeps_only_the_lru_of_typed_asts(frontend,
                                                    isolated_counters):
    dev = device()
    bodies = [f"result = a * 3.0 + {k}.25;" for k in range(40)]
    first = [launch(dev, body) for body in bodies]
    gc.collect()
    alive = [ref for __, __, ref in frontend if ref() is not None]
    assert len(frontend) == 41  # 40 fragment shaders and the vertex one
    assert len(alive) <= shader_mod.FRONTEND_CAPACITY

    before = isolated_counters.snapshot()
    runs = len(frontend)
    for (kernel, expected), body in zip(first, bodies):
        out = dev.empty(X.size, "float32")
        kernel(out, {"a": dev.array(X, "float32")})
        assert out.to_host().tobytes() == expected.tobytes(), body
    changed = isolated_counters.delta(before)
    assert len(frontend) == runs
    for name in ("compile.frontend.reruns", "compile.ir.uncached",
                 "compile.jit.uncached", "jit.fallbacks"):
        assert changed.get(name, 0) == 0, name


def _float_model(dev):
    return launch(device(float_model="videocore"), PROBE_BODY)[1].tobytes()


def _wide_set(dev):
    # One fragment: every preset is uniform across the draw, so the
    # JIT needs a second specialisation (empty wide set).
    return launch(dev, PROBE_BODY, length=1)[1].tobytes()


def _ir_backend(dev):
    return launch(device(execution_backend="ir"), PROBE_BODY)[1].tobytes()


def _jit_error(dev):
    with faults.inject_faults(jit_error=1.0, seed=5):
        return launch(dev, PROBE_BODY)[1].tobytes()


def _capture(dev):
    captured = []
    pipeline.set_capture_hook(captured.append)
    try:
        out = launch(dev, PROBE_BODY)[1]
    finally:
        pipeline.clear_capture_hook()
    (capture,) = captured
    assert capture.fragment_shader.source_digest is not None
    return (out.tobytes(), capture.colors.tobytes(),
            capture.quantised.tobytes(), capture.discarded.tobytes())


@pytest.mark.parametrize("consumer", [
    pytest.param(_float_model, id="float_model"),
    pytest.param(_wide_set, id="wide_set"),
    pytest.param(_ir_backend, id="ir_backend"),
    pytest.param(_jit_error, id="jit_error"),
    pytest.param(_capture, id="capture_hook"),
])
def test_an_evicted_shader_reruns_its_front_end_once(
        consumer, frontend, isolated_counters):
    # Never evicted: the consumer runs on a probe compiled just now.
    expected = consumer(device())

    shader_mod.clear_frontend_cache()
    dev = device()
    kernel, __ = launch(dev, PROBE_BODY)
    evict()
    since = len(frontend)
    before = isolated_counters.snapshot()
    assert consumer(dev) == expected
    runs = frontend[since:]
    assert sum(1 for stage, source, __ in runs if stage == "fragment"
               and source == kernel.source.fragment) == 1
    # Every front-end run of the call was a counted rerun (the vertex
    # shader may need one too).
    changed = isolated_counters.delta(before)
    assert changed.get("compile.frontend.reruns", 0) == len(runs)
    # The rerun's result is back in the LRU: a second call needs none.
    since = len(frontend)
    assert consumer(dev) == expected
    assert len(frontend) == since
