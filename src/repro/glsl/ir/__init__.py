"""``repro.glsl.ir`` — linear register IR for compiled GLSL shaders.

Pipeline: :func:`~repro.glsl.ir.lower.lower_shader` turns a
:class:`~repro.glsl.typecheck.CheckedShader` into a structured
:class:`~repro.glsl.ir.nodes.CompiledProgram`;
:func:`~repro.glsl.ir.passes.run_passes` folds/prunes/CSEs/DCEs it;
:class:`~repro.glsl.ir.executor.IRExecutor` flattens and runs it on
the shared runtime base :class:`~repro.glsl.interp.Interpreter`.

:func:`get_compiled` is the cached front door: compiled artifacts are
memoised per (float model, dtype) on the CheckedShader itself, so
repeated draws — and repeated kernels compiled from identical source —
skip lowering and the pass pipeline entirely.  A shader object holds
only its link summary; its CheckedShader, and with it its programs,
stay in the gles2 front end's small LRU
(:data:`repro.gles2.shader.FRONTEND_CAPACITY`) and are rebuilt from
source when an evicted shader needs a program again.  The program is
an in-memory artifact only: the persistent artifact store
(:mod:`repro.core.cache`) keeps the JIT's generated functions, which
carry what a JIT draw reads of the program, so a process lowers a
program once per (shader, float model) while the shader's front-end
result stays cached, and a warm JIT draw not at all.  Every pipeline
run counts ``compile.ir.uncached`` (:mod:`repro.perf.counters`).
"""

from __future__ import annotations

import numpy as np

from ...perf import counters, trace
from .cost import StaticCost, static_cost
from .executor import IRExecutor, flatten_program
from .gather import annotate_gathers
from .nodes import CompiledProgram, Instr, dump_ir

__all__ = [
    "CompiledProgram",
    "IRExecutor",
    "Instr",
    "Lowerer",
    "StaticCost",
    "annotate_gathers",
    "compile_ir",
    "dump_ir",
    "flatten_program",
    "get_compiled",
    "lower_shader",
    "run_passes",
    "static_cost",
]


#: Names served on first use (PEP 562): lowering and the pass pipeline
#: run only on a cold compile, so a warm start never imports them.
_LAZY = {"Lowerer": "lower", "lower_shader": "lower",
         "run_passes": "passes"}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def _model_key(fmodel) -> tuple:
    return (getattr(fmodel, "name", fmodel.__class__.__name__),
            np.dtype(fmodel.dtype).str)


#: The ``compile.ir.*`` counters under their short names, read-only,
#: for the benchmark ledger.
compile_events = counters.View("compile.ir.")


def compile_ir(checked, fmodel=None) -> CompiledProgram:
    """Lower + optimise one shader for one float model (uncached)."""
    from ..interp import _ExactModel
    from .lower import lower_shader
    from .passes import run_passes

    fmodel = fmodel or _ExactModel()
    program = lower_shader(checked)
    run_passes(program, fmodel)
    return program


def get_compiled(shader, fmodel=None) -> CompiledProgram:
    """Cached compile: one artifact per (shader, float model, dtype).

    ``shader`` is a CheckedShader or a gles2 link summary; either
    names its full front-end result through ``frontend()`` (a summary
    may rerun the front end for it), and the programs are memoised on
    that result, so they live exactly as long as it does."""
    from ..interp import _ExactModel

    fmodel = fmodel or _ExactModel()
    checked = shader.frontend()
    key = _model_key(fmodel)
    program = checked.programs.get(key)
    if program is None:
        with trace.span("compile.ir", "compile") as sp:
            if sp is not None:
                sp.args.update(stage=checked.stage, event="uncached")
            program = checked.programs[key] = compile_ir(checked, fmodel)
        counters.values["compile.ir.uncached"] += 1
    return program
