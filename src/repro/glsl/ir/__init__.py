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
skip lowering and the pass pipeline entirely.  The program is an
in-memory artifact only: the persistent artifact store
(:mod:`repro.core.cache`) keeps the JIT's generated functions, which
carry what a JIT draw reads of the program, so a process lowers a
program at most once per (shader, float model) and a warm JIT draw
not at all.  Every pipeline run counts ``compile.ir.uncached``
(:mod:`repro.perf.counters`).
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


def get_compiled(checked, fmodel=None) -> CompiledProgram:
    """Cached compile: one artifact per (shader, float model, dtype).

    The cache lives on the CheckedShader object, so it shares the
    lifetime of the front-end artifact (and of the gles2 shader cache
    that holds on to it)."""
    from ..interp import _ExactModel

    fmodel = fmodel or _ExactModel()
    cache = getattr(checked, "_ir_cache", None)
    if cache is None:
        cache = {}
        try:
            checked._ir_cache = cache
        except AttributeError:  # frozen/slotted shader object
            return compile_ir(checked, fmodel)
    key = _model_key(fmodel)
    program = cache.get(key)
    if program is None:
        with trace.span("compile.ir", "compile") as sp:
            if sp is not None:
                sp.args.update(stage=getattr(checked, "stage", ""),
                               event="uncached")
            program = cache[key] = compile_ir(checked, fmodel)
        counters.values["compile.ir.uncached"] += 1
    return program
