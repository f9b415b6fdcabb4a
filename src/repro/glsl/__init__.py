"""GLSL ES 1.00 front end and vectorised executors.

The shading-language substrate of the reproduction: a lexer,
preprocessor, recursive-descent parser, type checker enforcing the
GLSL ES 1.00 rules (no implicit conversions, reserved operators, no
recursion), and SIMT-style executors that run compiled shaders over
whole vertex/fragment batches using numpy: the linear-IR executor
(:mod:`repro.glsl.ir`) and the NumPy JIT (:mod:`repro.glsl.jit`), both
on the runtime base :mod:`repro.glsl.interp`.

Quick use::

    from repro.glsl import compile_shader
    from repro.glsl.ir import IRExecutor
    checked = compile_shader(source, stage="fragment")
    executor = IRExecutor(checked)
    env = executor.execute(n, presets)
"""

from .errors import (
    GlslError,
    GlslLimitError,
    GlslPreprocessorError,
    GlslRuntimeError,
    GlslSyntaxError,
    GlslTypeError,
)
from .interp import Interpreter, compile_shader
from .optimize import optimize
from .typecheck import CheckedShader, ShaderStage, check
from .types import GlslType

#: Names served on first use (PEP 562): the printer and the scalar
#: reference run only in tooling and the oracle, so a warm start never
#: imports them.  (``optimize`` stays eager: a lazy name is shadowed by
#: the same-named submodule once anything imports that directly; the
#: shim defers its own fold-rule import instead.)
_LAZY = {
    "print_expr": "printer",
    "print_stmt": "printer",
    "print_unit": "printer",
    "FragmentDiscarded": "scalar_ref",
    "ScalarInterpreter": "scalar_ref",
    "python_value": "scalar_ref",
}

__all__ = [
    "GlslError",
    "GlslSyntaxError",
    "GlslPreprocessorError",
    "GlslTypeError",
    "GlslRuntimeError",
    "GlslLimitError",
    "Interpreter",
    "ScalarInterpreter",
    "FragmentDiscarded",
    "python_value",
    "compile_shader",
    "CheckedShader",
    "ShaderStage",
    "check",
    "GlslType",
    "optimize",
    "print_unit",
    "print_stmt",
    "print_expr",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
