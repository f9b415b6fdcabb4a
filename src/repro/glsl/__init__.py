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
from .printer import print_expr, print_stmt, print_unit
from .scalar_ref import FragmentDiscarded, ScalarInterpreter, python_value
from .typecheck import CheckedShader, ShaderStage, check
from .types import GlslType

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
