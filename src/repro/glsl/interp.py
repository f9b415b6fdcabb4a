"""Shared runtime base of the vectorised (SIMT) shader executors.

Both executors — :class:`~repro.glsl.ir.executor.IRExecutor` (the flat
IR instruction loop) and :class:`~repro.glsl.jit.JitExecutor` (the
generated straight-line numpy function) — run a compiled shader for
all vertices/fragments of a draw call at once, mirroring the lock-step
warp execution of the VideoCore IV's QPUs: each GLSL variable holds a
batched numpy array (see :mod:`repro.glsl.values`) and divergent
control flow is handled with per-lane execution masks.

:class:`Interpreter` holds what the two share: the per-batch reset and
global binding (:meth:`Interpreter.execute`), masks and op counting,
and the value-level semantics (arithmetic, equality, builtins,
texturing, constructors, indexing, blends, l-value references).  It
runs no shader code itself.  The independent one-fragment-at-a-time
reference is :mod:`repro.glsl.scalar_ref`, which shares none of this.

Divergence model
----------------
``self.exec_mask`` is the set of lanes executing the current
instruction.  Lanes leave it through four "kill" channels and rejoin
at well-defined points:

* ``return``   — recorded per function frame; lanes rejoin at the call
  site,
* ``break``    — recorded per loop frame; lanes rejoin after the loop,
* ``continue`` — recorded per loop frame; lanes rejoin at the next
  iteration,
* ``discard``  — recorded globally; lanes never rejoin (the fragment
  is dropped).

Precision and cost accounting
-----------------------------
All float arithmetic is filtered through a *float model* (see
:mod:`repro.gles2.precision`) so device-accurate reduced precision can
be simulated, and every operation reports to an optional counter sink
(:mod:`repro.perf.counters`) that the performance model consumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from . import builtins as bi
from .errors import GlslRuntimeError
from .typecheck import CheckedShader
from .types import INT, BaseType, GlslType
from .values import (
    INT_DTYPE,
    Value,
    assign_masked,
    batch_of,
    broadcast_lanes,
    flatten_components,
    masked_blend,
    zeros_for,
)

#: Iteration safety cap (far above anything a GLSL ES Appendix-A
#: conformant shader can express).
DEFAULT_MAX_LOOP_ITERATIONS = 65536


class _ExactModel:
    """Fallback float model: float64, no rounding — used when the
    caller does not supply one."""

    dtype = np.float64
    name = "exact"

    def quantize(self, data: np.ndarray, category: str = "alu") -> np.ndarray:
        return data

    def quantize_is_cast(self, category: str = "alu") -> bool:
        return True


class _LoopFrame:
    """Masks for one active loop."""

    def __init__(self, n: int):
        self.broken = np.zeros(n, dtype=bool)
        self.continued = np.zeros(n, dtype=bool)
        #: Lanes whose loop condition went false (left the loop).
        self.exited = np.zeros(n, dtype=bool)

    def dead(self) -> np.ndarray:
        return self.broken | self.continued | self.exited


class _FunctionFrame:
    """Activation record for one (inlined) function invocation."""

    def __init__(self, n: int, return_type: GlslType, float_dtype):
        self.returned = np.zeros(n, dtype=bool)
        self.loops: List[_LoopFrame] = []
        if return_type.is_void():
            self.return_value: Optional[Value] = None
        else:
            self.return_value = zeros_for(return_type, 1, float_dtype)


class Interpreter:
    """Runtime base for executing one compiled shader stage.

    Parameters
    ----------
    checked:
        The type-checked shader.
    float_model:
        Object with ``dtype`` and ``quantize(data, category)`` — models
        the device's float precision (defaults to exact float64).
    counters:
        Optional op-counter sink with ``add(category, count)``.
    max_loop_iterations:
        Safety cap for loop execution.

    Subclasses run the shader body after :meth:`execute` has bound the
    globals, and supply ``_run_global_init`` for initialisers the IR
    fold pass could not reduce to a constant.
    """

    def __init__(
        self,
        checked: CheckedShader,
        float_model=None,
        counters=None,
        max_loop_iterations: int = DEFAULT_MAX_LOOP_ITERATIONS,
    ):
        self.checked = checked
        self.fmodel = float_model or _ExactModel()
        self.counters = counters
        self.max_loop_iterations = max_loop_iterations
        #: The compiled IR program (resolved on first execute).
        self.program = None
        # Runtime state (reset per execution).
        self.n = 0
        self.exec_mask: np.ndarray = np.ones(1, dtype=bool)
        self.discarded: np.ndarray = np.zeros(1, dtype=bool)
        self.globals_env: Dict[str, Value] = {}
        self.frames: List[_FunctionFrame] = []
        self.regs: List[Optional[Value]] = []
        self.consts = []

    # ------------------------------------------------------------------
    # Entry point: per-batch reset and global binding
    # ------------------------------------------------------------------
    def execute(self, n: int, presets: Dict[str, Value]) -> Dict[str, Value]:
        """Reset the per-batch state for ``n`` lanes and bind every
        global of the compiled program to its register.

        ``presets`` seeds global variables (attributes, uniforms,
        varyings, gl_FragCoord, ...); samplers without a preset bind
        texture object 0, initialised globals take their initialiser,
        the rest start at zero.  Returns the global environment, which
        the subclass's body run then updates in place; callers extract
        outputs (gl_Position, varyings, gl_FragColor) from it and the
        discard mask from :attr:`discarded`.  Global initialisers run
        once per call, at batch width 1.
        """
        program = self.program
        if program is None or program.checked is not self.checked:
            from .ir import get_compiled

            program = self.program = get_compiled(self.checked, self.fmodel)
        self.n = n
        self.exec_mask = np.ones(n, dtype=bool)
        self.discarded = np.zeros(n, dtype=bool)
        self.globals_env = {}
        self.frames = []
        self.consts = program.materialized_consts(self.fmodel)
        self.regs = [None] * program.nregs

        simple_inits = program.simple_inits()
        for plan in program.globals_plan:
            if plan.name in presets:
                value = presets[plan.name]
            elif plan.is_sampler:
                value = Value(plan.type)
            elif plan.init_block is not None:
                idx = simple_inits.get(plan.name)
                if idx is not None:
                    # Folded-to-constant initialiser: no frame needed.
                    gtype, data = self.consts[idx]
                    value = Value(gtype, data)
                else:
                    value = self._run_global_init(program, plan)
            else:
                value = zeros_for(plan.type, 1, self.fmodel.dtype)
            self.regs[plan.reg] = value
            self.globals_env[plan.name] = value
        for name, value in presets.items():
            self.globals_env.setdefault(name, value)
        return self.globals_env

    # ------------------------------------------------------------------
    # Masks and counting.  The lane popcount is cached: straight-line
    # code (the common case after frame elision) never changes the
    # mask, so ``_count`` reuses one popcount instead of summing the
    # mask per counted op.
    # ------------------------------------------------------------------
    @property
    def exec_mask(self) -> np.ndarray:
        return self._exec_mask

    @exec_mask.setter
    def exec_mask(self, mask: np.ndarray) -> None:
        self._exec_mask = mask
        self._nactive = -1

    def _live(self) -> np.ndarray:
        mask = ~self.discarded
        if self.frames:
            frame = self.frames[-1]
            mask = mask & ~frame.returned
            for loop in frame.loops:
                mask = mask & ~loop.dead()
        return mask

    def _count(self, category: str, per_lane_ops: int = 1) -> None:
        counters = self.counters
        if counters is None or not per_lane_ops:
            return
        lanes = self._nactive
        if lanes < 0:
            lanes = self._nactive = int(self._exec_mask.sum())
        if lanes:
            counters.add(category, lanes * per_lane_ops)

    def _broadcast_mask(self, data: np.ndarray) -> np.ndarray:
        """A bool (N,) lane mask from possibly batch-1 bool data."""
        if data.shape[0] == self.n:
            return data.astype(bool, copy=False)
        return np.broadcast_to(data, (self.n,)).astype(bool, copy=False)

    # ==================================================================
    # Value-level semantics
    # ==================================================================
    def _equal_data(self, left: Value, right: Value) -> np.ndarray:
        if left.fields is not None:
            n = batch_of(left, right)
            acc = np.ones(n if n > 1 else 1, dtype=bool)
            for key in left.fields:
                acc = acc & self._equal_data(left.fields[key], right.fields[key])
            return acc
        eq = left.data == right.data
        axes = tuple(range(1, eq.ndim))
        if axes:
            eq = np.all(eq, axis=axes)
        return eq

    def _eval_arith(self, op: str, left: Value, right: Value, result_type: GlslType) -> Value:
        ltype, rtype = left.type, right.type
        a, b = left.data, right.data
        flops = result_type.component_count()

        # Linear-algebra products accumulate in ascending component
        # order (a.x*b.x + a.y*b.y + ...), the same order as dot() and
        # the scalar reference interpreter — keeping every path in the
        # conformance harness bit-identical.
        if op == "*" and ltype.is_matrix() and rtype.is_matrix():
            k = ltype.size
            # result[n,c,r] = sum_i a[n,i,r] * b[n,c,i]
            data = a[:, 0, :][:, None, :] * b[:, :, 0][:, :, None]
            for i in range(1, k):
                data = data + a[:, i, :][:, None, :] * b[:, :, i][:, :, None]
            flops = result_type.component_count() * ltype.size
        elif op == "*" and ltype.is_matrix() and rtype.is_vector():
            k = ltype.size
            # result[n,r] = sum_c a[n,c,r] * b[n,c]
            data = a[:, 0, :] * b[:, 0][:, None]
            for c in range(1, k):
                data = data + a[:, c, :] * b[:, c][:, None]
            flops = result_type.component_count() * ltype.size
        elif op == "*" and ltype.is_vector() and rtype.is_matrix():
            k = rtype.size
            # result[n,c] = sum_r a[n,r] * b[n,c,r]
            data = a[:, 0][:, None] * b[:, :, 0]
            for r in range(1, k):
                data = data + a[:, r][:, None] * b[:, :, r]
            flops = result_type.component_count() * rtype.size
        else:
            a, b = self._align_operands(left, right)
            with np.errstate(over="ignore", invalid="ignore"):
                if op == "+":
                    data = a + b
                elif op == "-":
                    data = a - b
                elif op == "*":
                    data = a * b
                elif op == "/":
                    data = self._divide(a, b, result_type)
                else:
                    raise GlslRuntimeError(
                        f"unhandled arithmetic operator '{op}'"
                    )

        if result_type.is_float_based():
            data = self.fmodel.quantize(data)
        elif result_type.is_int_based() and data.dtype != INT_DTYPE:
            data = data.astype(INT_DTYPE)
        self._count("alu", flops)
        return Value(result_type, data)

    @staticmethod
    def _align_operands(left: Value, right: Value):
        """Reshape scalar operands so they broadcast against vectors
        and matrices."""
        a, b = left.data, right.data
        if a.ndim < b.ndim:
            a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
        elif b.ndim < a.ndim:
            b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
        return a, b

    @staticmethod
    def _divide(a: np.ndarray, b: np.ndarray, result_type: GlslType) -> np.ndarray:
        if result_type.is_int_based():
            # C-style truncation toward zero; divide-by-zero yields 0
            # (the GL spec leaves it undefined).
            with np.errstate(divide="ignore", invalid="ignore"):
                quotient = np.where(b != 0, a / np.where(b == 0, 1, b), 0.0)
            return np.trunc(quotient).astype(INT_DTYPE)
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b

    def _blend(self, v_true: Value, v_false: Value, cond: np.ndarray) -> Value:
        if v_true.fields is not None:
            return Value(
                v_true.type,
                fields={
                    k: self._blend(v_true.fields[k], v_false.fields[k], cond)
                    for k in v_true.fields
                },
            )
        data = masked_blend(v_false.data, v_true.data, cond)
        return Value(v_true.type, data)

    def _apply_builtin(self, overload, args: List[Value], out_type: GlslType) -> Value:
        """Apply one builtin overload to already-evaluated argument
        Values."""
        if overload.name in bi.TEXTURE_BUILTINS:
            return self._eval_texture(overload, args, out_type)

        n = batch_of(*args) if args else 1
        datas = []
        for arg in args:
            data = arg.data
            if data.shape[0] not in (1, n):
                raise GlslRuntimeError("builtin argument batch mismatch")
            datas.append(data)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = overload.impl(*datas)
        result = np.asarray(result)
        if out_type.is_float_based():
            result = self.fmodel.quantize(result.astype(self.fmodel.dtype), overload.category)
        elif out_type.is_int_based():
            result = result.astype(INT_DTYPE)
        elif out_type.is_bool_based():
            result = result.astype(bool)
        self._count(overload.category, out_type.component_count())
        return Value(out_type, result)

    def _eval_texture(self, overload, args: List[Value], out_type: GlslType) -> Value:
        sampler = args[0].sampler
        coords = args[1].data.astype(np.float64)
        if sampler is None:
            # Unbound sampler = texture object 0 = incomplete texture:
            # GL defines the sample as opaque black.
            n = coords.shape[0]
            texels = np.zeros((n, 4), dtype=self.fmodel.dtype)
            texels[:, 3] = 1.0
            self._count("tex")
            return Value(out_type, texels)
        if overload.impl == "texture2DProj3":
            coords = coords[:, :2] / coords[:, 2:3]
        elif overload.impl == "texture2DProj4":
            coords = coords[:, :2] / coords[:, 3:4]
        elif overload.impl == "textureCube":
            texels = sampler.sample_cube(coords)
            self._count("tex")
            return Value(out_type, self.fmodel.quantize(
                texels.astype(self.fmodel.dtype), "tex"))
        texels = sampler.sample(coords[:, 0], coords[:, 1])
        self._count("tex")
        return Value(out_type, self.fmodel.quantize(
            texels.astype(self.fmodel.dtype), "tex"))

    def _construct(self, target: GlslType, args: List[Value]) -> Value:
        """Apply a constructor to already-evaluated argument Values."""
        if target.is_struct():
            fields = {}
            for (fname, __), arg in zip(target.fields, args):
                fields[fname] = arg.clone()
            return Value(target, fields=fields)

        self._count("alu", target.component_count())
        if target.is_scalar():
            return Value(target, self._convert_base(
                args[0].data.reshape(args[0].data.shape[0], -1)[:, 0],
                target.base,
            ))
        if target.is_vector():
            if len(args) == 1 and args[0].type.is_scalar():
                splat = np.repeat(
                    self._convert_base(args[0].data, target.base)[:, None],
                    target.size,
                    axis=1,
                )
                return Value(target, splat)
            flat = flatten_components(args)[:, : target.size]
            return Value(target, self._convert_base(flat, target.base))
        if target.is_matrix():
            k = target.size
            if len(args) == 1 and args[0].type.is_scalar():
                n = args[0].batch
                data = np.zeros((n, k, k), dtype=self.fmodel.dtype)
                diag = self._convert_base(args[0].data, BaseType.FLOAT)
                for i in range(k):
                    data[:, i, i] = diag
                return Value(target, data)
            flat = self._convert_base(flatten_components(args), BaseType.FLOAT)
            n = flat.shape[0]
            return Value(target, flat.reshape(n, k, k))
        raise GlslRuntimeError(f"cannot construct {target}")

    def _convert_base(self, data: np.ndarray, base: str) -> np.ndarray:
        if base == BaseType.FLOAT:
            return data.astype(self.fmodel.dtype)
        if base == BaseType.INT:
            if data.dtype == bool:
                return data.astype(INT_DTYPE)
            # float -> int truncates toward zero (spec §5.4.1).
            return np.trunc(data).astype(INT_DTYPE) if np.issubdtype(
                data.dtype, np.floating
            ) else data.astype(INT_DTYPE)
        # bool: zero -> false, nonzero -> true.
        return data != 0

    def _index_value(self, base: Value, index: Value, out_type: GlslType) -> Value:
        idx = index.data
        if base.fields is not None:
            # Array of structs: require a uniform index.
            unique = np.unique(idx[self.exec_mask[: idx.shape[0]]] if idx.shape[0] == self.n else idx)
            if unique.size > 1:
                raise GlslRuntimeError(
                    "dynamic indexing of struct arrays requires a uniform index"
                )
            return base.fields[str(int(unique[0]) if unique.size else 0)]
        data = base.data
        n = max(data.shape[0], idx.shape[0])
        if data.shape[0] != n:
            data = np.broadcast_to(data, (n,) + data.shape[1:])
        if idx.shape[0] != n:
            idx = np.broadcast_to(idx, (n,))
        idx = np.clip(idx, 0, data.shape[1] - 1)
        if np.all(idx == idx.flat[0]):
            return Value(out_type, data[:, int(idx.flat[0])].copy())
        expand = idx.reshape((n,) + (1,) * (data.ndim - 1))
        expand = np.broadcast_to(expand, (n, 1) + data.shape[2:])
        gathered = np.take_along_axis(data, expand, axis=1)[:, 0]
        return Value(out_type, gathered)


# ======================================================================
# L-value reference objects
# ======================================================================
class _LValueRef:
    """A resolved assignment destination.  ``read`` returns the current
    value; ``write`` performs a masked store."""

    def read(self) -> Value:
        raise NotImplementedError

    def write(self, value: Value, mask: np.ndarray) -> None:
        raise NotImplementedError


class _VarRef(_LValueRef):
    def __init__(self, interp: Interpreter, storage: Value):
        self.interp = interp
        self.storage = storage

    def read(self) -> Value:
        return self.storage

    def write(self, value: Value, mask: np.ndarray) -> None:
        assign_masked(self.storage, value, mask)


class _FieldRef(_LValueRef):
    def __init__(self, interp: Interpreter, parent: _LValueRef, name: str):
        self.interp = interp
        self.parent = parent
        self.name = name

    def read(self) -> Value:
        return self.parent.read().fields[self.name]

    def write(self, value: Value, mask: np.ndarray) -> None:
        assign_masked(self.parent.read().fields[self.name], value, mask)


class _SwizzleRef(_LValueRef):
    def __init__(self, interp, parent: _LValueRef, indices, out_type: GlslType):
        self.interp = interp
        self.parent = parent
        self.indices = indices
        self.out_type = out_type
        if len(set(indices)) != len(indices):
            raise GlslRuntimeError("cannot write through a swizzle with "
                                   "repeated components")

    def read(self) -> Value:
        base = self.parent.read()
        if len(self.indices) == 1:
            return Value(self.out_type, base.data[:, self.indices[0]])
        return Value(self.out_type, base.data[:, list(self.indices)])

    def write(self, value: Value, mask: np.ndarray) -> None:
        base = self.parent.read()
        n = max(base.data.shape[0], value.data.shape[0], mask.shape[0])
        data = broadcast_lanes(base.data, n).copy()
        incoming = value.data
        if incoming.shape[0] != n:
            incoming = np.broadcast_to(incoming, (n,) + incoming.shape[1:])
        if len(self.indices) == 1:
            col = data[:, self.indices[0]]
            data[:, self.indices[0]] = np.where(mask, incoming, col)
        else:
            for slot, component in enumerate(self.indices):
                col = data[:, component]
                data[:, component] = np.where(mask, incoming[:, slot], col)
        self.parent.write(Value(base.type, data), np.ones(n, dtype=bool))


class _IndexRef(_LValueRef):
    def __init__(self, interp, parent: _LValueRef, index_data: np.ndarray,
                 out_type: GlslType):
        self.interp = interp
        self.parent = parent
        self.index = index_data
        self.out_type = out_type

    def read(self) -> Value:
        base = self.parent.read()
        return self.interp._index_value(
            base, Value(INT, self.index), self.out_type
        )

    def write(self, value: Value, mask: np.ndarray) -> None:
        base = self.parent.read()
        if base.fields is not None:
            unique = np.unique(self.index)
            if unique.size > 1:
                raise GlslRuntimeError(
                    "dynamic store to a struct array requires a uniform index"
                )
            assign_masked(base.fields[str(int(unique[0]))], value, mask)
            return
        n = max(base.data.shape[0], value.data.shape[0], mask.shape[0],
                self.index.shape[0])
        data = broadcast_lanes(base.data, n).copy()
        idx = self.index
        if idx.shape[0] != n:
            idx = np.broadcast_to(idx, (n,))
        idx = np.clip(idx, 0, data.shape[1] - 1)
        incoming = value.data
        if incoming.shape[0] != n:
            incoming = np.broadcast_to(incoming, (n,) + incoming.shape[1:])
        if np.all(idx == idx.flat[0]):
            slot = int(idx.flat[0])
            current = data[:, slot]
            data[:, slot] = masked_blend(current, incoming, mask)
        else:
            expand = idx.reshape((n, 1) + (1,) * (data.ndim - 2))
            expand = np.broadcast_to(expand, (n, 1) + data.shape[2:])
            current = np.take_along_axis(data, expand, axis=1)[:, 0]
            blended = masked_blend(current, incoming, mask)
            np.put_along_axis(data, expand, blended[:, None], axis=1)
        self.parent.write(Value(base.type, data), np.ones(n, dtype=bool))


def compile_shader(source: str, stage: str) -> CheckedShader:
    """Convenience: preprocess, parse and type-check a shader."""
    from .parser import parse
    from .preprocessor import preprocess

    preprocessed = preprocess(source)
    unit = parse(preprocessed.source)
    from .typecheck import check

    return check(unit, stage)
