"""Flat-loop executor for the register IR.

The structured program is flattened into a linear instruction list with
explicit jump targets; execution is then a single ``while pc < n`` loop
over pre-bound ``(handler, instr)`` pairs — no per-node recursion, no
dispatch dict lookups on the hot path.

:class:`IRExecutor` subclasses the runtime base
:class:`~repro.glsl.interp.Interpreter`, which binds the globals and
supplies all *value-level* machinery (`_eval_arith`, `_apply_builtin`,
`_construct`, `_index_value`, `_blend`, the l-value reference classes,
masks, counting, frames).  The JIT backend shares the same base, so
the two backends are bit-identical by construction.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..errors import GlslLimitError, GlslRuntimeError
from ..interp import (
    DEFAULT_MAX_LOOP_ITERATIONS,
    Interpreter,
    _FieldRef,
    _FunctionFrame,
    _IndexRef,
    _LoopFrame,
    _SwizzleRef,
    _VarRef,
)
from ..values import Value, assign_masked, zeros_for
from .nodes import (
    Block,
    CompiledProgram,
    CondRegion,
    FuncRegion,
    IfRegion,
    Instr,
    LoopRegion,
    ScRegion,
)

_COMPARE_FUNCS = {
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}


# ======================================================================
# Flattening (structured regions -> linear code with jump targets)
# ======================================================================
def flatten_block(block: Block, code: List[Instr]) -> None:
    for item in block.items:
        if isinstance(item, Instr):
            code.append(item)
        elif isinstance(item, IfRegion):
            begin = Instr("IF", args=(item.cond,))
            code.append(begin)
            flatten_block(item.then_block, code)
            if item.else_block is not None:
                els = Instr("ELSE")
                code.append(els)
                begin.imm = len(code) - 1  # jump lands ON the ELSE op
                flatten_block(item.else_block, code)
                code.append(Instr("ENDIF"))
                els.imm = len(code) - 1
            else:
                code.append(Instr("ENDIF"))
                begin.imm = len(code) - 1
        elif isinstance(item, LoopRegion):
            code.append(Instr("LOOP_PUSH"))
            top_idx = len(code)
            top = Instr("LOOP_TOP",
                        imm=[item.pretest, item.cond_block is not None, 0, 0])
            code.append(top)
            test = None
            if item.cond_block is not None:
                flatten_block(item.cond_block, code)
                test = Instr("LOOP_TEST", args=(item.cond,))
                code.append(test)
            skip_idx = len(code)
            flatten_block(item.body_block, code)
            cont = Instr("LOOP_CONT", imm=None)
            code.append(cont)
            if item.update_block is not None:
                flatten_block(item.update_block, code)
            iter_idx = len(code)
            code.append(Instr("LOOP_ITER", imm=top_idx))
            if item.update_block is not None:
                cont.imm = iter_idx
            code.append(Instr("LOOP_POP"))
            exit_idx = len(code) - 1
            top.imm = (item.pretest, item.cond_block is not None,
                       exit_idx, skip_idx)
            if test is not None:
                test.imm = exit_idx
        elif isinstance(item, CondRegion):
            begin = Instr("CBEGIN", args=(item.cond,))
            code.append(begin)
            flatten_block(item.true_block, code)
            els = Instr("CELSE", args=(item.true_reg,))
            code.append(els)
            begin.imm = len(code) - 1
            flatten_block(item.false_block, code)
            code.append(Instr("CEND", out=item.out,
                              args=(item.true_reg, item.false_reg),
                              imm=None, type=item.type))
            els.imm = len(code) - 1
        elif isinstance(item, ScRegion):
            begin = Instr("SCBEGIN", args=(item.left,), imm=[item.op, 0])
            code.append(begin)
            flatten_block(item.rhs_block, code)
            code.append(Instr("SCEND", out=item.out,
                              args=(item.left, item.right), imm=item.op))
            begin.imm = (item.op, len(code) - 1)
        elif isinstance(item, FuncRegion):
            code.append(Instr("FUNC_PUSH", imm=item.ret_type))
            flatten_block(item.body_block, code)
            code.append(Instr("FUNC_POP", out=item.out, imm=item.ret_type))
        else:  # pragma: no cover - structural invariant
            raise GlslRuntimeError(f"cannot flatten {type(item).__name__}")


def flatten_program(program: CompiledProgram) -> None:
    """Fill the program's linear code caches (idempotent)."""
    if program.linear is not None:
        return
    code: List[Instr] = []
    flatten_block(program.body, code)
    program.linear = code
    program.global_linear = {}
    for plan in program.globals_plan:
        if plan.init_block is not None:
            init_code: List[Instr] = []
            flatten_block(plan.init_block, init_code)
            program.global_linear[plan.name] = init_code


class _LoopCtrl:
    __slots__ = ("region", "loop", "iterations")

    def __init__(self, region, loop):
        self.region = region
        self.loop = loop
        self.iterations = 0


# ======================================================================
# Executor
# ======================================================================
class IRExecutor(Interpreter):
    """Runs compiled IR on the :class:`Interpreter` runtime base: the
    base binds the globals, this class dispatches the flat instruction
    list."""

    def __init__(self, checked, float_model=None, counters=None,
                 max_loop_iterations: int = DEFAULT_MAX_LOOP_ITERATIONS):
        super().__init__(checked, float_model, counters, max_loop_iterations)
        self.call_stack: List[np.ndarray] = []
        self.if_ctrl: list = []
        self.loop_ctrl: List[_LoopCtrl] = []
        self.cond_ctrl: list = []
        self.sc_ctrl: list = []

    def execute(self, n: int, presets: Dict[str, Value]) -> Dict[str, Value]:
        self.call_stack = []
        self.if_ctrl = []
        self.loop_ctrl = []
        self.cond_ctrl = []
        self.sc_ctrl = []
        super().execute(n, presets)
        self._run(self.program.pairs())
        return self.globals_env

    def _run_global_init(self, program: CompiledProgram, plan) -> Value:
        # A batch-1 frame and mask while self.n keeps the full batch
        # size: the initialiser is per-draw work, evaluated once.
        saved_mask = self.exec_mask
        self.exec_mask = np.ones(1, dtype=bool)
        frame = _FunctionFrame(1, plan.type, self.fmodel.dtype)
        self.frames.append(frame)
        try:
            self._run(program.init_pairs(plan.name))
        finally:
            self.frames.pop()
            self.exec_mask = saved_mask
        return self.regs[plan.init_reg]

    def _run(self, pairs) -> None:
        pc = 0
        n = len(pairs)
        while pc < n:
            handler, ins = pairs[pc]
            r = handler(self, ins)
            pc = pc + 1 if r is None else r

    # ------------------------------------------------------------------
    # L-value paths
    # ------------------------------------------------------------------
    def _make_ref(self, ins: Instr, path, idx_base: int):
        ref = _VarRef(self, self.regs[ins.args[0]])
        i = idx_base
        for step in path:
            kind = step[0]
            if kind == "f":
                ref = _FieldRef(self, ref, step[1])
            elif kind == "s":
                ref = _SwizzleRef(self, ref, step[1], step[2])
            else:
                ref = _IndexRef(self, ref, self.regs[ins.args[i]].data, step[1])
                i += 1
        return ref

    # ------------------------------------------------------------------
    # Value op handlers
    # ------------------------------------------------------------------
    def _h_const(self, ins):
        gtype, data = self.consts[ins.imm]
        # Fresh wrapper per execution: the pooled array is shared and
        # must never be reached by a masked assignment.
        self.regs[ins.out] = Value(gtype, data)

    def _h_move(self, ins):
        self.regs[ins.out] = self.regs[ins.args[0]]

    def _h_copy(self, ins):
        self.regs[ins.out] = self.regs[ins.args[0]].clone()

    def _h_decl(self, ins):
        self.regs[ins.out] = zeros_for(ins.type, 1, self.fmodel.dtype)

    def _h_unary(self, ins):
        operand = self.regs[ins.args[0]]
        if ins.imm == "-":
            data = -operand.data
            if operand.type.is_float_based():
                data = self.fmodel.quantize(data)
            self._count("alu", operand.type.component_count())
            self.regs[ins.out] = Value(operand.type, data)
        else:  # "!"
            self._count("alu")
            from ..types import BOOL
            self.regs[ins.out] = Value(BOOL, ~operand.data)

    def _h_arith(self, ins):
        self.regs[ins.out] = self._eval_arith(
            ins.imm[0], self.regs[ins.args[0]], self.regs[ins.args[1]],
            ins.type)

    def _h_compare(self, ins):
        from ..types import BOOL
        left = self.regs[ins.args[0]]
        right = self.regs[ins.args[1]]
        self._count("alu")
        self.regs[ins.out] = Value(
            BOOL, _COMPARE_FUNCS[ins.imm](left.data, right.data))

    def _h_equal(self, ins):
        from ..types import BOOL
        left = self.regs[ins.args[0]]
        right = self.regs[ins.args[1]]
        data = self._equal_data(left, right)
        if ins.imm[0] == "!=":
            data = ~data
        self._count("alu", left.type.component_count()
                    if left.data is not None else 1)
        self.regs[ins.out] = Value(BOOL, data)

    def _h_xor(self, ins):
        from ..types import BOOL
        left = self.regs[ins.args[0]]
        right = self.regs[ins.args[1]]
        self._count("alu")
        self.regs[ins.out] = Value(BOOL, left.data ^ right.data)

    def _h_construct(self, ins):
        self.regs[ins.out] = self._construct(
            ins.type, [self.regs[a] for a in ins.args])

    def _h_field(self, ins):
        self.regs[ins.out] = self.regs[ins.args[0]].fields[ins.imm]

    def _h_swizzle(self, ins):
        base = self.regs[ins.args[0]]
        indices = ins.imm
        if len(indices) == 1:
            self.regs[ins.out] = Value(ins.type, base.data[:, indices[0]])
        else:
            self.regs[ins.out] = Value(ins.type, base.data[:, list(indices)])

    def _h_index(self, ins):
        self.regs[ins.out] = self._index_value(
            self.regs[ins.args[0]], self.regs[ins.args[1]], ins.type)

    def _h_builtin(self, ins):
        self.regs[ins.out] = self._apply_builtin(
            ins.imm[1], [self.regs[a] for a in ins.args], ins.type)

    def _h_load(self, ins):
        self.regs[ins.out] = self._make_ref(ins, ins.imm, 1).read()

    def _h_store(self, ins):
        ref = self._make_ref(ins, ins.imm, 2)
        ref.write(self.regs[ins.args[1]], self.exec_mask)

    def _h_store_var(self, ins):
        # Bind-time specialisation of ``store`` with an empty l-value
        # path (a plain variable).  Under a full mask the blend result
        # is value-identical to the source, and the no-in-place
        # invariant (stores replace ``Value.data``, never mutate
        # arrays) makes sharing the source array safe.
        target = self.regs[ins.args[0]]
        source = self.regs[ins.args[1]]
        mask = self._exec_mask
        lanes = self._nactive
        if lanes < 0:
            lanes = self._nactive = int(mask.sum())
        tdata = target.data
        sdata = source.data
        if (lanes == mask.shape[0] and tdata is not None
                and sdata is not None
                and sdata.dtype == tdata.dtype
                and sdata.shape[1:] == tdata.shape[1:]
                and sdata.shape[0] >= tdata.shape[0]):
            target.data = sdata
            return
        assign_masked(target, source, mask)

    def _h_incdec(self, ins):
        path, op, prefix = ins.imm
        ref = self._make_ref(ins, path, 1)
        old = ref.read()
        old_data = old.data
        one = np.asarray(1, dtype=old_data.dtype)
        delta = one if op == "++" else -one
        new_data = old_data + delta
        if old.type.is_float_based():
            new_data = self.fmodel.quantize(new_data)
        self._count("alu", old.type.component_count())
        new = Value(old.type, new_data)
        ref.write(new, self.exec_mask)
        self.regs[ins.out] = new if prefix else Value(old.type, old_data.copy())

    def _h_select(self, ins):
        cond = self._broadcast_mask(self.regs[ins.args[0]].data)
        self.regs[ins.out] = self._blend(
            self.regs[ins.args[1]], self.regs[ins.args[2]], cond)

    def _h_sc_combine(self, ins):
        from ..types import BOOL
        left_mask = self._broadcast_mask(self.regs[ins.args[0]].data)
        right_mask = self._broadcast_mask(self.regs[ins.args[1]].data)
        rhs_mask = self.exec_mask & (left_mask if ins.imm == "&&" else ~left_mask)
        if ins.imm == "&&":
            result = left_mask & (right_mask | ~rhs_mask)
        else:
            result = left_mask | (right_mask & rhs_mask)
        self._count("alu")
        self.regs[ins.out] = Value(BOOL, result)

    # ------------------------------------------------------------------
    # Kill-channel handlers
    # ------------------------------------------------------------------
    def _h_return(self, ins):
        frame = self.frames[-1]
        if ins.args:
            assign_masked(frame.return_value, self.regs[ins.args[0]],
                          self.exec_mask)
        frame.returned |= self.exec_mask
        self.exec_mask = self.exec_mask & ~frame.returned

    def _h_break(self, ins):
        loop = self.frames[-1].loops[-1]
        loop.broken |= self.exec_mask
        self.exec_mask = self.exec_mask & ~loop.broken

    def _h_continue(self, ins):
        loop = self.frames[-1].loops[-1]
        loop.continued |= self.exec_mask
        self.exec_mask = self.exec_mask & ~loop.continued

    def _h_discard(self, ins):
        self.discarded |= self.exec_mask
        self.exec_mask = self.exec_mask & ~self.discarded

    # ------------------------------------------------------------------
    # Control handlers
    # ------------------------------------------------------------------
    def _h_if(self, ins):
        region = self.exec_mask
        cond = self._broadcast_mask(self.regs[ins.args[0]].data)
        self.if_ctrl.append((region, cond))
        then_mask = region & cond & self._live()
        self.exec_mask = then_mask
        if not then_mask.any():
            return ins.imm

    def _h_else(self, ins):
        region, cond = self.if_ctrl[-1]
        else_mask = region & ~cond & self._live()
        self.exec_mask = else_mask
        if not else_mask.any():
            return ins.imm

    def _h_endif(self, ins):
        region, _cond = self.if_ctrl.pop()
        self.exec_mask = region & self._live()

    def _h_loop_push(self, ins):
        region = self.exec_mask.copy()
        loop = _LoopFrame(self.n)
        self.frames[-1].loops.append(loop)
        self.loop_ctrl.append(_LoopCtrl(region, loop))

    def _h_loop_top(self, ins):
        pretest, has_cond, exit_idx, skip_idx = ins.imm
        entry = self.loop_ctrl[-1]
        self.exec_mask = entry.region & self._live()
        if not self.exec_mask.any():
            return exit_idx
        if has_cond and (pretest or entry.iterations > 0):
            return None  # fall through into the condition block
        return skip_idx

    def _h_loop_test(self, ins):
        entry = self.loop_ctrl[-1]
        cond = self._broadcast_mask(self.regs[ins.args[0]].data)
        entry.loop.exited |= self.exec_mask & ~cond
        self.exec_mask = self.exec_mask & cond
        if not self.exec_mask.any():
            return ins.imm

    def _h_loop_cont(self, ins):
        entry = self.loop_ctrl[-1]
        entry.loop.continued[:] = False
        self.exec_mask = entry.region & self._live()
        # Skip the update block when no lane needs it.
        if ins.imm is not None and not self.exec_mask.any():
            return ins.imm

    def _h_loop_iter(self, ins):
        entry = self.loop_ctrl[-1]
        entry.iterations += 1
        if entry.iterations > self.max_loop_iterations:
            raise GlslLimitError(
                f"loop exceeded {self.max_loop_iterations} iterations")
        return ins.imm

    def _h_loop_pop(self, ins):
        entry = self.loop_ctrl.pop()
        self.frames[-1].loops.pop()
        self.exec_mask = entry.region & self._live()

    def _h_cbegin(self, ins):
        cond = self._broadcast_mask(self.regs[ins.args[0]].data)
        saved = self.exec_mask
        true_mask = saved & cond
        false_mask = saved & ~cond
        if not false_mask.any():
            # Uniform-true fast path: evaluate the true arm under the
            # unmodified mask; result is an alias, no blend.
            self.cond_ctrl.append((saved, cond, "t"))
            return None
        if not true_mask.any():
            self.cond_ctrl.append((saved, cond, "f"))
            return ins.imm  # straight to CELSE
        self.cond_ctrl.append((saved, cond, "b"))
        self.exec_mask = true_mask
        return None

    def _h_celse(self, ins):
        saved, cond, mode = self.cond_ctrl[-1]
        if mode == "t":
            return ins.imm  # skip the false arm entirely
        if mode == "f":
            self.exec_mask = saved
            return None
        self.exec_mask = saved & ~cond
        return None

    def _h_cend(self, ins):
        saved, cond, mode = self.cond_ctrl.pop()
        self.exec_mask = saved
        if mode == "t":
            self.regs[ins.out] = self.regs[ins.args[0]]
        elif mode == "f":
            self.regs[ins.out] = self.regs[ins.args[1]]
        else:
            self.regs[ins.out] = self._blend(
                self.regs[ins.args[0]], self.regs[ins.args[1]], cond)

    def _h_scbegin(self, ins):
        op, end_idx = ins.imm
        left_mask = self._broadcast_mask(self.regs[ins.args[0]].data)
        saved = self.exec_mask
        rhs_mask = saved & (left_mask if op == "&&" else ~left_mask)
        evaluated = bool(rhs_mask.any())
        self.sc_ctrl.append((saved, left_mask, rhs_mask, evaluated))
        if evaluated:
            self.exec_mask = rhs_mask
            return None
        return end_idx

    def _h_scend(self, ins):
        from ..types import BOOL
        saved, left_mask, rhs_mask, evaluated = self.sc_ctrl.pop()
        self.exec_mask = saved
        if evaluated:
            right_mask = self._broadcast_mask(self.regs[ins.args[1]].data)
            if ins.imm == "&&":
                result = left_mask & (right_mask | ~rhs_mask)
            else:
                result = left_mask | (right_mask & rhs_mask)
        else:
            result = left_mask.copy()
        self._count("alu")
        self.regs[ins.out] = Value(BOOL, result)

    def _h_func_push(self, ins):
        if len(self.frames) > 64:
            raise GlslLimitError("function call nesting too deep")
        frame = _FunctionFrame(self.n, ins.imm, self.fmodel.dtype)
        self.call_stack.append(self.exec_mask.copy())
        self.frames.append(frame)

    def _h_func_pop(self, ins):
        frame = self.frames.pop()
        self.exec_mask = self.call_stack.pop() & self._live()
        if frame.return_value is not None:
            self.regs[ins.out] = frame.return_value
        else:
            self.regs[ins.out] = Value(ins.imm)


HANDLERS = {
    "const": IRExecutor._h_const,
    "move": IRExecutor._h_move,
    "copy": IRExecutor._h_copy,
    "decl": IRExecutor._h_decl,
    "unary": IRExecutor._h_unary,
    "arith": IRExecutor._h_arith,
    "compare": IRExecutor._h_compare,
    "equal": IRExecutor._h_equal,
    "xor": IRExecutor._h_xor,
    "construct": IRExecutor._h_construct,
    "field": IRExecutor._h_field,
    "swizzle": IRExecutor._h_swizzle,
    "index": IRExecutor._h_index,
    "builtin": IRExecutor._h_builtin,
    "texture": IRExecutor._h_builtin,
    "load": IRExecutor._h_load,
    "store": IRExecutor._h_store,
    "incdec": IRExecutor._h_incdec,
    "select": IRExecutor._h_select,
    "sc_combine": IRExecutor._h_sc_combine,
    "return": IRExecutor._h_return,
    "break": IRExecutor._h_break,
    "continue": IRExecutor._h_continue,
    "discard": IRExecutor._h_discard,
    "IF": IRExecutor._h_if,
    "ELSE": IRExecutor._h_else,
    "ENDIF": IRExecutor._h_endif,
    "LOOP_PUSH": IRExecutor._h_loop_push,
    "LOOP_TOP": IRExecutor._h_loop_top,
    "LOOP_TEST": IRExecutor._h_loop_test,
    "LOOP_CONT": IRExecutor._h_loop_cont,
    "LOOP_ITER": IRExecutor._h_loop_iter,
    "LOOP_POP": IRExecutor._h_loop_pop,
    "CBEGIN": IRExecutor._h_cbegin,
    "CELSE": IRExecutor._h_celse,
    "CEND": IRExecutor._h_cend,
    "SCBEGIN": IRExecutor._h_scbegin,
    "SCEND": IRExecutor._h_scend,
    "FUNC_PUSH": IRExecutor._h_func_push,
    "FUNC_POP": IRExecutor._h_func_pop,
}


def _handler_for(ins: Instr):
    # Empty-path loads/stores are plain variable accesses: specialise
    # at bind time to skip the l-value reference chain entirely.
    if ins.op == "store" and ins.imm == ():
        return IRExecutor._h_store_var
    if ins.op == "load" and ins.imm == ():
        return IRExecutor._h_move
    return HANDLERS[ins.op]


def _bind_pairs(code: List[Instr]):
    return [(_handler_for(ins), ins) for ins in code]


def _program_pairs(self: CompiledProgram):
    """Pre-bound (handler, instr) pairs for the main body (cached)."""
    flatten_program(self)
    pairs = getattr(self, "_pairs", None)
    if pairs is None:
        pairs = _bind_pairs(self.linear)
        self._pairs = pairs
    return pairs


def _program_init_pairs(self: CompiledProgram, name: str):
    flatten_program(self)
    cache = getattr(self, "_init_pairs", None)
    if cache is None:
        cache = {}
        self._init_pairs = cache
    pairs = cache.get(name)
    if pairs is None:
        pairs = _bind_pairs(self.global_linear[name])
        cache[name] = pairs
    return pairs


def _program_simple_inits(self: CompiledProgram):
    """Global initialisers the fold pass reduced to a lone constant:
    ``name -> const pool index`` (cached).  The executor materialises
    these directly instead of running an activation frame."""
    simple = getattr(self, "_simple_inits", None)
    if simple is None:
        simple = {}
        for plan in self.globals_plan:
            block = plan.init_block
            if block is None or len(block.items) != 1:
                continue
            ins = block.items[0]
            if isinstance(ins, Instr) and ins.op == "const" \
                    and ins.out == plan.init_reg:
                simple[plan.name] = ins.imm
        self._simple_inits = simple
    return simple


CompiledProgram.pairs = _program_pairs
CompiledProgram.init_pairs = _program_init_pairs
CompiledProgram.simple_inits = _program_simple_inits
