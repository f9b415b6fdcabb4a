"""The linear, register-based IR for compiled GLSL shaders.

A :class:`CompiledProgram` is the artifact produced by
:mod:`repro.glsl.ir.lower` and consumed by the flat-loop executor
(:mod:`repro.glsl.ir.executor`), the optimisation passes
(:mod:`repro.glsl.ir.passes`) and the static cost model
(:mod:`repro.glsl.ir.cost`).

The IR is *structured*: straight-line value operations are plain
:class:`Instr` records over an infinite register file, while control
flow is explicit region nodes (:class:`IfRegion`, :class:`LoopRegion`,
:class:`CondRegion`, :class:`ScRegion`, :class:`FuncRegion`) that
carry the four divergence channels (``return`` / ``break`` /
``continue`` / ``discard``) as explicit lane masks at execution time.
User function calls are inlined at lower time (GLSL ES 1.00 forbids
recursion, so inlining always terminates) and Appendix-A ``for`` loops
are *bounded* at lower time: the lowering derives a static trip count
whenever the loop matches the Appendix-A shape, which the static cost
model consumes.

The structured form is flattened into a linear instruction list with
jump targets by the executor; the structured form is what the golden
IR dumps (``tests/corpus/*.ir``) record.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

# ----------------------------------------------------------------------
# Instruction opcodes (value ops + straight-line effects)
# ----------------------------------------------------------------------
#: Pure value ops: produce a register from argument registers with no
#: side effects.  Safe to fold / CSE / speculate (texture excluded from
#: CSE and DCE only to keep ``tex`` counter semantics close to the
#: source: one count per texture call executed).
PURE_OPS = frozenset({
    "const", "move", "unary", "arith", "compare", "equal", "xor",
    "construct", "field", "swizzle", "index", "builtin", "load",
    "select", "sc_combine",
})

#: Ops whose only effect is a masked write through an l-value path.
STORE_OPS = frozenset({"store", "incdec"})

#: Mask ops: kill lanes through one of the divergence channels.
KILL_OPS = frozenset({"return", "break", "continue", "discard"})


class Instr:
    """One straight-line IR instruction.

    Fields
    ------
    op:
        Opcode string (see module docstring / executor table).
    out:
        Destination register or None.
    args:
        Tuple of argument registers.
    imm:
        Opcode-specific immediate payload (operator string, swizzle
        indices, l-value path, constant-pool index, ...).
    type:
        The result :class:`~repro.glsl.types.GlslType` where the
        executor needs it (arith/construct/index/...).
    gather:
        Texture instructions only: ``(size_reg, x_reg, y_reg)`` when
        the annotation pass (:mod:`repro.glsl.ir.gather`) proved the
        sample coordinates are the kernel codegen's texel-centre form
        ``(vec2(x, y) + 0.5) / size`` — i.e. integer texel indices
        ``x``/``y`` divided back out of normalised space.  Backends
        may then gather texel storage directly once the runtime
        qualification (sampler complete, NEAREST + CLAMP_TO_EDGE,
        indices in-range) holds; None everywhere else.
    """

    __slots__ = ("op", "out", "args", "imm", "type", "gather")

    def __init__(self, op, out=None, args=(), imm=None, type=None,
                 gather=None):
        self.op = op
        self.out = out
        self.args = tuple(args)
        self.imm = imm
        self.type = type
        self.gather = gather

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instr({format_instr(self)})"


class Block:
    """An ordered sequence of instructions and nested regions."""

    __slots__ = ("items",)

    def __init__(self, items: Optional[list] = None):
        self.items: List[Union[Instr, "Region"]] = items if items is not None else []

    def append(self, item) -> None:
        self.items.append(item)


class IfRegion:
    """``if`` statement: masked execution of one or two branches."""

    __slots__ = ("cond", "then_block", "else_block")

    def __init__(self, cond: int, then_block: Block, else_block: Optional[Block]):
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block


class LoopRegion:
    """``for`` / ``while`` / ``do-while``: masked loop with per-lane
    break/continue/exit channels.

    ``static_trips`` is the Appendix-A trip count derived at lower
    time, or None when the loop shape is not statically analysable.
    """

    __slots__ = ("pretest", "cond_block", "cond", "body_block",
                 "update_block", "static_trips")

    def __init__(self, pretest: bool, cond_block: Optional[Block],
                 cond: Optional[int], body_block: Block,
                 update_block: Optional[Block], static_trips: Optional[int]):
        self.pretest = pretest
        self.cond_block = cond_block
        self.cond = cond
        self.body_block = body_block
        self.update_block = update_block
        self.static_trips = static_trips


class CondRegion:
    """Ternary ``?:`` with the executors' uniform fast paths."""

    __slots__ = ("cond", "true_block", "true_reg", "false_block",
                 "false_reg", "out", "type")

    def __init__(self, cond, true_block, true_reg, false_block,
                 false_reg, out, type):
        self.cond = cond
        self.true_block = true_block
        self.true_reg = true_reg
        self.false_block = false_block
        self.false_reg = false_reg
        self.out = out
        self.type = type


class ScRegion:
    """Short-circuit ``&&`` / ``||``: the rhs only executes on lanes
    the lhs did not decide."""

    __slots__ = ("op", "left", "rhs_block", "right", "out")

    def __init__(self, op, left, rhs_block, right, out):
        self.op = op
        self.left = left
        self.rhs_block = rhs_block
        self.right = right
        self.out = out


class FuncRegion:
    """One inlined user-function invocation: pushes an activation
    frame (``returned`` mask + return-value slot) around its body."""

    __slots__ = ("name", "ret_type", "body_block", "out")

    def __init__(self, name, ret_type, body_block, out):
        self.name = name
        self.ret_type = ret_type
        self.body_block = body_block
        self.out = out


Region = (IfRegion, LoopRegion, CondRegion, ScRegion, FuncRegion)


class GlobalPlan:
    """How one shader global gets its initial register value."""

    __slots__ = ("name", "reg", "type", "is_sampler", "init_block", "init_reg")

    def __init__(self, name, reg, type, is_sampler=False,
                 init_block: Optional[Block] = None, init_reg: Optional[int] = None):
        self.name = name
        self.reg = reg
        self.type = type
        self.is_sampler = is_sampler
        self.init_block = init_block
        self.init_reg = init_reg


class CompiledProgram:
    """The compiled artifact for one shader stage.

    Holds the structured IR (``body`` + per-global init blocks), the
    constant pool (master copies; materialised per float dtype by the
    executor) and, once the executor has flattened it, the linear
    instruction streams.
    """

    def __init__(self, checked, globals_plan: List[GlobalPlan],
                 body: Block, nregs: int,
                 consts: List[Tuple[object, np.ndarray]]):
        self.checked = checked
        self.globals_plan = globals_plan
        self.body = body
        self.nregs = nregs
        #: constant pool: (GlslType, master ndarray).  Float-based
        #: masters are stored in the dtype they were folded/parsed in
        #: and cast to the executor's float dtype at bind time.
        self.consts = consts
        #: dtype str -> list of materialised constant Values
        self._const_cache: Dict[str, list] = {}
        #: flattened linear code (filled by executor.flatten_program)
        self.linear = None
        self.global_linear = None

    def materialized_consts(self, fmodel):
        """Constant Values for one float model (cached per dtype)."""
        from ..values import Value

        key = np.dtype(fmodel.dtype).str
        cached = self._const_cache.get(key)
        if cached is None:
            cached = []
            for gtype, master in self.consts:
                if gtype.is_float_based() and master.dtype != fmodel.dtype:
                    data = master.astype(fmodel.dtype)
                else:
                    data = master
                cached.append((gtype, data))
            self._const_cache[key] = cached
        return cached


# ----------------------------------------------------------------------
# Deterministic text dump (golden IR tests)
# ----------------------------------------------------------------------
def _fmt_imm(imm) -> str:
    if imm is None:
        return ""
    if isinstance(imm, tuple) and len(imm) == 2 and hasattr(imm[1], "impl"):
        return imm[0]  # (builtin key, overload object)
    return repr(imm)


def format_instr(ins: Instr) -> str:
    parts = [ins.op]
    if ins.out is not None:
        parts.append(f"r{ins.out} <-")
    if ins.args:
        parts.append(" ".join(f"r{a}" for a in ins.args))
    imm = _fmt_imm(ins.imm)
    if imm:
        parts.append(imm)
    if ins.type is not None:
        parts.append(f": {ins.type}")
    if getattr(ins, "gather", None) is not None:
        size_reg, x_reg, y_reg = ins.gather
        parts.append(f"gather(size=r{size_reg}, x=r{x_reg}, y=r{y_reg})")
    return " ".join(parts)


def _dump_block(block: Block, indent: str, lines: List[str]) -> None:
    for item in block.items:
        if isinstance(item, Instr):
            lines.append(indent + format_instr(item))
        elif isinstance(item, IfRegion):
            lines.append(indent + f"if r{item.cond} {{")
            _dump_block(item.then_block, indent + "  ", lines)
            if item.else_block is not None:
                lines.append(indent + "} else {")
                _dump_block(item.else_block, indent + "  ", lines)
            lines.append(indent + "}")
        elif isinstance(item, LoopRegion):
            kind = "loop" if item.pretest else "do-loop"
            trips = "?" if item.static_trips is None else str(item.static_trips)
            lines.append(indent + f"{kind} trips={trips} {{")
            if item.cond_block is not None:
                lines.append(indent + "  cond {")
                _dump_block(item.cond_block, indent + "    ", lines)
                lines.append(indent + f"  }} test r{item.cond}")
            _dump_block(item.body_block, indent + "  ", lines)
            if item.update_block is not None:
                lines.append(indent + "  update {")
                _dump_block(item.update_block, indent + "    ", lines)
                lines.append(indent + "  }")
            lines.append(indent + "}")
        elif isinstance(item, CondRegion):
            lines.append(indent + f"cond r{item.out} <- r{item.cond} ? {{")
            _dump_block(item.true_block, indent + "  ", lines)
            lines.append(indent + f"  -> r{item.true_reg}")
            lines.append(indent + "} : {")
            _dump_block(item.false_block, indent + "  ", lines)
            lines.append(indent + f"  -> r{item.false_reg}")
            lines.append(indent + "}")
        elif isinstance(item, ScRegion):
            lines.append(indent + f"sc r{item.out} <- r{item.left} {item.op} {{")
            _dump_block(item.rhs_block, indent + "  ", lines)
            lines.append(indent + f"  -> r{item.right}")
            lines.append(indent + "}")
        elif isinstance(item, FuncRegion):
            out = "" if item.out is None else f"r{item.out} <- "
            lines.append(indent + f"call {out}{item.name} {{")
            _dump_block(item.body_block, indent + "  ", lines)
            lines.append(indent + "}")
        else:  # pragma: no cover - structural invariant
            raise TypeError(f"unknown IR node {type(item).__name__}")


def dump_ir(compiled: CompiledProgram) -> str:
    """Deterministic human-readable dump of a compiled program."""
    lines: List[str] = [f"; {len(compiled.consts)} consts, {compiled.nregs} regs"]
    for i, (gtype, master) in enumerate(compiled.consts):
        flat = np.asarray(master).reshape(-1)
        text = ", ".join(repr(x.item()) for x in flat[:8])
        if flat.size > 8:
            text += ", ..."
        lines.append(f"const[{i}] {gtype} = [{text}]")
    for plan in compiled.globals_plan:
        tag = "sampler " if plan.is_sampler else ""
        lines.append(f"global r{plan.reg} = {tag}{plan.name} : {plan.type}")
        if plan.init_block is not None:
            lines.append("init {")
            _dump_block(plan.init_block, "  ", lines)
            lines.append(f"}} -> r{plan.init_reg}")
    lines.append("body {")
    _dump_block(compiled.body, "  ", lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
