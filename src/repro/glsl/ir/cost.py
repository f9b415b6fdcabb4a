"""Static instruction-cost model over the compiled IR artifact.

Counts per-invocation ALU/SFU/texture operations by walking the
*post-pass* structured program — the same artifact the executor runs —
using the same per-op formulas the runtime counters apply.  For
straight-line programs (after select-conversion this includes the
paper's int32 E1 kernels) the static count times the invocation count
equals the dynamic tally exactly; divergent constructs (non-converted
branches, data-dependent loops, kill channels) make the count an
estimate and clear the ``exact`` flag.

Global initializers execute once per draw at batch size 1, so their
cost is reported separately as ``per_draw``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

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
from .gather import texture_instrs


@dataclass
class _BlockCost:
    counts: Dict[str, int] = field(default_factory=dict)
    exact: bool = True

    def add(self, category: str, ops: int) -> None:
        if ops:
            self.counts[category] = self.counts.get(category, 0) + ops

    def merge(self, other: "_BlockCost", times: int = 1) -> None:
        for cat, ops in other.counts.items():
            self.add(cat, ops * times)
        self.exact = self.exact and other.exact

    def total(self) -> int:
        return sum(self.counts.values())


def _instr_cost(ins: Instr, cost: _BlockCost) -> None:
    op = ins.op
    if op == "unary":
        if ins.imm == "-":
            cost.add("alu", ins.type.component_count() if ins.type else 1)
        else:
            cost.add("alu", 1)
    elif op == "arith":
        cost.add("alu", ins.imm[1])
    elif op in ("compare", "xor", "sc_combine"):
        cost.add("alu", 1)
    elif op == "equal":
        cost.add("alu", ins.imm[1])
    elif op == "construct":
        if ins.type is not None and not ins.type.is_struct():
            cost.add("alu", ins.type.component_count())
    elif op == "builtin":
        overload = ins.imm[1]
        cost.add(overload.category,
                 ins.type.component_count() if ins.type else 1)
    elif op == "texture":
        cost.add("tex", 1)
    elif op == "incdec":
        cost.add("alu", ins.type.component_count() if ins.type else 1)
    elif op in ("break", "continue", "discard"):
        # Kill channels make every later count mask-dependent.
        cost.exact = False
    # const/move/copy/decl/load/store/field/swizzle/index/select/return
    # are free; `return` exactness is handled positionally by the
    # caller (a tail return kills no counted work).


def _block_cost(block: Optional[Block], tail_func: bool = False) -> _BlockCost:
    cost = _BlockCost()
    if block is None:
        return cost
    last = len(block.items) - 1
    for pos, item in enumerate(block.items):
        if isinstance(item, Instr):
            if item.op == "return":
                if not (tail_func and pos == last):
                    cost.exact = False
                continue
            _instr_cost(item, cost)
        elif isinstance(item, IfRegion):
            then_cost = _block_cost(item.then_block)
            else_cost = _block_cost(item.else_block)
            if then_cost.total() or else_cost.total():
                cost.exact = False
            cost.merge(then_cost)
            cost.merge(else_cost)
        elif isinstance(item, CondRegion):
            true_cost = _block_cost(item.true_block)
            false_cost = _block_cost(item.false_block)
            if true_cost.total() or false_cost.total():
                cost.exact = False
            cost.merge(true_cost)
            cost.merge(false_cost)
        elif isinstance(item, ScRegion):
            rhs_cost = _block_cost(item.rhs_block)
            if rhs_cost.total():
                cost.exact = False
            cost.merge(rhs_cost)
            cost.add("alu", 1)  # the combine itself always counts
        elif isinstance(item, LoopRegion):
            cond_cost = _block_cost(item.cond_block)
            body_cost = _block_cost(item.body_block)
            update_cost = _block_cost(item.update_block)
            trips = item.static_trips
            if trips is None:
                # Unknown trip count: charge one nominal iteration.
                cost.exact = False
                cost.merge(cond_cost)
                cost.merge(body_cost)
                cost.merge(update_cost)
            else:
                # The condition runs once more than the body (the
                # final, failing evaluation).
                cost.merge(cond_cost, trips + 1)
                cost.merge(body_cost, trips)
                cost.merge(update_cost, trips)
        elif isinstance(item, FuncRegion):
            cost.merge(_block_cost(item.body_block, tail_func=True))
    return cost


@dataclass
class StaticCost:
    """Static op counts for one compiled shader stage."""

    #: ops per shader invocation (per fragment / per vertex)
    per_invocation: Dict[str, int]
    #: ops per draw call (global initializers, batch-1)
    per_draw: Dict[str, int]
    #: True when the counts are guaranteed to equal the dynamic tally
    exact: bool
    #: texture sites carrying the gather annotation (see
    #: :mod:`repro.glsl.ir.gather`) — the sites the JIT turns into
    #: fused stored-byte reads.  Informational: they still count as
    #: ``tex`` ops (and their decode as ALU ops) in :meth:`totals` —
    #: the modeled GPU runs the shader as written — so the
    #: dynamic-parity guarantee of the projection is unchanged.
    gather_sites: int = 0

    def totals(self, invocations: int) -> Dict[str, int]:
        """Projected dynamic counter totals for a draw shading
        ``invocations`` lanes with no kills."""
        cats = set(self.per_invocation) | set(self.per_draw)
        return {
            cat: self.per_invocation.get(cat, 0) * invocations
            + self.per_draw.get(cat, 0)
            for cat in cats
        }


def static_cost(program: CompiledProgram) -> StaticCost:
    """Compute the static cost of a compiled program."""
    draw = _BlockCost()
    for plan in program.globals_plan:
        if plan.init_block is not None:
            draw.merge(_block_cost(plan.init_block))
    body = _block_cost(program.body)
    return StaticCost(
        per_invocation=dict(body.counts),
        per_draw=dict(draw.counts),
        exact=body.exact and draw.exact,
        gather_sites=sum(1 for tex in texture_instrs(program.body)
                         if tex.gather is not None),
    )
