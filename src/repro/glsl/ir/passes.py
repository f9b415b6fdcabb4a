"""IR optimisation passes: constant folding + static branch pruning,
select-conversion (if-conversion of pure ternary/short-circuit arms),
call-frame elision, parameter copy propagation, store-to-load
forwarding, common-subexpression elimination and dead-code
elimination.

Folding is *abstract execution*: a batch-1 host executor runs the real
instruction handlers under the real float model, so folded constants
are bit-exact per precision model by construction — this is strictly
stronger than the scalar literal folding the old AST-level
``optimize.py`` pass performed (see :mod:`repro.glsl.ir.foldrules`).

Soundness notes
---------------
* At every statement boundary the executor maintains
  ``exec_mask ⊆ live()``; splicing a statically-taken branch in place
  of its region is therefore mask- and count-exact.
* Value ops always compute full-width data — masks only gate stores,
  counts and control — so speculating *pure* ternary/short-circuit arms
  (select-conversion) is value-exact.  Arms whose result is an *alias*
  of mutable storage (a bare variable, a struct field) snapshot at the
  select, while the interpreter's uniform fast path returns the alias
  itself, which observes later stores — such arms are only converted
  when the window between the region and the last reader of its result
  is provably store-free, so both timings read the same data.
* CSE availability is scoped to the enclosing region (arms can be
  skipped at runtime) and entries are invalidated when any variable in
  their transitive dependence set is stored to; loop regions
  pre-invalidate everything their body writes so renamed uses can never
  go stale across iterations.
* Frame elision: a :class:`FuncRegion` exists only to service the
  ``return`` kill channel (the ``returned`` mask, the return-value
  blend) and to host loop frames.  A body whose only ``return`` is the
  final top-level instruction and which contains no loops needs
  neither: the frame push/pop brackets are dropped and the tail return
  becomes a plain ``move``.  Lane-exactness: value ops compute
  full-width data regardless of masks, and the frame's return-value
  blend only zero-fills lanes that are already dead (never stored),
  so outputs are bit-identical.
* Copy propagation: an ``in``-parameter ``copy`` whose register is
  never the root of a store — and whose source, with any storage the
  source aliases, is stored only before the copy — can alias instead
  of clone.  Stores replace ``Value.data`` with fresh arrays (the
  no-in-place invariant), so such an alias can never observe a
  divergent write.
* Store forwarding: see :func:`forward_stores`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ...perf import counters
from ..errors import GlslError
from ..values import Value
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

#: Ops abstract execution can evaluate when every argument is constant.
_FOLDABLE = frozenset({
    "move", "unary", "arith", "compare", "equal", "xor", "construct",
    "swizzle", "index", "builtin", "select", "sc_combine",
})

#: Ops safe to speculate under select-conversion (no side effects, no
#: masked stores, no texture-unit traffic, defined on garbage lanes).
_SPECULATABLE = frozenset({
    "const", "unary", "arith", "compare", "equal", "xor", "construct",
    "swizzle", "index", "builtin", "select", "sc_combine",
})

#: Ops whose result register aliases mutable storage; converting an arm
#: ending in one of these would change alias semantics (see module
#: docstring).
_ALIASING = frozenset({"field", "move", "load"})

#: Ops eligible for CSE (value ops with copy semantics; ``field`` and
#: ``load`` alias storage, textures keep their counter semantics).
_CSEABLE = frozenset({
    "const", "unary", "arith", "compare", "equal", "xor", "swizzle",
    "index", "builtin", "construct", "select", "sc_combine",
})


def _imm_key(ins: Instr):
    imm = ins.imm
    if ins.op in ("builtin", "texture"):
        return imm[0]  # the mangled overload key
    if isinstance(imm, (str, int, bool, tuple, type(None))):
        try:
            hash(imm)
            return imm
        except TypeError:
            pass
    return repr(imm)


# ======================================================================
# Constant folding + static branch pruning
# ======================================================================
class _FoldPass:
    def __init__(self, program: CompiledProgram, fmodel):
        from .executor import HANDLERS, IRExecutor

        self.program = program
        self.handlers = HANDLERS
        host = IRExecutor(None, float_model=fmodel)
        host.n = 1
        host.exec_mask = np.ones(1, dtype=bool)
        host.discarded = np.zeros(1, dtype=bool)
        host.frames = []
        host.regs = {}
        self.host = host
        program._const_cache = {}
        self.materialized = program.materialized_consts(fmodel)
        #: reg -> known-constant Value
        self.known: Dict[int, Value] = {}
        self._pool_index: Dict[tuple, int] = {}
        for i, (gtype, master) in enumerate(program.consts):
            self._pool_index[self._pool_key(gtype, master)] = i
        self.changed = False

    @staticmethod
    def _pool_key(gtype, master: np.ndarray):
        return (str(gtype), master.dtype.str, master.shape, master.tobytes())

    def _intern(self, gtype, master: np.ndarray) -> int:
        key = self._pool_key(gtype, master)
        idx = self._pool_index.get(key)
        if idx is None:
            idx = len(self.program.consts)
            self.program.consts.append((gtype, master))
            self._pool_index[key] = idx
        return idx

    def run(self) -> bool:
        for plan in self.program.globals_plan:
            if plan.init_block is not None:
                self.fold_block(plan.init_block)
        self.fold_block(self.program.body)
        if self.changed:
            self.program._const_cache = {}
        return self.changed

    def fold_block(self, block: Block) -> None:
        new_items: list = []
        for item in block.items:
            if isinstance(item, Instr):
                new_items.append(self.fold_instr(item))
            elif isinstance(item, IfRegion):
                self.fold_block(item.then_block)
                if item.else_block is not None:
                    self.fold_block(item.else_block)
                flag = self._const_flag(item.cond)
                if flag is None:
                    new_items.append(item)
                elif flag:
                    new_items.extend(item.then_block.items)
                    self.changed = True
                else:
                    if item.else_block is not None:
                        new_items.extend(item.else_block.items)
                    self.changed = True
            elif isinstance(item, CondRegion):
                self.fold_block(item.true_block)
                self.fold_block(item.false_block)
                flag = self._const_flag(item.cond)
                if flag is None:
                    new_items.append(item)
                else:
                    # The interpreter's uniform fast path returns the
                    # taken arm's value directly (an alias) — a move.
                    block_taken = item.true_block if flag else item.false_block
                    reg = item.true_reg if flag else item.false_reg
                    new_items.extend(block_taken.items)
                    new_items.append(Instr("move", out=item.out, args=(reg,),
                                           type=item.type))
                    self.changed = True
            elif isinstance(item, ScRegion):
                self.fold_block(item.rhs_block)
                new_items.append(item)
            elif isinstance(item, LoopRegion):
                if item.cond_block is not None:
                    self.fold_block(item.cond_block)
                self.fold_block(item.body_block)
                if item.update_block is not None:
                    self.fold_block(item.update_block)
                new_items.append(item)
            elif isinstance(item, FuncRegion):
                self.fold_block(item.body_block)
                new_items.append(item)
            else:  # pragma: no cover
                new_items.append(item)
        block.items = new_items

    def _const_flag(self, reg: int) -> Optional[bool]:
        value = self.known.get(reg)
        if value is None or value.data is None or value.data.shape != (1,):
            return None
        return bool(value.data[0])

    def fold_instr(self, ins: Instr) -> Instr:
        if ins.op == "const":
            gtype, data = self.materialized[ins.imm] \
                if ins.imm < len(self.materialized) \
                else self.program.consts[ins.imm]
            self.known[ins.out] = Value(gtype, data)
            return ins
        if ins.op == "move" and ins.args[0] in self.known:
            self.known[ins.out] = self.known[ins.args[0]]
        if ins.op not in _FOLDABLE or ins.out is None:
            return ins
        if not ins.args or not all(a in self.known for a in ins.args):
            return ins
        host = self.host
        try:
            for a in ins.args:
                host.regs[a] = self.known[a]
            self.handlers[ins.op](host, ins)
            result = host.regs[ins.out]
        except (GlslError, ZeroDivisionError, FloatingPointError,
                OverflowError, ValueError, TypeError, IndexError,
                KeyError):
            # Folding is best-effort: anything the evaluator can
            # legitimately reject (semantic errors, numeric-domain
            # failures, shape/type mismatches) leaves the instruction
            # for runtime.  Genuine interpreter bugs now propagate.
            return ins
        if (not isinstance(result, Value) or result.data is None
                or result.fields is not None
                or result.data.shape[:1] != (1,)):
            return ins
        master = np.ascontiguousarray(result.data)
        idx = self._intern(result.type, master)
        self.known[ins.out] = Value(result.type, master)
        self.changed = True
        return Instr("const", out=ins.out, imm=idx, type=result.type)


# ======================================================================
# Select-conversion
# ======================================================================
def _arm_convertible(block: Block, reg: int) -> Optional[str]:
    """Classify one select arm.

    ``"value"``: every item is speculatable and the arm register is
    produced by one of them (copy semantics — a blend of it is exactly
    what the interpreter's divergent path computes, and the uniform
    fast path returns the same fresh temp).

    ``"outer"``: every item is speculatable but the arm register comes
    from outside the arm (a bare variable, an outer temp).  The select
    snapshots its data where the region used to end; the interpreter's
    uniform fast path instead returns the alias, which observes stores
    until the result is consumed.  Convertible only when the caller
    proves that window store-free (:func:`_window_safe`).

    ``None``: not convertible (side effects / masked ops in the arm).
    """
    defined_in_arm = False
    for item in block.items:
        if not isinstance(item, Instr) or item.op not in _SPECULATABLE:
            return None
        if item.out == reg:
            defined_in_arm = True
    return "value" if defined_in_arm else "outer"


def _reads_reg(ins: Instr, reg: int) -> bool:
    return ins.args is not None and reg in ins.args


def _region_reads_reg(region, reg: int) -> bool:
    for kind in ("cond", "left", "right", "true_reg", "false_reg"):
        if getattr(region, kind, None) == reg:
            return True
    for name in ("then_block", "else_block", "cond_block", "body_block",
                 "update_block", "true_block", "false_block", "rhs_block"):
        block = getattr(region, name, None)
        if block is None:
            continue
        for item in block.items:
            if isinstance(item, Instr):
                if _reads_reg(item, reg):
                    return True
            elif _region_reads_reg(item, reg):
                return True
    return False


#: Value ops that wrap their result in a *fresh* Value object.  With
#: the no-in-place invariant (arrays are never mutated, stores rebind
#: ``Value.data`` on the variable's storage object), a reg defined by
#: one of these can never observe a later store: snapshotting it is
#: indistinguishable from aliasing it.
_FRESH_OPS = frozenset({
    "const", "unary", "arith", "compare", "equal", "xor", "construct",
    "swizzle", "index", "builtin", "texture", "select", "sc_combine",
})


def _build_defs(program: CompiledProgram) -> Dict[int, object]:
    """Map each out-register to its defining Instr or region object."""
    defs: Dict[int, object] = {}

    def scan(block: Optional[Block]) -> None:
        if block is None:
            return
        for item in block.items:
            out = getattr(item, "out", None)
            if out is not None:
                defs.setdefault(out, item)
            if not isinstance(item, Instr):
                for sub in _region_blocks(item):
                    scan(sub)

    for plan in program.globals_plan:
        scan(plan.init_block)
    scan(program.body)
    return defs


def _snapshot_watch(reg: int, defs: Dict[int, object]):
    """Which store roots could make a snapshot of ``reg`` diverge from
    the interpreter's alias of it?

    Returns ``None`` when no store can (the reg is a fresh value),
    a set of root registers to watch, or ``True`` for "any store"
    (conservative fallback, e.g. a reg produced by an unconverted
    region, whose uniform fast path may alias arbitrary storage)."""
    seen: Set[int] = set()
    while True:
        if reg in seen:
            return True
        seen.add(reg)
        d = defs.get(reg)
        if d is None:
            # No defining item: a global/varying root.  Only stores to
            # that root itself rebind its storage.
            return {reg}
        if not isinstance(d, Instr):
            return True
        if d.op in _FRESH_OPS or (d.op == "load" and d.imm != ()):
            return None
        if d.op in ("decl", "copy"):
            return {reg}
        if d.op in ("move", "field") or (d.op == "load" and d.imm == ()):
            reg = d.args[0]
            continue
        return True


def _window_safe(items: list, start: int, out: int,
                 watch) -> bool:
    """True when no store/incdec that could rebind the aliased storage
    (per ``watch``, see :func:`_snapshot_watch`) can run between
    position ``start`` and the last direct reader of ``out`` — the
    window in which a select snapshot and the interpreter's
    uniform-alias fast path could observe different data."""
    if watch is None:
        return True

    def is_hazard(it) -> bool:
        if isinstance(it, Instr):
            if it.op not in ("store", "incdec"):
                return False
            return watch is True or it.args[0] in watch
        if watch is True:
            return True
        roots: Set[int] = set()

        def scan(block: Optional[Block]) -> None:
            if block is None:
                return
            for sub in block.items:
                if isinstance(sub, Instr):
                    if sub.op in ("store", "incdec"):
                        roots.add(sub.args[0])
                else:
                    for blk in _region_blocks(sub):
                        scan(blk)

        for blk in _region_blocks(it):
            scan(blk)
        return bool(roots & watch)

    last_use = -1
    hazards: List[int] = []
    for j in range(start, len(items)):
        item = items[j]
        if isinstance(item, Instr):
            if _reads_reg(item, out):
                last_use = j
        else:
            if _region_reads_reg(item, out):
                return False
        if is_hazard(item):
            hazards.append(j)
    # A hazard *at* the last use (a store consuming the select result)
    # reads before it writes, so only strictly-earlier hazards matter.
    return all(h >= last_use for h in hazards)


def _scan_store_arm(block: Optional[Block]):
    """Classify one if-arm for store-if-conversion.

    Returns ``(instrs, final)`` where ``final`` maps each stored root
    to the register holding its arm-final value, or None when the arm
    is not convertible: every item must be a speculatable value op, a
    plain load, or a plain store, and no item may read a root after
    the arm stored it (deferred stores would change what it reads).
    """
    if block is None:
        return [], {}
    instrs: list = []
    final: Dict[int, Instr] = {}
    for item in block.items:
        if not isinstance(item, Instr):
            return None
        reads = item.args[1:] if item.op == "store" else item.args
        if any(r in final for r in reads):
            return None
        if item.op == "store" and item.imm == ():
            final[item.args[0]] = item
            continue
        if item.op in _SPECULATABLE or (item.op == "load"
                                        and item.args[0] not in final):
            instrs.append(item)
            continue
        return None
    return instrs, final


def _convert_store_if(item: IfRegion, program: CompiledProgram,
                      defs: Dict[int, object]) -> Optional[list]:
    """Flatten an if/else whose arms only compute values and store
    them to plain variable roots: hoist both arms full-width, then
    per root emit ``store root <- select(cond, then_val, else_val)``
    with the pre-branch value standing in for an arm that does not
    store that root.  Per-lane stored data is unchanged (lanes whose
    arm did not run store back their own current value), so this is
    invisible to outputs while making the instruction stream — and
    therefore the dynamic op tally — straight-line."""
    then_scan = _scan_store_arm(item.then_block)
    else_scan = _scan_store_arm(item.else_block)
    if then_scan is None or else_scan is None:
        return None
    then_instrs, then_final = then_scan
    else_instrs, else_final = else_scan
    if not then_final and not else_final:
        return None  # nothing stored: leave it to the other passes
    roots = list(then_final)
    roots += [r for r in else_final if r not in then_final]
    out_items: list = []
    pre: Dict[int, int] = {}
    for root in roots:
        if root in then_final and root in else_final:
            continue  # both arms define it; pre-value never needed
        store = then_final.get(root) or else_final[root]
        reg = program.nregs
        program.nregs += 1
        load = Instr("load", out=reg, args=(root,), imm=(),
                     type=store.type)
        defs[reg] = load
        out_items.append(load)
        pre[root] = reg
    out_items.extend(then_instrs)
    out_items.extend(else_instrs)
    for root in roots:
        store = then_final.get(root) or else_final[root]
        tval = then_final[root].args[1] if root in then_final else pre[root]
        fval = else_final[root].args[1] if root in else_final else pre[root]
        reg = program.nregs
        program.nregs += 1
        select = Instr("select", out=reg, args=(item.cond, tval, fval),
                       type=store.type)
        defs[reg] = select
        out_items.append(select)
        out_items.append(Instr("store", args=(root, reg), imm=(),
                               type=store.type))
    return out_items


def _select_block(block: Block, defs: Dict[int, object],
                  program: CompiledProgram) -> bool:
    changed = False
    new_items: list = []
    items = block.items
    for pos, item in enumerate(items):
        if isinstance(item, Instr):
            new_items.append(item)
            continue
        if isinstance(item, IfRegion):
            changed |= _select_block(item.then_block, defs, program)
            if item.else_block is not None:
                changed |= _select_block(item.else_block, defs, program)
            converted = _convert_store_if(item, program, defs)
            if converted is not None:
                new_items.extend(converted)
                changed = True
            else:
                new_items.append(item)
        elif isinstance(item, CondRegion):
            changed |= _select_block(item.true_block, defs, program)
            changed |= _select_block(item.false_block, defs, program)
            true_kind = _arm_convertible(item.true_block, item.true_reg)
            false_kind = _arm_convertible(item.false_block, item.false_reg)
            convertible = true_kind is not None and false_kind is not None
            if convertible and "outer" in (true_kind, false_kind):
                watch = None
                for kind, reg in ((true_kind, item.true_reg),
                                  (false_kind, item.false_reg)):
                    if kind != "outer":
                        continue
                    w = _snapshot_watch(reg, defs)
                    if w is True:
                        watch = True
                        break
                    if w:
                        watch = (watch or set()) | w
                if not _window_safe(items, pos + 1, item.out, watch):
                    convertible = False
            if convertible:
                new_items.extend(item.true_block.items)
                new_items.extend(item.false_block.items)
                select = Instr(
                    "select", out=item.out,
                    args=(item.cond, item.true_reg, item.false_reg),
                    type=item.type)
                defs[item.out] = select
                new_items.append(select)
                changed = True
            else:
                new_items.append(item)
        elif isinstance(item, ScRegion):
            changed |= _select_block(item.rhs_block, defs, program)
            rhs_kind = _arm_convertible(item.rhs_block, item.right)
            # ``sc_combine`` always produces a fresh value, so an
            # outer/alias rhs register needs no window check.
            if rhs_kind is not None:
                new_items.extend(item.rhs_block.items)
                new_items.append(Instr(
                    "sc_combine", out=item.out,
                    args=(item.left, item.right), imm=item.op))
                changed = True
            else:
                new_items.append(item)
        elif isinstance(item, LoopRegion):
            if item.cond_block is not None:
                changed |= _select_block(item.cond_block, defs, program)
            changed |= _select_block(item.body_block, defs, program)
            if item.update_block is not None:
                changed |= _select_block(item.update_block, defs, program)
            new_items.append(item)
        elif isinstance(item, FuncRegion):
            changed |= _select_block(item.body_block, defs, program)
            new_items.append(item)
        else:  # pragma: no cover
            new_items.append(item)
    block.items = new_items
    return changed


def select_convert(program: CompiledProgram) -> bool:
    defs = _build_defs(program)
    changed = False
    for plan in program.globals_plan:
        if plan.init_block is not None:
            changed |= _select_block(plan.init_block, defs, program)
    changed |= _select_block(program.body, defs, program)
    return changed


# ======================================================================
# Call-frame elision + parameter copy propagation
# ======================================================================
def _frame_kills(block: Block) -> bool:
    """Any ``return`` in this frame's scope?  (Nested function regions
    carry their own frame, so their returns are not ours.)"""
    for item in block.items:
        if isinstance(item, Instr):
            if item.op == "return":
                return True
        elif not isinstance(item, FuncRegion):
            for sub in _region_blocks(item):
                if _frame_kills(sub):
                    return True
    return False


def _frame_loops(block: Block) -> bool:
    """Any loop in this frame's scope?  Loop frames attach to the
    innermost function frame, so a frame hosting loops must stay."""
    for item in block.items:
        if isinstance(item, LoopRegion):
            return True
        if isinstance(item, (Instr, FuncRegion)):
            continue
        for sub in _region_blocks(item):
            if _frame_loops(sub):
                return True
    return False


def _flatten_ladder(region: FuncRegion, program: CompiledProgram) -> bool:
    """Rewrite an early-return ladder into nested selects.

    Matches a call-region body of the shape::

        <speculatable instrs>
        if c1 { <speculatable instrs>; return r1 }
        ...
        if cN { <speculatable instrs>; return rN }
        <speculatable instrs>
        return r

    and rewrites it to straight-line code ending in a single tail
    return of ``select(c1, r1, select(..., select(cN, rN, r)))``.
    Per-lane results are identical (each lane takes the value of its
    first true guard); the guarded arms are speculatable by
    construction, so running them on lanes that "already returned"
    computes garbage that the selects discard.  This is what turns the
    float32 pack/unpack helpers (IEEE special-case ladders) into
    straight-line code the static cost model can count exactly.
    """
    items = region.body_block.items
    if not items:
        return False
    tail = items[-1]
    if not (isinstance(tail, Instr) and tail.op == "return" and tail.args):
        return False
    new_items: list = []
    ladder: list = []  # (cond_reg, returned_reg)
    local_roots: Set[int] = set()
    for item in items[:-1]:
        if isinstance(item, Instr):
            if item.op == "decl" and item.out is not None:
                # Frame-local variable: dies at frame exit, so running
                # the code below a taken rung full-width only ever
                # scribbles on storage no surviving lane observes.
                local_roots.add(item.out)
                new_items.append(item)
                continue
            if item.op in ("store", "incdec"):
                if item.args[0] not in local_roots:
                    return False
                new_items.append(item)
                continue
            if item.op in _SPECULATABLE or item.op == "load":
                new_items.append(item)
                continue
            return False
        if not isinstance(item, IfRegion) or item.else_block is not None:
            return False
        arm = item.then_block.items
        if not arm:
            return False
        last = arm[-1]
        if not (isinstance(last, Instr) and last.op == "return"
                and last.args):
            return False
        for ins in arm[:-1]:
            if not isinstance(ins, Instr) or ins.op not in _SPECULATABLE:
                return False
        new_items.extend(arm[:-1])
        ladder.append((item.cond, last.args[0]))
    if not ladder:
        return False
    running = tail.args[0]
    for cond, ret in reversed(ladder):
        out = program.nregs
        program.nregs += 1
        new_items.append(Instr("select", out=out, args=(cond, ret, running),
                               type=region.ret_type))
        running = out
    new_items.append(Instr("return", args=(running,), type=tail.type))
    region.body_block.items = new_items
    return True


def _ladder_block(block: Block, program: CompiledProgram) -> bool:
    changed = False
    for item in block.items:
        if isinstance(item, Instr):
            continue
        for sub in _region_blocks(item):
            changed |= _ladder_block(sub, program)
        if isinstance(item, FuncRegion):
            changed |= _flatten_ladder(item, program)
    return changed


def flatten_return_ladders(program: CompiledProgram) -> bool:
    changed = False
    for plan in program.globals_plan:
        if plan.init_block is not None:
            changed |= _ladder_block(plan.init_block, program)
    changed |= _ladder_block(program.body, program)
    return changed


def _try_elide(region: FuncRegion) -> Optional[list]:
    """Replacement items for an elidable call region, or None.

    Elidable when the body's only ``return`` is the final top-level
    instruction and the frame hosts no loops: the push/pop brackets
    then have no observable effect beyond routing the return value,
    which a ``move`` of the (in-body) result register reproduces.  The
    frame's return-value blend only zero-fills lanes outside the call
    mask — lanes that are dead for every downstream masked store — so
    outputs are unchanged.
    """
    items = region.body_block.items
    tail = items[-1] if items and isinstance(items[-1], Instr) \
        and items[-1].op == "return" else None
    head = items[:-1] if tail is not None else items
    if _frame_kills(Block(list(head))):
        return None
    if _frame_loops(region.body_block):
        return None
    if tail is not None:
        if not tail.args:
            if not region.ret_type.is_void():
                return None
            return list(head)
        return list(head) + [Instr("move", out=region.out,
                                   args=(tail.args[0],),
                                   type=region.ret_type)]
    if not region.ret_type.is_void():
        return None  # missing return: keep FUNC_POP's zero fallback
    return list(head)


def _elide_block(block: Block) -> bool:
    changed = False
    new_items: list = []
    for item in block.items:
        if isinstance(item, Instr):
            new_items.append(item)
            continue
        for sub in _region_blocks(item):
            changed |= _elide_block(sub)
        if isinstance(item, FuncRegion):
            replacement = _try_elide(item)
            if replacement is not None:
                new_items.extend(replacement)
                changed = True
                continue
        new_items.append(item)
    block.items = new_items
    return changed


def elide_frames(program: CompiledProgram) -> bool:
    """Drop activation-frame brackets around straight-line call
    bodies (bottom-up, so fully-inlined helper chains flatten)."""
    changed = False
    for plan in program.globals_plan:
        if plan.init_block is not None:
            changed |= _elide_block(plan.init_block)
    changed |= _elide_block(program.body)
    return changed


class _UnitScan:
    """One execution-order walk of a unit collecting store positions.

    Positions are a DFS counter matching execution order for
    straight-line code; ``last_store`` records any store inside a loop
    at +inf (it can re-execute after anything), which keeps every
    "all stores come first" test conservative across iterations.
    ``top`` marks positions whose only ancestors are
    :class:`FuncRegion` brackets.
    """

    def __init__(self, unit: Block):
        self.pos = 0
        self.last_store: Dict[int, float] = {}
        self.store_count: Dict[int, int] = {}
        #: root -> the block holding its ``decl``
        self.decl_block: Dict[int, Block] = {}
        #: root -> (pos, instr, block, top and outside loops) of its
        #: last plain whole-value store
        self.plain_stores: Dict[int, tuple] = {}
        self.copies: List = []  # (instr, pos)
        self._walk(unit, in_loop=False, top=True)

    def _walk(self, block: Block, in_loop: bool, top: bool) -> None:
        for item in block.items:
            if isinstance(item, Instr):
                self.pos += 1
                if item.op in ("store", "incdec"):
                    root = item.args[0]
                    self.store_count[root] = \
                        self.store_count.get(root, 0) + 1
                    self.last_store[root] = \
                        float("inf") if in_loop else self.pos
                    if item.op == "store" and item.imm == ():
                        self.plain_stores[root] = (
                            self.pos, item, block, top and not in_loop)
                elif item.op == "decl":
                    self.decl_block[item.out] = block
                elif item.op == "copy":
                    self.copies.append((item, self.pos))
            elif isinstance(item, FuncRegion):
                self._walk(item.body_block, in_loop, top)
            elif isinstance(item, LoopRegion):
                for sub in _region_blocks(item):
                    self._walk(sub, True, False)
            else:
                for sub in _region_blocks(item):
                    self._walk(sub, in_loop, False)

    def settled(self, reg: int, pos: int, defs: Dict[int, object]) -> bool:
        """True when every store that can change what ``reg`` reads —
        to ``reg`` itself or to the storage it aliases (see
        :func:`_snapshot_watch`) — comes before position ``pos``."""
        watch = _snapshot_watch(reg, defs)
        if watch is True:
            return False
        return all(self.last_store.get(root, -1) < pos
                   for root in {reg, *(watch or ())})


def propagate_copies(program: CompiledProgram) -> bool:
    """Turn read-only parameter clones into aliases.

    A ``copy`` upgrades to a ``move`` when its own register is never
    stored to and every store to its source (or to the storage the
    source aliases) strictly precedes it in execution order.  All data
    mutation in the executor replaces ``Value.data`` arrays rather
    than writing in place, so an alias of a register with no further
    stores can never observe a divergent write.
    """
    changed = False
    defs = _build_defs(program)
    units = [plan.init_block for plan in program.globals_plan
             if plan.init_block is not None] + [program.body]
    for unit in units:
        scan = _UnitScan(unit)
        for ins, pos in scan.copies:
            if scan.store_count.get(ins.out, 0):
                continue
            if not scan.settled(ins.args[0], pos, defs):
                continue
            ins.op = "move"
            changed = True
    return changed


def _forward_rewrite(block: Block, fwd: Dict[int, int],
                     candidates: Dict[int, int], scan: _UnitScan,
                     defs: Dict[int, object]) -> bool:
    changed = False
    scoped = []
    for item in block.items:
        if isinstance(item, Instr):
            if item.args and fwd:
                if item.op in ("store", "incdec"):
                    # args[0] is the l-value root; only value/index
                    # operands follow the data flow.
                    args = item.args[:1] + tuple(
                        fwd.get(a, a) for a in item.args[1:])
                else:
                    args = tuple(fwd.get(a, a) for a in item.args)
                if args != item.args:
                    item.args = args
                    changed = True
            pos = candidates.get(id(item))
            if pos is not None and scan.settled(item.args[1], pos, defs):
                fwd[item.args[0]] = item.args[1]
                scoped.append(item.args[0])
        else:
            for attr in ("cond", "left", "right", "true_reg",
                         "false_reg"):
                reg = getattr(item, attr, None)
                if reg is not None and fwd.get(reg, reg) != reg:
                    setattr(item, attr, fwd[reg])
                    changed = True
            for sub in _region_blocks(item):
                changed |= _forward_rewrite(sub, fwd, candidates, scan,
                                            defs)
    for root in scoped:
        del fwd[root]
    return changed


def forward_stores(program: CompiledProgram) -> bool:
    """Store-to-load forwarding for single-store variables.

    A plain whole-value ``store v <- r`` that is ``v``'s only store in
    the unit forwards ``r`` to the reads of ``v`` after it in the
    block that holds the store (nested regions included) when

    * the store sits in the block that holds ``v``'s ``decl``, at any
      nesting (a loop body, an if-arm), or at top level outside every
      loop (globals and outputs have no ``decl`` in the unit); and
    * every store that can change what ``r`` reads — to ``r`` or to
      the storage it aliases — comes before it.  Lowering stores a
      variable's own storage register (``float a = b;``), so without
      this a later ``b = ...`` would show through ``a``.

    Within one pass through a block the execution mask only shrinks
    (kills, ``break``, ``continue`` and ``return`` retire lanes until
    the block ends, and a nested region restores at most the mask it
    was entered with), so every lane that reads ``v`` after the store
    was active at it and holds ``r``'s value; the other lanes are dead
    until the block ends.  A loop body runs the store again before
    each pass's reads; reads before it are not rewritten.  The rewrite
    stops where the block ends: past a function body, lanes that
    returned early are live again with ``v`` unwritten, which an
    ``out`` parameter's copy-out reads.  DCE then retires the dead
    declaration and store of non-pinned variables.  Reports a change
    only when some operand or region register was rewritten.
    """
    changed = False
    defs = _build_defs(program)
    units = [plan.init_block for plan in program.globals_plan
             if plan.init_block is not None] + [program.body]
    for unit in units:
        scan = _UnitScan(unit)
        candidates = {
            id(ins): pos
            for root, (pos, ins, block, top) in scan.plain_stores.items()
            if scan.store_count[root] == 1
            and (top or scan.decl_block.get(root) is block)
        }
        if candidates:
            changed |= _forward_rewrite(unit, {}, candidates, scan, defs)
    return changed


# ======================================================================
# Common-subexpression elimination
# ======================================================================
class _CsePass:
    def __init__(self, program: CompiledProgram):
        self.var_regs: Set[int] = getattr(program, "var_regs", set())
        #: reg -> transitive set of variable registers it was computed
        #: from (alias roots included).
        self.deps: Dict[int, Set[int]] = {}
        #: availability scopes: each is {key: reg}
        self.scopes: List[Dict[tuple, int]] = [{}]
        #: per scope, variable root -> the (key, reg) entries made
        #: available there whose value depends on that root, so a store
        #: drops exactly its dependents without rescanning the scope.
        self.by_root: List[Dict[int, List[tuple]]] = [{}]
        self.rename: Dict[int, int] = {}
        self.changed = False

    def resolve(self, reg: int) -> int:
        seen = reg
        while seen in self.rename:
            seen = self.rename[seen]
        return seen

    def _dep_of(self, reg: int) -> Set[int]:
        # A variable root is always part of its own dependence set, even
        # when a recorded def (its ``decl``, with no args) left an empty
        # set behind: expressions reading the root directly must go
        # stale when it is stored to.
        d = self.deps.get(reg)
        if reg in self.var_regs:
            return d | {reg} if d else {reg}
        return d if d is not None else frozenset()

    def push_scope(self) -> None:
        self.scopes.append({})
        self.by_root.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()
        self.by_root.pop()

    def invalidate(self, root: int) -> None:
        for scope, index in zip(self.scopes, self.by_root):
            for key, reg in index.pop(root, ()):
                # The entry may already be gone through another root.
                if scope.get(key) == reg:
                    del scope[key]

    def lookup(self, key: tuple) -> Optional[int]:
        for scope in reversed(self.scopes):
            reg = scope.get(key)
            if reg is not None:
                return reg
        return None

    # ------------------------------------------------------------------
    def run_block(self, block: Block) -> None:
        new_items: list = []
        for item in block.items:
            if isinstance(item, Instr):
                kept = self.visit_instr(item)
                if kept is not None:
                    new_items.append(kept)
            else:
                self.visit_region(item)
                new_items.append(item)
        block.items = new_items

    def visit_instr(self, ins: Instr) -> Optional[Instr]:
        ins.args = tuple(self.resolve(a) for a in ins.args)
        if ins.out is not None:
            deps = set()
            for a in ins.args:
                deps |= self._dep_of(a)
            self.deps[ins.out] = deps
        if ins.op == "move":
            # Coalesce: a move makes its output the *same object* as
            # its source, and register slots are only rebound when
            # their defining instruction re-executes — so reading the
            # source at use time is identical.
            src = ins.args[0]
            if src != ins.out:
                self.rename[ins.out] = src
                self.changed = True
                return None
            return ins
        if ins.op in ("store", "incdec"):
            self.invalidate(ins.args[0])
            return ins
        if ins.op in ("decl", "copy"):
            # A (re-)declaration rebinds the variable register: any
            # available expression over it is stale.
            if ins.out in self.var_regs:
                self.invalidate(ins.out)
            return ins
        if ins.op not in _CSEABLE or ins.out is None:
            return ins
        if ins.op == "construct" and ins.type is not None \
                and ins.type.is_struct():
            return ins
        key = (ins.op, ins.args, _imm_key(ins), str(ins.type))
        prev = self.lookup(key)
        if prev is not None:
            self.rename[ins.out] = prev
            self.changed = True
            return None
        self.scopes[-1][key] = ins.out
        index = self.by_root[-1]
        for root in self._dep_of(ins.out):
            index.setdefault(root, []).append((key, ins.out))
        return ins

    def visit_region(self, item) -> None:
        if isinstance(item, IfRegion):
            item.cond = self.resolve(item.cond)
            self.push_scope()
            self.run_block(item.then_block)
            self.pop_scope()
            if item.else_block is not None:
                self.push_scope()
                self.run_block(item.else_block)
                self.pop_scope()
        elif isinstance(item, CondRegion):
            item.cond = self.resolve(item.cond)
            self.push_scope()
            self.run_block(item.true_block)
            self.pop_scope()
            self.push_scope()
            self.run_block(item.false_block)
            self.pop_scope()
            item.true_reg = self.resolve(item.true_reg)
            item.false_reg = self.resolve(item.false_reg)
        elif isinstance(item, ScRegion):
            item.left = self.resolve(item.left)
            self.push_scope()
            self.run_block(item.rhs_block)
            self.pop_scope()
            item.right = self.resolve(item.right)
        elif isinstance(item, LoopRegion):
            # Anything the loop stores to can change between
            # iterations: drop dependent availability up front so
            # renamed uses can never observe a stale outer value.
            for root in _stored_roots(item):
                self.invalidate(self.resolve(root))
            if item.pretest:
                if item.cond_block is not None:
                    self.push_scope()
                    self.run_block(item.cond_block)
                self.push_scope()
                self.run_block(item.body_block)
                if item.update_block is not None:
                    self.push_scope()
                    self.run_block(item.update_block)
                    self.pop_scope()
                self.pop_scope()
                if item.cond_block is not None:
                    self.pop_scope()
            else:
                self.push_scope()
                self.run_block(item.body_block)
                if item.cond_block is not None:
                    self.push_scope()
                    self.run_block(item.cond_block)
                    self.pop_scope()
                self.pop_scope()
            if item.cond is not None:
                item.cond = self.resolve(item.cond)
        elif isinstance(item, FuncRegion):
            self.push_scope()
            self.run_block(item.body_block)
            self.pop_scope()


def _stored_roots(item) -> Set[int]:
    roots: Set[int] = set()

    def scan_block(block: Optional[Block]):
        if block is None:
            return
        for it in block.items:
            if isinstance(it, Instr):
                if it.op in ("store", "incdec"):
                    roots.add(it.args[0])
                elif it.op in ("decl", "copy") and it.out is not None:
                    roots.add(it.out)
            elif isinstance(it, IfRegion):
                scan_block(it.then_block)
                scan_block(it.else_block)
            elif isinstance(it, CondRegion):
                scan_block(it.true_block)
                scan_block(it.false_block)
            elif isinstance(it, ScRegion):
                scan_block(it.rhs_block)
            elif isinstance(it, LoopRegion):
                scan_block(it.cond_block)
                scan_block(it.body_block)
                scan_block(it.update_block)
            elif isinstance(it, FuncRegion):
                scan_block(it.body_block)

    if isinstance(item, LoopRegion):
        scan_block(item.cond_block)
        scan_block(item.body_block)
        scan_block(item.update_block)
    return roots


def cse(program: CompiledProgram) -> bool:
    # Each global-init block and the body execute as separate units
    # (an init block is skipped entirely when its global is preset),
    # so availability must not leak between them.
    changed = False
    for plan in program.globals_plan:
        if plan.init_block is not None:
            p = _CsePass(program)
            p.run_block(plan.init_block)
            plan.init_reg = p.resolve(plan.init_reg)
            changed |= p.changed
    p = _CsePass(program)
    p.run_block(program.body)
    return changed or p.changed


# ======================================================================
# Dead-code elimination
# ======================================================================
def _scan_uses(block: Block, read: Set[int], roots: Set[int]) -> None:
    for item in block.items:
        if isinstance(item, Instr):
            if item.op == "store":
                roots.add(item.args[0])
                read.update(item.args[1:])
            elif item.op == "incdec":
                roots.add(item.args[0])
                read.update(item.args)
            else:
                read.update(item.args)
        elif isinstance(item, IfRegion):
            read.add(item.cond)
            _scan_uses(item.then_block, read, roots)
            if item.else_block is not None:
                _scan_uses(item.else_block, read, roots)
        elif isinstance(item, CondRegion):
            read.update((item.cond, item.true_reg, item.false_reg))
            _scan_uses(item.true_block, read, roots)
            _scan_uses(item.false_block, read, roots)
        elif isinstance(item, ScRegion):
            read.update((item.left, item.right))
            _scan_uses(item.rhs_block, read, roots)
        elif isinstance(item, LoopRegion):
            if item.cond is not None:
                read.add(item.cond)
            if item.cond_block is not None:
                _scan_uses(item.cond_block, read, roots)
            _scan_uses(item.body_block, read, roots)
            if item.update_block is not None:
                _scan_uses(item.update_block, read, roots)
        elif isinstance(item, FuncRegion):
            _scan_uses(item.body_block, read, roots)


def _sweep(block: Block, read: Set[int], roots: Set[int],
           pinned: Set[int]) -> bool:
    changed = False
    new_items: list = []
    for item in block.items:
        if isinstance(item, Instr):
            op = item.op
            if op == "store":
                if item.args[0] not in read and item.args[0] not in pinned:
                    changed = True
                    continue
            elif op in ("decl", "copy"):
                if item.out not in read and item.out not in roots \
                        and item.out not in pinned:
                    changed = True
                    continue
            elif op in ("texture", "incdec") or item.out is None:
                pass  # side effects (tex counter / masked store / kill)
            elif item.out not in read and item.out not in pinned:
                changed = True
                continue
            new_items.append(item)
        else:
            for sub in _region_blocks(item):
                changed |= _sweep(sub, read, roots, pinned)
            new_items.append(item)
    block.items = new_items
    return changed


def _region_blocks(item):
    if isinstance(item, IfRegion):
        return [b for b in (item.then_block, item.else_block) if b]
    if isinstance(item, CondRegion):
        return [item.true_block, item.false_block]
    if isinstance(item, ScRegion):
        return [item.rhs_block]
    if isinstance(item, LoopRegion):
        return [b for b in (item.cond_block, item.body_block,
                            item.update_block) if b]
    if isinstance(item, FuncRegion):
        return [item.body_block]
    return []


def dce(program: CompiledProgram) -> bool:
    pinned: Set[int] = set()
    for plan in program.globals_plan:
        pinned.add(plan.reg)
        if plan.init_reg is not None:
            pinned.add(plan.init_reg)
    any_change = False
    while True:
        read: Set[int] = set()
        roots: Set[int] = set()
        for plan in program.globals_plan:
            if plan.init_block is not None:
                _scan_uses(plan.init_block, read, roots)
        _scan_uses(program.body, read, roots)
        changed = False
        for plan in program.globals_plan:
            if plan.init_block is not None:
                changed |= _sweep(plan.init_block, read, roots, pinned)
        changed |= _sweep(program.body, read, roots, pinned)
        if not changed:
            return any_change
        any_change = True


# ======================================================================
# Constant-pool compaction + driver
# ======================================================================
def compact_pool(program: CompiledProgram) -> None:
    order: List[int] = []
    remap: Dict[int, int] = {}

    def visit(block: Block):
        for item in block.items:
            if isinstance(item, Instr):
                if item.op == "const":
                    idx = item.imm
                    if idx not in remap:
                        remap[idx] = len(order)
                        order.append(idx)
                    item.imm = remap[idx]
            else:
                for sub in _region_blocks(item):
                    visit(sub)

    for plan in program.globals_plan:
        if plan.init_block is not None:
            visit(plan.init_block)
    visit(program.body)
    program.consts = [program.consts[i] for i in order]
    program._const_cache = {}


def run_passes(program: CompiledProgram, fmodel) -> CompiledProgram:
    """Run the full pass pipeline to a fixpoint: until a round in
    which no pass reports a change, at most 4 rounds.  Each round run
    counts in ``compile.ir.pass_rounds``."""
    for _ in range(4):
        counters.values["compile.ir.pass_rounds"] += 1
        changed = _FoldPass(program, fmodel).run()
        changed |= flatten_return_ladders(program)
        changed |= elide_frames(program)
        changed |= propagate_copies(program)
        changed |= forward_stores(program)
        changed |= select_convert(program)
        changed |= cse(program)
        changed |= dce(program)
        if not changed:
            break
    compact_pool(program)
    # Annotation, not transformation: runs last so constant-pool
    # indices are final and the matched chain is the one backends see.
    from .gather import annotate_gathers

    annotate_gathers(program)
    return program
