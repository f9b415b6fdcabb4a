"""NumPy-source code generator for compiled shader IR.

:func:`generate` walks a :class:`~repro.glsl.ir.nodes.CompiledProgram`
(the *optimised* structured IR) and emits the source of one Python
function that executes the whole shader body as straight-line
vectorised numpy code — no per-instruction dispatch, no Value
wrappers, no mask bookkeeping for code that never diverges.  The
source is materialised with ``compile()``/``exec`` and cached per
(program, wide-global set), so steady-state kernel relaunches run zero
interpreter instructions.

Exactness contract
------------------
The generated code must be **bit-identical** to the interpreter /
IR-executor pair for every observable effect (global stores, discard
mask, raised limit errors).  Three structural facts make this
tractable:

* Pure value ops compute full-width results regardless of the
  execution mask — masks only gate *stores* and control skips.  A
  divergent ``if`` can therefore be lowered to both branches executed
  unconditionally with mask-blended stores, with no value change.
* Batch-width differences are unobservable: a width-1 (uniform) array
  and its n-lane broadcast are interchangeable under numpy
  broadcasting, and every consumer (stores, blends, the pipeline's
  framebuffer write) broadcasts.  The generator exploits this by never
  widening uniform registers — that is the uniform-lane optimisation.
* The no-in-place invariant (stores rebind ``Value.data``, arrays are
  never mutated) makes aliasing free: ``move``/``copy``/full-mask
  stores become plain Python rebinds.

Lowering decisions (ast/ir/jit decision table lives in
docs/architecture.md):

===============  ====================================================
construct        lowering
===============  ====================================================
if, uniform cond  native ``if bool(c[0]):`` (no mask traffic)
if, varying       both branches under split masks, masked stores
loop, uniform     native ``while`` (requires full-mask context and a
                  kill-free body) — the sgemm hot path
loop, divergent   masked ``while`` with per-lane break/continue/exit
                  channels and an active-lane early exit
?: / && / ||      mask-blended straight-line ``np.where`` / boolean
                  algebra (the interpreter's exact combine formulas)
function region   inlined (only when it contains no ``return``)
kernel input      one ``_fetch`` of the stored bytes of texel ``idx``
read + decode     (flat index, proved per (dtype, W, H)); the mod /
                  floor coordinates, sample and decode run only on a
                  miss (ir.gather)
§IV unpack after  a decoder function of the byte rows, run over the
the decode        whole storage once per draw when the draw's reads
                  of it cover more lanes than it has texels (sites
                  under the full mask; a masked site runs it in place)
===============  ====================================================

Anything outside this subset — user functions with ``return``, struct
values, multi-step or struct-field l-value paths — raises
:class:`JitUnsupported`; the executor then falls back to the
:class:`~repro.glsl.ir.executor.IRExecutor` and counts the event in
the ``jit.fallbacks`` counter.

Pass contract
-------------
The generator takes the output of
:func:`~repro.glsl.ir.passes.run_passes`, and five of its passes are
load-bearing: ``flatten_return_ladders``, ``elide_frames``,
``propagate_copies``, ``select_convert`` and ``cse``.  Together they
turn the §IV unpack helpers' early-return ladders
(``gpgpu_unpack_float32``, ``gpgpu_unpack_half``) into straight-line
code without a function frame.  With any one of them stubbed, the
helper keeps a ``return`` and the draw of every kernel with a float
input falls back.  Fused reads also need ``forward_stores``: the
gather pass matches only the pure coordinate chain that forwarding
leaves, so with it stubbed no read fuses.  ``dce`` and constant
folding are not needed to generate code.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, Optional, Set

import numpy as np

from ..types import BaseType, GlslType, TypeKind
from ..values import zeros_for
from ..ir.nodes import (
    Block,
    CompiledProgram,
    CondRegion,
    FuncRegion,
    IfRegion,
    Instr,
    LoopRegion,
    ScRegion,
)
from ..ir.gather import FetchSite, texture_instrs
from .runtime import make_helpers
from .uniform import (
    UniformInfo,
    _block_has_op,
    block_has_kill,
    block_has_return,
    infer_uniform,
)


class JitUnsupported(Exception):
    """The program uses a construct outside the JIT subset."""


_COMPARE_SYMBOL = {"<": "<", ">": ">", "<=": "<=", ">=": ">="}

#: texture dispatch codes for the _tex helper
_TEX_KIND = {"texture2DProj3": 1, "texture2DProj4": 2, "textureCube": 3}

#: a register name in generated code
_REGISTER = re.compile(r"\br\d+\b")

def decode_exact(fmodel) -> bool:
    """True when, under ``fmodel``, the shader's byte decode returns
    every stored byte unchanged: ``floor(t * 255.0 + 0.5) == c`` for
    the texel ``t`` that ``texture2D`` hands out for each byte ``c``.

    Needs the "alu" and "tex" quantize to be casts (the decode and
    the sample then run in plain model-dtype numpy); the identity
    itself is checked, not assumed (Daumas et al.: a byte round trip
    through graphics arithmetic is exact only under stated rounding).
    Fused reads are emitted only when this holds."""
    return (fmodel.quantize_is_cast("alu")
            and fmodel.quantize_is_cast("tex")
            and _decode_identity(np.dtype(fmodel.dtype).str))


@functools.lru_cache(maxsize=None)
def _decode_identity(dtype: str) -> bool:
    """The decode identity for all 256 bytes, once per float dtype,
    with the generated code's own numpy ops: ``_tex``'s ``uint8 /
    255.0`` and cast, then the decode's multiply, add and floor."""
    stored = np.arange(256, dtype=np.uint8)
    texel = np.asarray(stored / 255.0, dtype)
    decoded = np.asarray(np.floor(texel * np.asarray([255.0], dtype)
                                  + np.asarray([0.5], dtype)), dtype)
    return bool(np.array_equal(decoded, stored))


def _ndim(gtype: GlslType) -> int:
    """Static ndim of a value's batched data array."""
    if gtype.kind == TypeKind.SCALAR:
        return 1
    if gtype.kind == TypeKind.VECTOR:
        return 2
    if gtype.kind == TypeKind.MATRIX:
        return 3
    if gtype.kind == TypeKind.ARRAY:
        return 1 + _ndim(gtype.element)
    raise JitUnsupported(f"no array layout for {gtype}")


def _has_struct(gtype: GlslType) -> bool:
    if gtype.is_struct():
        return True
    if gtype.kind == TypeKind.ARRAY:
        return _has_struct(gtype.element)
    return False


def _frame_return_count(block) -> int:
    """Count `return` instrs belonging to *this* activation frame —
    recursing into control regions but not nested function frames."""
    if block is None:
        return 0
    count = 0
    for item in block.items:
        if isinstance(item, Instr):
            count += item.op == "return"
        elif isinstance(item, IfRegion):
            count += _frame_return_count(item.then_block)
            count += _frame_return_count(item.else_block)
        elif isinstance(item, LoopRegion):
            count += _frame_return_count(item.cond_block)
            count += _frame_return_count(item.body_block)
            count += _frame_return_count(item.update_block)
        elif isinstance(item, CondRegion):
            count += _frame_return_count(item.true_block)
            count += _frame_return_count(item.false_block)
        elif isinstance(item, ScRegion):
            count += _frame_return_count(item.rhs_block)
    return count


# ======================================================================
# The generator
# ======================================================================
class CodeGen:
    def __init__(self, program: CompiledProgram, fmodel,
                 wide_globals: Set[str]):
        self.program = program
        self.fmodel = fmodel
        self.exact = fmodel.name == "exact"
        self.uinfo: UniformInfo = infer_uniform(program, set(wide_globals))
        self.lines: List[str] = []
        self.level = 1
        self.ntmp = 0
        self.ns: Dict[str, object] = {}
        self.types: Dict[int, GlslType] = {}
        self.samplers: Dict[int, str] = {}
        self.store_roots: Set[int] = set()
        self.global_regs: Set[int] = set()
        #: one live-term scope per (inlined) activation frame: a list of
        #: (brk, cont, exit) mask-var triples for that frame's loops.
        self.scopes: List[List[tuple]] = [[]]
        self.has_discard = _block_has_op(program.body, ("discard",))
        self._zeros_cache: Dict[str, str] = {}
        #: registers whose bound array is a fresh unaliased copy (see
        #: gen_instr) — eligible for in-place component stores.
        self.owned: Set[int] = set()
        self._own_root: Optional[int] = None
        #: id(texture Instr) -> its fused read; ids of the instructions
        #: those reads skip in place (they run only in the fallback)
        self.fused: Dict[int, FetchSite] = {}
        self.deferred: Set[int] = set()
        #: fused reads emitted so far (each gets the next site number)
        self.nsites = 0
        #: decoder name per distinct decode tail (channel, canonical
        #: text), and the decoders' source in emission order
        self.decoders: Dict[tuple, str] = {}
        self.decoder_defs: List[str] = []
        if decode_exact(fmodel):
            samplers = {plan.reg for plan in program.globals_plan
                        if plan.is_sampler}
            for tex in texture_instrs(program.body):
                site = tex.fetch
                if site is None:
                    continue
                if (tex.args[0] in samplers
                        and self.uinfo.is_uniform(tex.gather[0])
                        and all(map(fmodel.quantize_is_cast,
                                    site.categories))):
                    self.fused[id(tex)] = site
                    self.deferred.update(id(ins) for ins in site.private)

    # -- plumbing -------------------------------------------------------
    def w(self, line: str) -> None:
        self.lines.append("    " * self.level + line)

    def name(self, prefix: str) -> str:
        self.ntmp += 1
        return f"{prefix}{self.ntmp}"

    def capture(self, obj, prefix: str) -> str:
        for key, existing in self.ns.items():
            if existing is obj and key.startswith(prefix):
                return key
        key = f"{prefix}{len(self.ns)}"
        self.ns[key] = obj
        return key

    def zeros_template(self, gtype: GlslType) -> str:
        """Shared width-1 zero array for decls (safe: no-in-place)."""
        if _has_struct(gtype) or gtype.is_sampler():
            raise JitUnsupported(f"cannot declare {gtype}")
        key = f"{gtype}|{np.dtype(self.fmodel.dtype).str}"
        var = self._zeros_cache.get(key)
        if var is None:
            template = zeros_for(gtype, 1, self.fmodel.dtype).data
            var = self.capture(template, "_zv")
            self._zeros_cache[key] = var
        return var

    def type_of(self, reg: int) -> GlslType:
        gtype = self.types.get(reg)
        if gtype is None:
            raise JitUnsupported(f"untyped register r{reg}")
        return gtype

    def q(self, expr: str, category: str = "alu") -> str:
        """Wrap ``expr`` in the model's quantize call.

        When the model declares quantize a pure cast for this category
        (``quantize_is_cast``) the call is elided entirely: every
        float-producing expression the codegen quantizes is already in
        the model dtype (operands are DT, numpy float ops preserve
        dtype), so the cast is a no-op and the interpreter's result is
        reproduced bit-for-bit without the per-op Python call.
        """
        if self.exact or self.fmodel.quantize_is_cast(category):
            return expr
        if category == "alu":
            return f"Q({expr})"
        return f"Q({expr}, {category!r})"

    # -- masks ----------------------------------------------------------
    def live_terms(self) -> List[str]:
        terms = ["~_dc"] if self.has_discard else []
        for bk, ct, ex in self.scopes[-1]:
            terms.extend((f"~{bk}", f"~{ct}", f"~{ex}"))
        return terms

    def combine(self, *parts: Optional[str]) -> Optional[str]:
        real = [p for p in parts if p is not None]
        if not real:
            return None
        return " & ".join(f"({p})" if " " in p else p for p in real)

    def newmask(self, expr: Optional[str]) -> Optional[str]:
        if expr is None:
            return None
        var = self.name("_m")
        self.w(f"{var} = {expr}")
        return var

    def region_exit_mask(self, entry: Optional[str]) -> Optional[str]:
        """Recompute ``entry & live`` after kills inside a region."""
        return self.newmask(self.combine(entry, *self.live_terms()))

    # ==================================================================
    # Top level
    # ==================================================================
    def generate(self) -> str:
        program = self.program
        self.w("r_ = regs")
        for plan in program.globals_plan:
            self.global_regs.add(plan.reg)
            if plan.is_sampler:
                self.samplers[plan.reg] = f"_s{plan.reg}"
                self.w(f"_s{plan.reg} = regs[{plan.reg}].sampler")
                self.types[plan.reg] = plan.type
                continue
            if _has_struct(plan.type):
                raise JitUnsupported(f"struct global '{plan.name}'")
            self.types[plan.reg] = plan.type
            self.w(f"r{plan.reg} = regs[{plan.reg}].data")
        self.w("_z = np.zeros(n, dtype=np.bool_)")
        if self.has_discard:
            self.w("_dc = _z")
        self.w("with np.errstate(divide='ignore', over='ignore', "
               "invalid='ignore'):")
        self.level += 1
        self.gen_block(program.body, None)
        self.level -= 1
        for reg in sorted(self.store_roots & self.global_regs):
            self.w(f"regs[{reg}].data = r{reg}")
        if self.has_discard:
            self.w("return _dc")
        else:
            self.w("return None")
        body = "\n".join(self.lines)
        return "".join(f"{text}\n\n" for text in self.decoder_defs) + \
            f"def _jit_main(regs, n, maxit):\n{body}\n"

    # ==================================================================
    # Blocks and regions
    # ==================================================================
    def gen_block(self, block: Block, m: Optional[str]) -> Optional[str]:
        return self.gen_items(block.items, m)

    def gen_items(self, items, m: Optional[str]) -> Optional[str]:
        if not items:
            self.w("pass")
            return m
        for item in items:
            if isinstance(item, Instr):
                if id(item) not in self.deferred:
                    m = self.gen_instr(item, m)
                continue
            # Regions introduce conditional control flow and recursive
            # bodies — conservatively forget array ownership on both
            # sides of the boundary.
            self.owned.clear()
            if isinstance(item, IfRegion):
                m = self.gen_if(item, m)
            elif isinstance(item, LoopRegion):
                m = self.gen_loop(item, m)
            elif isinstance(item, CondRegion):
                m = self.gen_cond(item, m)
            elif isinstance(item, ScRegion):
                m = self.gen_sc(item, m)
            elif isinstance(item, FuncRegion):
                m = self.gen_func(item, m)
            else:  # pragma: no cover - structural invariant
                raise JitUnsupported(f"unknown node {type(item).__name__}")
            self.owned.clear()
        return m

    def gen_if(self, item: IfRegion, m: Optional[str]) -> Optional[str]:
        kills = block_has_kill(item.then_block) or \
            block_has_kill(item.else_block)
        if self.uinfo.is_uniform(item.cond):
            # Uniform condition: a native Python branch.  Effects on
            # the not-taken side would all be empty-masked, so skipping
            # them entirely is value-identical; mask variables mutated
            # inside persist (function scope), so the exit recompute
            # below sees them.
            self.w(f"if bool(r{item.cond}[0]):")
            self.level += 1
            self.gen_block(item.then_block, m)
            self.level -= 1
            if item.else_block is not None:
                self.w("else:")
                self.level += 1
                self.gen_block(item.else_block, m)
                self.level -= 1
            return self.region_exit_mask(m) if kills else m
        # Varying condition: run both branches under split masks.
        # then = entry & cond; else = entry & ~cond (kills on the then
        # side only remove cond-true lanes, so the else mask needs no
        # live recompute — matching the flat executor).
        mt = self.newmask(self.combine(m, f"r{item.cond}"))
        self.gen_block(item.then_block, mt)
        if item.else_block is not None:
            mf = self.newmask(self.combine(m, f"~r{item.cond}"))
            self.gen_block(item.else_block, mf)
        return self.region_exit_mask(m) if kills else m

    def gen_loop(self, item: LoopRegion, m: Optional[str]) -> Optional[str]:
        kills = (block_has_kill(item.body_block)
                 or block_has_kill(item.cond_block)
                 or block_has_kill(item.update_block))
        uniform_cond = item.cond is None or self.uinfo.is_uniform(item.cond)
        if m is None and uniform_cond and not kills:
            return self.gen_python_loop(item, m)
        return self.gen_masked_loop(item, m)

    def gen_python_loop(self, item: LoopRegion,
                        m: Optional[str]) -> Optional[str]:
        """Uniform loop under a full mask: a native ``while`` with zero
        mask traffic — the sgemm inner-loop fast path."""
        it = self.name("_i")
        self.w(f"{it} = 0")
        self.w("while True:")
        self.level += 1
        if item.cond_block is not None:
            guard = not item.pretest
            if guard:
                self.w(f"if {it} > 0:")
                self.level += 1
            self.gen_block(item.cond_block, m)
            self.w(f"if not bool(r{item.cond}[0]): break")
            if guard:
                self.level -= 1
        self.gen_block(item.body_block, m)
        if item.update_block is not None:
            self.gen_block(item.update_block, m)
        self.w(f"{it} += 1")
        self.w(f"if {it} > maxit: raise GlslLimitError("
               f"'loop exceeded %d iterations' % maxit)")
        self.level -= 1
        return m

    def gen_masked_loop(self, item: LoopRegion,
                        m: Optional[str]) -> Optional[str]:
        entry = m
        k = self.ntmp = self.ntmp + 1
        bk, ct, ex = f"_bk{k}", f"_ct{k}", f"_ex{k}"
        it = f"_i{k}"
        self.w(f"{bk} = _z")
        self.w(f"{ct} = _z")
        self.w(f"{ex} = _z")
        self.w(f"{it} = 0")
        self.scopes[-1].append((bk, ct, ex))
        self.w("while True:")
        self.level += 1
        top = self.newmask(self.combine(entry, *self.live_terms()))
        self.w(f"if not {top}.any(): break")
        cur = top
        if item.cond_block is not None:
            guard = not item.pretest
            if guard:
                self.w(f"if {it} > 0:")
                self.level += 1
            after_cond = self.gen_block(item.cond_block, cur)
            self.w(f"{ex} = {ex} | ({after_cond} & ~r{item.cond})")
            if guard:
                self.level -= 1
            # entry & live now equals (mask-after-cond & cond): the
            # lanes whose condition went false just joined `exited`.
            cur = self.newmask(self.combine(entry, *self.live_terms()))
            self.w(f"if not {cur}.any(): break")
        self.gen_block(item.body_block, cur)
        self.w(f"{ct} = _z")
        rejoin = self.newmask(self.combine(entry, *self.live_terms()))
        if item.update_block is not None:
            self.w(f"if {rejoin}.any():")
            self.level += 1
            self.gen_block(item.update_block, rejoin)
            self.level -= 1
        self.w(f"{it} += 1")
        self.w(f"if {it} > maxit: raise GlslLimitError("
               f"'loop exceeded %d iterations' % maxit)")
        self.level -= 1
        self.scopes[-1].pop()
        return self.region_exit_mask(entry)

    def gen_cond(self, item: CondRegion, m: Optional[str]) -> Optional[str]:
        if _has_struct(item.type):
            raise JitUnsupported("struct-typed conditional")
        if block_has_kill(item.true_block) or block_has_kill(item.false_block):
            raise JitUnsupported("kill op inside conditional arm")
        self.types[item.out] = item.type
        if m is None and self.uinfo.is_uniform(item.cond):
            # Full mask + uniform condition: the interpreter's runtime
            # uniform fast path always fires, so a native branch with an
            # arm alias is exact.
            self.w(f"if bool(r{item.cond}[0]):")
            self.level += 1
            self.gen_block(item.true_block, m)
            self.w(f"r{item.out} = r{item.true_reg}")
            self.level -= 1
            self.w("else:")
            self.level += 1
            self.gen_block(item.false_block, m)
            self.w(f"r{item.out} = r{item.false_reg}")
            self.level -= 1
            return m
        mt = self.newmask(self.combine(m, f"r{item.cond}"))
        self.gen_block(item.true_block, mt)
        mf = self.newmask(self.combine(m, f"~r{item.cond}"))
        self.gen_block(item.false_block, mf)
        cond = self.expand_mask(f"r{item.cond}", _ndim(item.type))
        self.w(f"r{item.out} = np.where({cond}, "
               f"r{item.true_reg}, r{item.false_reg})")
        return m

    def gen_sc(self, item: ScRegion, m: Optional[str]) -> Optional[str]:
        if block_has_kill(item.rhs_block):
            raise JitUnsupported("kill op inside short-circuit rhs")
        self.types[item.out] = self.type_of(item.left)
        guard = f"r{item.left}" if item.op == "&&" else f"~r{item.left}"
        rm = self.newmask(self.combine(m, guard))
        self.gen_block(item.rhs_block, rm)
        # The interpreter's exact combine formulas; both are correct
        # even when the rhs mask is empty (result degrades to lhs).
        if item.op == "&&":
            self.w(f"r{item.out} = r{item.left} & (r{item.right} | ~{rm})")
        else:
            self.w(f"r{item.out} = r{item.left} | (r{item.right} & {rm})")
        # SCEND restores the saved mask without a live recompute.
        return m

    def gen_func(self, item: FuncRegion, m: Optional[str]) -> Optional[str]:
        # Frame elision (passes.py) already removed frames for loop-free
        # single-tail-return bodies; a frame that survives with returns
        # is supported only in the one remaining benign shape — exactly
        # one `return` as the final top-level item (a loop-containing
        # function with an unconditional result).  Anything else means
        # lanes retire mid-body, which needs the frame's `returned`
        # channel: fall back.
        items = item.body_block.items
        tail = None
        if items and isinstance(items[-1], Instr) and items[-1].op == "return":
            tail = items[-1]
        if _frame_return_count(item.body_block) > (1 if tail is not None else 0):
            raise JitUnsupported(f"function '{item.name}' returns "
                                 "under divergence")
        self.scopes.append([])
        try:
            mb = self.gen_items(items[:-1] if tail is not None else items, m)
        finally:
            self.scopes.pop()
        if item.out is not None and not item.ret_type.is_void():
            self.types[item.out] = item.ret_type
            if tail is not None and tail.args:
                # The frame's return-value blend: zeros(1) lanes stay
                # zero outside the mask (assign_masked semantics).
                if mb is None:
                    self.w(f"r{item.out} = r{tail.args[0]}")
                else:
                    zv = self.zeros_template(item.ret_type)
                    cexpr = self.expand_mask(mb, _ndim(item.ret_type))
                    self.w(f"r{item.out} = np.where({cexpr}, "
                           f"r{tail.args[0]}, {zv})")
            else:
                # No-return frame: the return-value slot stays zeros.
                self.w(f"r{item.out} = {self.zeros_template(item.ret_type)}")
        if self.has_discard and _block_has_op(item.body_block, ("discard",)):
            return self.region_exit_mask(m)
        return m

    # ==================================================================
    # Instructions
    # ==================================================================
    def gen_instr(self, ins: Instr, m: Optional[str]) -> Optional[str]:
        op = ins.op
        if ins.out is not None and ins.out in self.global_regs:
            raise JitUnsupported("instruction rebinds a global register")
        method = getattr(self, f"_g_{op}", None)
        if method is None:
            raise JitUnsupported(f"op '{op}'")
        self._own_root = None
        result = method(ins, m)
        # Single-owner tracking for in-place component stores: reading
        # a register may hand out an alias or view of its array, and
        # rebinding the name drops ownership of the old array.  A
        # full-mask swizzle store re-establishes ownership (its result
        # is a fresh, never-aliased copy) via ``_own_root``.
        self.owned.difference_update(ins.args)
        if ins.out is not None:
            self.owned.discard(ins.out)
        if self._own_root is not None:
            self.owned.add(self._own_root)
            self._own_root = None
        return result

    # -- kills ----------------------------------------------------------
    def _g_discard(self, ins: Instr, m: Optional[str]) -> Optional[str]:
        self.w(f"_dc = _dc | {m if m is not None else 'True'}")
        return self.newmask(self.combine(m, "~_dc"))

    def _kill_channel(self, slot: int, m: Optional[str]) -> Optional[str]:
        if not self.scopes[-1]:
            raise JitUnsupported("break/continue outside a loop")
        var = self.scopes[-1][-1][slot]
        self.w(f"{var} = {var} | {m if m is not None else 'True'}")
        return self.newmask(self.combine(m, f"~{var}"))

    def _g_break(self, ins: Instr, m: Optional[str]) -> Optional[str]:
        return self._kill_channel(0, m)

    def _g_continue(self, ins: Instr, m: Optional[str]) -> Optional[str]:
        return self._kill_channel(1, m)

    def _g_return(self, ins: Instr, m: Optional[str]) -> Optional[str]:
        raise JitUnsupported("return instruction")

    # -- value ops -------------------------------------------------------
    def _g_const(self, ins: Instr, m):
        gtype, data = self.program.materialized_consts(self.fmodel)[ins.imm]
        self.types[ins.out] = gtype
        self.w(f"r{ins.out} = {self.capture(data, '_c')}")
        return m

    def _g_move(self, ins: Instr, m):
        src = ins.args[0]
        if src in self.samplers:
            self.samplers[ins.out] = self.samplers[src]
            self.types[ins.out] = self.type_of(src)
            return m
        self.types[ins.out] = ins.type or self.type_of(src)
        self.w(f"r{ins.out} = r{src}")
        return m

    _g_copy = _g_move

    def _g_decl(self, ins: Instr, m):
        if ins.type.is_sampler():
            self.samplers[ins.out] = "None"
            self.types[ins.out] = ins.type
            return m
        self.types[ins.out] = ins.type
        self.w(f"r{ins.out} = {self.zeros_template(ins.type)}")
        return m

    def _g_unary(self, ins: Instr, m):
        src = ins.args[0]
        stype = self.type_of(src)
        if ins.imm == "-":
            expr = f"-r{src}"
            if stype.is_float_based():
                expr = self.q(expr)
            self.types[ins.out] = stype
        else:  # "!"
            expr = f"~r{src}"
            self.types[ins.out] = ins.type or stype
        self.w(f"r{ins.out} = {expr}")
        return m

    def _g_compare(self, ins: Instr, m):
        a, b = ins.args
        self.types[ins.out] = ins.type
        self.w(f"r{ins.out} = r{a} {_COMPARE_SYMBOL[ins.imm]} r{b}")
        return m

    def _g_equal(self, ins: Instr, m):
        a, b = ins.args
        ltype = self.type_of(a)
        if _has_struct(ltype):
            raise JitUnsupported("struct equality")
        nd = _ndim(ltype)
        expr = f"r{a} == r{b}"
        if nd == 2:
            expr = f"np.all({expr}, axis=1)"
        elif nd > 2:
            axes = tuple(range(1, nd))
            expr = f"np.all({expr}, axis={axes})"
        if ins.imm[0] == "!=":
            expr = f"~({expr})"
        self.types[ins.out] = ins.type
        self.w(f"r{ins.out} = {expr}")
        return m

    def _g_xor(self, ins: Instr, m):
        a, b = ins.args
        self.types[ins.out] = ins.type
        self.w(f"r{ins.out} = r{a} ^ r{b}")
        return m

    def _g_swizzle(self, ins: Instr, m):
        src = ins.args[0]
        self.types[ins.out] = ins.type
        self.w(f"r{ins.out} = {self._swizzle_expr(f'r{src}', ins.imm)}")
        return m

    @staticmethod
    def _swizzle_expr(base: str, indices) -> str:
        if len(indices) == 1:
            return f"{base}[:, {indices[0]}]"
        return f"{base}[:, {list(indices)!r}]"

    def _g_field(self, ins: Instr, m):
        raise JitUnsupported("struct field access")

    def _g_index(self, ins: Instr, m):
        base, idx = ins.args
        self.types[ins.out] = ins.type
        self.w(f"r{ins.out} = _index(r{base}, r{idx})")
        return m

    def _g_select(self, ins: Instr, m):
        cond, t, f = ins.args
        rt = ins.type or self.type_of(t)
        self.types[ins.out] = rt
        cexpr = self.expand_mask(f"r{cond}", _ndim(rt))
        self.w(f"r{ins.out} = np.where({cexpr}, r{t}, r{f})")
        return m

    def _g_sc_combine(self, ins: Instr, m):
        left, right = ins.args
        self.types[ins.out] = ins.type or self.type_of(left)
        guard = f"r{left}" if ins.imm == "&&" else f"~r{left}"
        rm = self.combine(m, guard)
        tmp = self.name("_t")
        self.w(f"{tmp} = {rm}")
        if ins.imm == "&&":
            self.w(f"r{ins.out} = r{left} & (r{right} | ~{tmp})")
        else:
            self.w(f"r{ins.out} = r{left} | (r{right} & {tmp})")
        return m

    @staticmethod
    def expand_mask(expr: str, ndim: int) -> str:
        if ndim <= 1:
            return expr
        return f"{expr}[:, {', '.join('None' for _ in range(ndim - 1))}]"

    # -- arithmetic ------------------------------------------------------
    def _g_arith(self, ins: Instr, m):
        op = ins.imm[0]
        a, b = ins.args
        ltype, rtype = self.type_of(a), self.type_of(b)
        rt = ins.type
        self.types[ins.out] = rt
        out = f"r{ins.out}"
        if op == "*" and ltype.is_matrix() and rtype.is_matrix():
            k = ltype.size
            self.w(f"{out} = r{a}[:, 0, :][:, None, :] * "
                   f"r{b}[:, :, 0][:, :, None]")
            for i in range(1, k):
                self.w(f"{out} = {out} + r{a}[:, {i}, :][:, None, :] * "
                       f"r{b}[:, :, {i}][:, :, None]")
        elif op == "*" and ltype.is_matrix() and rtype.is_vector():
            k = ltype.size
            self.w(f"{out} = r{a}[:, 0, :] * r{b}[:, 0][:, None]")
            for c in range(1, k):
                self.w(f"{out} = {out} + r{a}[:, {c}, :] * "
                       f"r{b}[:, {c}][:, None]")
        elif op == "*" and ltype.is_vector() and rtype.is_matrix():
            k = rtype.size
            self.w(f"{out} = r{a}[:, 0][:, None] * r{b}[:, :, 0]")
            for r in range(1, k):
                self.w(f"{out} = {out} + r{a}[:, {r}][:, None] * "
                       f"r{b}[:, :, {r}]")
        else:
            ea = self._aligned(f"r{a}", _ndim(ltype), _ndim(rtype))
            eb = self._aligned(f"r{b}", _ndim(rtype), _ndim(ltype))
            if op == "/":
                if rt.is_int_based():
                    # C-style trunc toward zero, x/0 == 0 (astype
                    # included: the quotient is computed in float).
                    self.w(f"{out} = np.trunc(np.where({eb} != 0, "
                           f"{ea} / np.where({eb} == 0, 1, {eb}), 0.0))"
                           f".astype(I32)")
                    return m
                self.w(f"{out} = {self.q(f'{ea} / {eb}')}")
                return m
            expr = f"{ea} {op} {eb}"
            if rt.is_float_based():
                expr = self.q(expr)
            self.w(f"{out} = {expr}")
            return m
        # matrix-product tail: quantize (always float-based)
        if rt.is_float_based():
            qed = self.q(out)
            if qed != out:
                self.w(f"{out} = {qed}")
        return m

    @staticmethod
    def _aligned(expr: str, own: int, other: int) -> str:
        if own >= other:
            return expr
        pad = ", ".join("None" for _ in range(other - own))
        prefix = ", ".join(":" for _ in range(own))
        return f"{expr}[{prefix}, {pad}]"

    # -- builtins / textures ---------------------------------------------
    def _g_builtin(self, ins: Instr, m):
        overload = ins.imm[1]
        rt = ins.type
        self.types[ins.out] = rt
        impl = self.capture(overload.impl, "_b")
        call = f"{impl}({', '.join(f'r{a}' for a in ins.args)})"
        if rt.is_float_based():
            # asarray with an explicit dtype is the same cast as
            # astype but skips the copy when the impl already returns
            # DT — safe, generated code never mutates arrays in place.
            expr = self.q(f"np.asarray({call}, DT)", overload.category)
        elif rt.is_int_based():
            expr = f"np.asarray({call}, I32)"
        else:
            expr = f"np.asarray({call}, np.bool_)"
        self.w(f"r{ins.out} = {expr}")
        return m

    def _g_texture(self, ins: Instr, m):
        overload = ins.imm[1]
        sampler = self.samplers.get(ins.args[0])
        if sampler is None:
            raise JitUnsupported("sampler register not traceable")
        kind = _TEX_KIND.get(overload.impl, 0)
        self.types[ins.out] = ins.type
        site = self.fused.get(id(ins))
        if site is None:
            self.w(f"r{ins.out} = _tex({sampler}, r{ins.args[1]}, {kind})")
            return m
        # Fused read (glsl.ir.gather): one call returns the stored
        # bytes of the site's flat index; only a miss runs the private
        # address and coordinate instructions, the sample and the
        # decode, in their original order.  Only plain texture2D sites
        # of a global sampler with a width-1 size register (the helper
        # reads scalar dimensions out of it) fuse.  Under the full
        # mask the site's decode tail runs in a decoder function
        # instead, and the call returns the tail's outputs.  Under a
        # mask the call takes the mask (inactive lanes may index past
        # the storage, so they read texel 0) and the tail runs in
        # place on the bytes it returns.
        call = (f"_fetch({self.nsites}, {sampler}, r{site.index}, "
                f"r{ins.gather[0]}, {site.channel is None}")
        self.nsites += 1
        tail = site.tail if m is None else None
        if tail is None:
            out = f"r{site.out}"
            mask = "" if m is None else f", None, {m}"
            self.w(f"{out} = {call}{mask})")
        else:
            dec = self.decoder(site)
            out = self.name("_o")
            self.w(f"{out} = {call}, {dec})")
        self.w(f"if {out} is None:")
        self.level += 1
        for item in site.fallback:
            if item is ins:
                self.w(f"r{ins.out} = _tex({sampler}, r{ins.args[1]}, 0)")
            else:
                m = self.gen_instr(item, m)
        if tail is not None:
            self.w(f"{out} = {dec}(r{site.out})")
        self.level -= 1
        if tail is not None:
            outputs = "".join(f"r{reg}, " for reg in tail.outputs)
            self.w(f"{outputs}= {out}")
        # Conditional code: forget array ownership, as around regions.
        self.owned.clear()
        return m

    def decoder(self, site: FetchSite) -> str:
        """Name of the function that evaluates ``site``'s decode tail
        on an array of byte rows and returns its outputs, emitted once
        per distinct tail (same text after renaming registers).  The
        tail's instructions are skipped in place from now on."""
        tail = site.tail
        saved = self.lines, self.level, set(self.owned)
        self.lines, self.level = [], 1
        self.owned.clear()
        try:
            self.types[site.out] = site.fallback[-1].type
            for ins in tail.consts:
                self._g_const(ins, None)
            for ins in tail.instrs:
                self.gen_instr(ins, None)
            outputs = "".join(f"r{reg}, " for reg in tail.outputs)
            self.w(f"return ({outputs})")
            text = "\n".join([f"def _dec(r{site.out}):", *self.lines])
        finally:
            self.lines, self.level, self.owned = saved
        renamed: Dict[str, str] = {}
        text = _REGISTER.sub(
            lambda reg: renamed.setdefault(reg.group(), f"v{len(renamed)}"),
            text)
        key = (site.channel, text)
        name = self.decoders.get(key)
        if name is None:
            name = self.decoders[key] = f"_d{len(self.decoders)}"
            self.decoder_defs.append(text.replace("_dec", name, 1))
        self.deferred.update(id(ins) for ins in tail.instrs)
        return name

    # -- constructors ----------------------------------------------------
    def _g_construct(self, ins: Instr, m):
        target = ins.type
        if target.is_struct():
            raise JitUnsupported("struct constructor")
        self.types[ins.out] = target
        args = ins.args
        out = f"r{ins.out}"
        if target.is_scalar():
            src = args[0]
            stype = self.type_of(src)
            expr = f"r{src}"
            if not stype.is_scalar():
                expr = f"{expr}.reshape({expr}.shape[0], -1)[:, 0]"
            self.w(f"{out} = {self._cvt(expr, [stype], target.base)}")
            return m
        if target.is_vector():
            if len(args) == 1 and self.type_of(args[0]).is_scalar():
                cvt = self._cvt(f"r{args[0]}", [self.type_of(args[0])],
                                target.base)
                self.w(f"{out} = np.repeat(({cvt})[:, None], "
                       f"{target.size}, axis=1)")
                return m
            parts = ", ".join(f"r{a}" for a in args)
            flat = f"_flat([{parts}])[:, :{target.size}]"
            stypes = [self.type_of(a) for a in args]
            self.w(f"{out} = {self._cvt(flat, stypes, target.base)}")
            return m
        if target.is_matrix():
            k = target.size
            if len(args) == 1 and self.type_of(args[0]).is_scalar():
                cvt = self._cvt(f"r{args[0]}", [self.type_of(args[0])],
                                BaseType.FLOAT)
                self.w(f"{out} = _mdiag({cvt}, {k})")
                return m
            parts = ", ".join(f"r{a}" for a in args)
            stypes = [self.type_of(a) for a in args]
            flat = self._cvt(f"_flat([{parts}])", stypes, BaseType.FLOAT)
            self.w(f"{out} = {flat}")
            self.w(f"{out} = {out}.reshape({out}.shape[0], {k}, {k})")
            return m
        raise JitUnsupported(f"constructor for {target}")

    @staticmethod
    def _src_category(stypes) -> str:
        """Static dtype category of (possibly concatenated) sources:
        numpy promotion makes any float part float, else any int part
        int, else bool — mirroring what flatten_components produces."""
        if any(t.is_float_based() for t in stypes):
            return "float"
        if any(t.is_int_based() for t in stypes):
            return "int"
        return "bool"

    def _cvt(self, expr: str, stypes, base: str) -> str:
        cat = self._src_category(stypes)
        # asarray(.., dtype) is the same cast as astype but skips the
        # copy when the dtype already matches (a concat of DT parts is
        # DT) — alias-safe, generated code never mutates in place.
        if base == BaseType.FLOAT:
            if cat == "float" and len(stypes) == 1:
                return expr  # already the model dtype; rebind-safe alias
            return f"np.asarray({expr}, DT)"
        if base == BaseType.INT:
            if cat == "float":
                return f"np.trunc({expr}).astype(I32)"
            if cat == "int" and len(stypes) == 1:
                return expr
            return f"np.asarray({expr}, I32)"
        if cat == "bool" and len(stypes) == 1:
            return expr
        return f"(({expr}) != 0)"

    # -- l-value traffic -------------------------------------------------
    def _path_read(self, root_expr: str, path, idx_regs) -> str:
        expr = root_expr
        used = 0
        for step in path:
            kind = step[0]
            if kind == "f":
                raise JitUnsupported("struct field path")
            tmp = self.name("_t")
            if kind == "s":
                self.w(f"{tmp} = {self._swizzle_expr(expr, step[1])}")
            else:
                self.w(f"{tmp} = _index({expr}, r{idx_regs[used]})")
                used += 1
            expr = tmp
        return expr

    def _g_load(self, ins: Instr, m):
        path = ins.imm
        root = ins.args[0]
        if path == ():
            # A whole-variable load has its root's type (select
            # conversion's pre-value loads carry no type of their own).
            self.types[ins.out] = ins.type or self.type_of(root)
            if root in self.samplers:
                self.samplers[ins.out] = self.samplers[root]
                return m
            self.w(f"r{ins.out} = r{root}")
            return m
        self.types[ins.out] = ins.type
        expr = self._path_read(f"r{root}", path, ins.args[1:])
        self.w(f"r{ins.out} = {expr}")
        return m

    def _emit_path_store(self, root: int, path, idx_regs,
                         value_expr: str, m: Optional[str]) -> None:
        """Store through an l-value path (empty or single-step)."""
        self.store_roots.add(root)
        if path == ():
            if m is None:
                # Full-mask store: plain rebind (no-in-place invariant
                # makes aliasing safe; dtype is type-invariant).
                self.w(f"r{root} = {value_expr}")
            else:
                self.w(f"r{root} = _st(r{root}, {value_expr}, {m})")
            return
        if len(path) != 1:
            raise JitUnsupported("multi-step l-value path")
        step = path[0]
        mask = m if m is not None else "None"
        if step[0] == "s":
            if m is None and root in self.owned:
                # This code generator owns the array bound to the root
                # (fresh copy from a previous full-mask swizzle store,
                # no intervening reads): mutate it in place instead of
                # copying the whole vector again.
                self.w(f"r{root} = _swz_put(r{root}, {tuple(step[1])!r}, "
                       f"{value_expr})")
            else:
                self.w(f"r{root} = _swz_store(r{root}, {tuple(step[1])!r}, "
                       f"{value_expr}, {mask})")
            if m is None:
                self._own_root = root
        elif step[0] == "i":
            self.w(f"r{root} = _idx_store(r{root}, r{idx_regs[0]}, "
                   f"{value_expr}, {mask})")
        else:
            raise JitUnsupported("struct field store")

    def _g_store(self, ins: Instr, m):
        root = ins.args[0]
        if root in self.samplers:
            raise JitUnsupported("sampler store")
        self._emit_path_store(root, ins.imm, ins.args[2:], f"r{ins.args[1]}", m)
        return m

    def _g_incdec(self, ins: Instr, m):
        path, op, prefix = ins.imm
        root = ins.args[0]
        # The old-value temp may be a view of the root's array — an
        # in-place store would corrupt the postfix result.
        self.owned.discard(root)
        idx_regs = ins.args[1:]
        if path == ():
            old_expr = f"r{root}"
            vtype = self.type_of(root)
        else:
            old_expr = self._path_read(f"r{root}", path, idx_regs)
            vtype = ins.type
        old = self.name("_t")
        self.w(f"{old} = {old_expr}")
        delta = "1" if op == "++" else "-1"
        new_expr = f"{old} + np.asarray({delta}, {old}.dtype)"
        if vtype.is_float_based():
            new_expr = self.q(new_expr)
        new = self.name("_t")
        self.w(f"{new} = {new_expr}")
        self._emit_path_store(root, path, idx_regs, new, m)
        self.types[ins.out] = vtype
        self.w(f"r{ins.out} = {new if prefix else old}")
        return m


def generate(program: CompiledProgram, fmodel, wide_globals: Set[str]):
    """Generate and compile the JIT function for one program under one
    wide-global set.  Returns the callable ``fn(regs, n, maxit)``;
    raises :class:`JitUnsupported` for programs outside the subset."""
    gen = CodeGen(program, fmodel, wide_globals)
    source = gen.generate()
    ns = make_helpers(fmodel)
    ns.update(gen.ns)
    code = compile(source, f"<jit:{program.stage}>", "exec")
    exec(code, ns)
    fn = ns["_jit_main"]
    fn._jit_source = source
    # The compiled module code, persisted beside the source so a warm
    # start skips compile() (see repro.core.cache.dump_jit_entry).
    fn._jit_code = code
    # Captured objects only (the `make_helpers` closures are rebuilt
    # from the float model at the destination): with the source and
    # the code this is everything a worker process needs to
    # rematerialise the function — see repro.gles2.parallel.
    fn._jit_captured = dict(gen.ns)
    return fn
