"""Texture-gather annotation pass.

The kernel codegen (:mod:`repro.core.codegen.templates`) addresses
every input texture through the same two helpers: ``index_1d`` turns
the fragment position into a flat element index, and ``fetch_<input>``
maps that index back to a normalised sample coordinate as::

    float x = mod(idx, size.x);
    float y = floor(idx / size.x);
    vec2 coord = (vec2(x, y) + 0.5) / size;
    ... texture2D(sampler, coord) ...

After the optimisation pipeline this survives as one rigid instruction
chain (mod / floor / construct / +0.5 / divide-by-size), either fully
forwarded into pure value ops (straight-line kernels) or still routed
through the helper's single-store locals (loop bodies, where store
forwarding does not cross iterations).  This pass recognises both
forms and annotates the ``texture`` instruction with
``gather = (size_reg, x_reg, y_reg)``: a machine-checked proof that
the sample coordinate is the texel-centre form of the integer indices
held in ``x_reg``/``y_reg`` under the dimensions in ``size_reg``.

What the annotation licenses
----------------------------
For a *nearest*-filtered sampler the pipeline computes
``i = floor(s * W)`` (GLES2 §3.7.7); for ``s = (x + 0.5) / W`` with
integer ``0 <= x < W`` this round-trips exactly — in float32
(precision ``p = 24``) the combined relative error of the divide and
multiply roundings is below ``2^-24 + 2^-53``, so
``|s*W - (x+0.5)| < 0.5`` whenever ``W <= 2^21`` and the floor
recovers ``x`` — and CLAMP_TO_EDGE wrap is the identity on in-range
indices.  A backend may therefore replace the whole wrap/scale/filter
pipeline with a direct texel-storage gather ``texels[y, x]`` once the
*runtime* half of the proof holds: the sampler is complete with
NEAREST mag filter and CLAMP_TO_EDGE wrap on both axes, its
dimensions equal the ``size`` uniform, and the ``x``/``y`` values are
integral and in-range (``size`` is a runtime uniform, so integrality
and range cannot be proved statically; the JIT's ``_gather`` helper
checks them per call and falls back to the ordinary sampler
otherwise, counted in ``draw.gather_fallbacks``).

Lane-freshness soundness
------------------------
Value ops compute full-width data (masks only gate stores), so a
chain of *pure* single-definition registers is value-consistent on
every lane, active or not.  The store-routed form is consistent only
because all three locals (``x``, ``y``, ``coord``) are written under
the same execution mask: the pass requires their defining stores and
the texture instruction to share one block with no region boundaries
or kill ops in between, so per lane the three registers always hold
values from the same (possibly earlier) iteration and the coordinate
relation holds lane-wise.  Mixed pure/stored chains are rejected —
a fresh full-width index paired with a stale masked coordinate could
disagree on inactive lanes.

The pass runs after :func:`~repro.glsl.ir.passes.compact_pool` so
constant-pool indices are final, and is purely additive: it never
reorders, rewrites or removes instructions, so the AST/IR/scalar-ref
backends are untouched and remain bit-identical oracles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .nodes import Block, CompiledProgram, Instr, KILL_OPS, Region

#: texture overload keys eligible for gather (plain 2-D texture2D).
_GATHER_TEX_KEYS = frozenset({"texture2D/0"})

#: ops a matched coordinate chain may consist of — all pure value ops.
_CHAIN_OPS = frozenset({"const", "swizzle", "builtin", "arith", "construct"})


def _sub_blocks(region):
    for slot in region.__slots__:
        value = getattr(region, slot)
        if isinstance(value, Block):
            yield value


class _DefInfo:
    """Program-wide single-definition / single-store index."""

    def __init__(self, program: CompiledProgram):
        #: reg -> unique defining Instr, or None when multiply defined
        self.defs: Dict[int, Optional[Instr]] = {}
        #: store root reg -> list of (block, index, Instr)
        self.stores: Dict[int, List[Tuple[Block, int, Instr]]] = {}
        #: id(Instr) -> (block, index within block.items)
        self.positions: Dict[int, Tuple[Block, int]] = {}
        for plan in program.globals_plan:
            if plan.init_block is not None:
                self._scan(plan.init_block)
        self._scan(program.body)

    def _scan(self, block: Block) -> None:
        for idx, item in enumerate(block.items):
            if isinstance(item, Instr):
                self.positions[id(item)] = (block, idx)
                if item.op in ("store", "incdec") and item.args:
                    self.stores.setdefault(item.args[0], []).append(
                        (block, idx, item)
                    )
                if item.out is not None:
                    if item.out in self.defs:
                        self.defs[item.out] = None
                    else:
                        self.defs[item.out] = item
            elif isinstance(item, Region):
                for sub in _sub_blocks(item):
                    self._scan(sub)

    def resolve(self, reg: int):
        """Resolve ``reg`` to the pure instruction computing its value.

        Returns ``(instr, store)`` where ``store`` is None for a pure
        single-definition register, or the ``(block, idx, Instr)``
        triple of the *single* whole-value store when ``reg`` is a
        store-routed local whose stored source is pure.  Returns None
        when the value cannot be pinned down.
        """
        ins = self.defs.get(reg)
        if ins is None:
            return None
        if ins.op in _CHAIN_OPS and reg not in self.stores:
            return ins, None
        writes = self.stores.get(reg, ())
        if len(writes) != 1:
            return None
        block, idx, st = writes[0]
        if st.op != "store" or st.imm != () or len(st.args) != 2:
            return None  # partial (swizzled/indexed) store: not whole-value
        src = self.defs.get(st.args[1])
        if src is None or src.op not in _CHAIN_OPS \
                or st.args[1] in self.stores:
            return None
        return src, (block, idx, st)


def _is_half_const(program: CompiledProgram, imm) -> bool:
    """True when ``imm`` indexes a scalar float 0.5 in the pool."""
    if not isinstance(imm, int) or not 0 <= imm < len(program.consts):
        return False
    gtype, master = program.consts[imm]
    flat = master.reshape(-1)
    return str(gtype) == "float" and flat.size == 1 and float(flat[0]) == 0.5


def _same_mask_window(info: _DefInfo, tex: Instr, stores) -> bool:
    """True when every store in ``stores`` shares the texture's block
    and the span from the earliest store to the texture is free of
    region boundaries and kill ops — i.e. one execution mask covers
    all of them and the stored triple is lane-consistent."""
    tex_pos = info.positions.get(id(tex))
    if tex_pos is None:
        return False
    tex_block, tex_idx = tex_pos
    first = tex_idx
    for block, idx, __ in stores:
        if block is not tex_block or idx >= tex_idx:
            return False
        first = min(first, idx)
    for item in tex_block.items[first:tex_idx]:
        if isinstance(item, Region):
            return False
        if isinstance(item, Instr) and item.op in KILL_OPS:
            return False
    return True


def _match_fetch_chain(program, tex: Instr, info: _DefInfo):
    """Match the fetch-helper coordinate chain rooted at ``tex``.

    Expected value structure (each endpoint either a pure register or
    a single-store local)::

        swizzle   sx    <- size (0,)
        builtin   x     <- idx sx mod/0
        arith     q     <- idx sx ('/', 1)
        builtin   y     <- q floor/0
        construct xy    <- x y : vec2
        const     half  <- pool[0.5]
        arith     sum   <- xy half ('+', 2)
        arith     coord <- sum size ('/', 2)
        texture   out   <- sampler coord texture2D/0

    Returns ``(size_reg, x_reg, y_reg)`` or None.
    """

    def pure(reg, op):
        res = info.resolve(reg)
        if res is None or res[1] is not None or res[0].op != op:
            return None
        return res[0]

    coord_res = info.resolve(tex.args[1])
    if coord_res is None:
        return None
    coord, coord_store = coord_res
    if coord.op != "arith" or coord.imm[0] != "/" or len(coord.args) != 2:
        return None
    sum_reg, size_reg = coord.args
    if size_reg in info.stores:
        return None
    add = pure(sum_reg, "arith")
    if add is None or add.imm[0] != "+" or len(add.args) != 2:
        return None
    for xy_reg, half_reg in (add.args, add.args[::-1]):
        half = pure(half_reg, "const")
        if half is not None and _is_half_const(program, half.imm):
            break
    else:
        return None
    xy = pure(xy_reg, "construct")
    if xy is None or len(xy.args) != 2 or str(xy.type) != "vec2":
        return None
    x_reg, y_reg = xy.args
    x_res = info.resolve(x_reg)
    y_res = info.resolve(y_reg)
    if x_res is None or y_res is None:
        return None
    x, x_store = x_res
    y, y_store = y_res
    if x.op != "builtin" or x.imm[0] != "mod/0" or len(x.args) != 2:
        return None
    idx_reg, sx_reg = x.args
    if idx_reg in info.stores:
        return None
    if y.op != "builtin" or y.imm[0] != "floor/0" or len(y.args) != 1:
        return None
    quot = pure(y.args[0], "arith")
    if quot is None or quot.imm[0] != "/" or quot.args != (idx_reg, sx_reg):
        return None
    sx = pure(sx_reg, "swizzle")
    if sx is None or sx.imm != (0,) or sx.args != (size_reg,):
        return None
    # Lane-freshness: all three endpoints pure, or all three stored
    # under one mask in the texture's own block (see module docstring).
    endpoint_stores = [s for s in (coord_store, x_store, y_store)
                       if s is not None]
    if endpoint_stores:
        if len(endpoint_stores) != 3:
            return None  # mixed pure/stored: inactive lanes may skew
        if not _same_mask_window(info, tex, endpoint_stores):
            return None
    return (size_reg, x_reg, y_reg)


def annotate_gathers(program: CompiledProgram) -> int:
    """Annotate every provable fetch-pattern texture instruction.

    Returns the number of sites annotated (for tests/diagnostics).
    Idempotent; stale annotations from a previous run are cleared.
    """
    info = _DefInfo(program)

    def visit(block: Block) -> int:
        sites = 0
        for item in block.items:
            if isinstance(item, Instr):
                if item.op != "texture":
                    continue
                item.gather = None
                imm = item.imm
                if (not isinstance(imm, tuple) or len(imm) != 2
                        or imm[0] not in _GATHER_TEX_KEYS
                        or len(item.args) != 2):
                    continue
                match = _match_fetch_chain(program, item, info)
                if match is not None:
                    item.gather = match
                    sites += 1
            elif isinstance(item, Region):
                for sub in _sub_blocks(item):
                    sites += visit(sub)
        return sites

    return visit(program.body)
