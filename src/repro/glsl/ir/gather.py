"""Texture-gather annotation pass: proven fetch sites and fused reads.

The kernel codegen (:mod:`repro.core.codegen.templates`) reads every
input through the same helpers: ``index_1d`` turns the fragment
position into a flat element index, ``fetch_<input>`` maps that index
back to a normalised sample coordinate, samples, and the format's
unpack rebuilds the stored bytes (§IV, eqs. (1) and (4))::

    float x = mod(idx, size.x);
    float y = floor(idx / size.x);
    vec2 coord = (vec2(x, y) + 0.5) / size;
    vec4 b = floor(texture2D(sampler, coord) * 255.0 + vec4(0.5));
    // or, one-byte formats: floor(texture2D(sampler, coord).r * 255.0 + 0.5)

After the optimisation pipeline the coordinate part survives as one
rigid chain of pure single-definition value ops (mod / floor /
construct / +0.5 / divide-by-size): store forwarding
(:func:`~repro.glsl.ir.passes.forward_stores`) has replaced the reads
of the helper's single-store locals, which the helper declares in the
block that stores them — straight-line code, a loop body or an arm.
(A coordinate local stored in a loop it is declared outside keeps its
store; that read is not matched and samples through plain
``texture2D``.)  This pass recognises the chain and records two
annotations on the ``texture`` instruction.

``gather = (size_reg, x_reg, y_reg)``
-------------------------------------
A machine-checked proof that the sample coordinate is the texel-centre
form of the integer indices held in ``x_reg``/``y_reg`` under the
dimensions in ``size_reg``.  For a *nearest*-filtered sampler the
pipeline computes ``i = floor(s * W)`` (GLES2 §3.7.7); for
``s = (x + 0.5) / W`` with integer ``0 <= x < W`` this round-trips
exactly — in float32 (precision ``p = 24``) the combined relative
error of the divide and multiply roundings is below
``2^-24 + 2^-53``, so ``|s*W - (x+0.5)| < 0.5`` whenever ``W <= 2^21``
and the floor recovers ``x`` — and CLAMP_TO_EDGE wrap is the identity
on in-range indices.  A backend may therefore read texel storage
``texels[y, x]`` directly once the *runtime* half of the proof holds:
the sampler is complete with NEAREST mag filter and CLAMP_TO_EDGE wrap
on both axes, its dimensions equal the ``size`` uniform, and the
``x``/``y`` values are integral and in-range (``size`` is a runtime
uniform, so integrality and range cannot be proved statically).

``fetch = FetchSite``
---------------------
Set when the texel also feeds the byte decode ``floor(t * 255.0 +
0.5)`` — the vec4 ``gpgpu_bytes(texel)`` or the scalar
``gpgpu_byte(texel.r)`` — with constants exactly 255.0 and 0.5.  The
site records the flat element index ``idx`` the chain takes ``mod``
and ``floor`` of, and lists the instructions *private* to the fetch
(nothing outside it reads their results: the ``size.x`` swizzle, the
``mod``, the divide and the ``floor``, the coordinate
construct/+0.5/divide, the texture, the decode) and the *fallback*
sequence in original order.  The JIT turns the whole site into one
call that returns the stored bytes of texel ``idx`` of the flat
``(H, W)`` storage and runs the fallback — ``mod``/``floor``,
coordinates, ``texture2D``, decode — only when the runtime check
misses.

That flat read is the texel the chain addresses when three proofs
hold.  Statically (this pass): the ``mod`` and the divide sit in the
texture's block with no region boundary or kill op between them and
the texture, and nothing there rewrites ``idx``, so all three read
the same index.  Per float model (the JIT): the quantize of every
category in ``FetchSite.categories`` (the divide's ``alu``, the
``mod`` and ``floor`` builtins', the decode's) is a cast, so the
generated code runs plain model-dtype numpy, and the byte decode is
exact (:func:`repro.glsl.jit.codegen.decode_exact`).  Per storage
(the JIT, memoised per (dtype, W, H)):
:func:`repro.glsl.jit.runtime.flat_index_exact` evaluates the
generated code's own ``mod(i, W)`` and ``floor(i / W)`` for every
``i < W*H`` and finds ``(i % W, i // W)``.  At run time ``idx`` must
then be integral and in ``[0, W*H)``; with the ``gather`` proof above
that addresses texel ``(i % W, i // W)``, which is flat row ``i``.

Moving the private instructions to the texture's position is sound
because the pass only defers an instruction that (a) sits in the
texture's own block with no region boundary or kill op in between,
(b) is the single definition of what it writes, (c) has no reader
outside the site, and (d) whose operands nothing else rewrites
between its original position and the texture.  A moved instruction
writes only its own pure register, and a pure register is defined
before it is read in its block, so no deferred instruction reads a
value that a moved one left from an earlier pass through a loop body
(a pass whose read hit and skipped it).  A constant the decode reads
that is defined between the texture and its use is re-run inside the
fallback (and stays in place when others read it).

``FetchSite.tail = DecodeTail``
-------------------------------
The format's unpack after the byte decode (§IV, eqs. (1)–(4): the
sign/exponent/mantissa arithmetic of ``gpgpu_unpack_float32`` and
its kin) depends only on the stored bytes, so a backend may evaluate
it once per texel of the storage instead of once per fragment per
read.  The tail is the instructions after the decode that

(a) sit in the texture's block with no region boundary, kill op or
    other texture between them and the texture (so each position is
    scanned for at most one site's tail);
(b) read only the site's bytes, other tail registers, or
    single-definition ``const`` registers (no uniforms, no varyings);
(c) are lane-wise pure value ops (``_TAIL_OPS``);
(d) are each the single definition of what they write.

The tail's *outputs* are its registers read outside it (or by a
region node).  A backend binds them at the texture's position, so the
pass drops the tail when something between the texture and the
position where an output gets its value reads that output's previous
value.  Every lane of every output is the lane-wise function of that
lane's bytes.

Lane-freshness soundness
------------------------
Value ops compute full-width data (masks only gate stores), so the
chain of pure single-definition registers is value-consistent on
every lane, active or not: per lane, ``x``, ``y`` and the coordinate
are computed from the ``idx`` of the same pass.  A deferred
instruction computes the same values in the fallback, and inactive
lanes of a private register are never observed.  The flat read takes
``idx`` itself; a masked site's inactive lanes may hold any index (a
neighbour read past the edge), so a backend checks and reads ``idx``
on the active lanes only.

The pass runs after :func:`~repro.glsl.ir.passes.compact_pool` so
constant-pool indices are final, and is purely additive: it never
reorders, rewrites or removes instructions, so the IR executor, the
scalar reference and the static cost model are untouched and remain
bit-identical oracles.  It runs in time linear in the program: one
indexing pass, then per texture site constant work, logarithmic
window queries and one scan of its tail window, which no other site
scans.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .nodes import (
    Block,
    CompiledProgram,
    CondRegion,
    IfRegion,
    Instr,
    KILL_OPS,
    LoopRegion,
    Region,
    ScRegion,
)

#: texture overload keys eligible for gather (plain 2-D texture2D).
_GATHER_TEX_KEYS = frozenset({"texture2D/0"})

#: ops a decode tail may consist of — lane-wise pure value ops (no
#: struct fields, no mask-reading short-circuit combine).
_TAIL_OPS = frozenset({"move", "unary", "arith", "compare", "equal", "xor",
                       "construct", "swizzle", "index", "builtin",
                       "select"})


class DecodeTail:
    """The §IV unpack after a fused read's byte decode (``FetchSite.tail``).

    ``instrs`` are the tail's lane-wise value ops in original order.
    ``consts`` are the single-definition ``const``
    instructions they read (they stay in place too; a backend that
    evaluates the tail elsewhere re-reads them).  ``outputs`` are the
    tail registers read outside it, in definition order.
    """

    __slots__ = ("instrs", "consts", "outputs")

    def __init__(self, instrs: Tuple[Instr, ...], consts: Tuple[Instr, ...],
                 outputs: Tuple[int, ...]):
        self.instrs = instrs
        self.consts = consts
        self.outputs = outputs


class FetchSite:
    """One fused kernel-input read (the ``fetch`` annotation).

    ``out`` is the register the decoded bytes land in (the ``floor``
    result); ``channel`` is None for the vec4 decode and 0 for the
    ``.r`` form.  ``index`` is the flat element index register the
    coordinate chain takes ``mod``/``floor`` of; ``categories`` are the
    quantize categories of the float ops the read stands in for (the
    address divide, ``mod`` and ``floor``, and the byte decode).
    ``private`` holds the instructions a backend may skip at their own
    positions; ``fallback`` is what it must run at the texture's
    position when the direct read misses, in original order (the
    texture instruction included).  ``tail`` is the :class:`DecodeTail`
    that turns the bytes into the kernel's value, or None.
    """

    __slots__ = ("out", "channel", "index", "categories", "private",
                 "fallback", "tail")

    def __init__(self, out: int, channel: Optional[int], index: int,
                 categories: FrozenSet[str], private: Tuple[Instr, ...],
                 fallback: Tuple[Instr, ...]):
        self.out = out
        self.channel = channel
        self.index = index
        self.categories = categories
        self.private = private
        self.fallback = fallback
        self.tail: Optional[DecodeTail] = None


def _sub_blocks(region):
    for slot in region.__slots__:
        value = getattr(region, slot)
        if isinstance(value, Block):
            yield value


def _region_reads(region) -> Tuple[int, ...]:
    """Registers a region node itself reads (conditions, arm results)."""
    if isinstance(region, (IfRegion, LoopRegion)):
        return () if region.cond is None else (region.cond,)
    if isinstance(region, CondRegion):
        return (region.cond, region.true_reg, region.false_reg)
    if isinstance(region, ScRegion):
        return (region.left, region.right)
    return ()


def _written(ins: Instr) -> Tuple[int, ...]:
    """Registers an instruction writes (its result and store root)."""
    out = () if ins.out is None else (ins.out,)
    if ins.op in ("store", "incdec") and ins.args:
        return (ins.args[0],) + out
    return out


class _DefInfo:
    """Program-wide definition / store / reader index."""

    def __init__(self, program: CompiledProgram):
        #: reg -> unique defining Instr, or None when multiply defined
        self.defs: Dict[int, Optional[Instr]] = {}
        #: store root reg -> list of (block, index, Instr)
        self.stores: Dict[int, List[Tuple[Block, int, Instr]]] = {}
        #: id(Instr) -> (block, index within block.items)
        self.positions: Dict[int, Tuple[Block, int]] = {}
        #: reg -> instructions reading it (once per operand slot)
        self.readers: Dict[int, List[Instr]] = {}
        #: registers published as globals
        self.globals: Set[int] = {plan.reg for plan in program.globals_plan}
        #: registers read by region nodes, or published as globals
        self.pinned: Set[int] = set(self.globals)
        for plan in program.globals_plan:
            if plan.init_block is not None:
                self._scan(plan.init_block)
        self._scan(program.body)

    def _scan(self, block: Block) -> None:
        for idx, item in enumerate(block.items):
            if isinstance(item, Instr):
                self.positions[id(item)] = (block, idx)
                for reg in item.args:
                    self.readers.setdefault(reg, []).append(item)
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
                self.pinned.update(_region_reads(item))
                for sub in _sub_blocks(item):
                    self._scan(sub)

    def resolve(self, reg: int, op: str) -> Optional[Instr]:
        """The pure single-definition ``op`` instruction computing
        ``reg``, or None (also when ``reg`` is a variable: store
        forwarding has already replaced the reads of every local the
        fetch chain could route through)."""
        ins = self.defs.get(reg)
        if ins is None or ins.op != op or reg in self.stores:
            return None
        return ins

    def sole_reader(self, reg: int) -> Optional[Instr]:
        """The one instruction reading ``reg``, if exactly one does."""
        readers = self.readers.get(reg, ())
        if len(readers) != 1 or reg in self.pinned:
            return None
        return readers[0]

    def private_to(self, ins: Instr, inside: Set[int]) -> bool:
        """True when every reader of what ``ins`` writes is in
        ``inside`` (a set of instruction ids)."""
        for reg in _written(ins):
            readers = self.readers.get(reg, ())
            if reg in self.pinned or len(readers) > len(inside):
                return False
            if any(id(reader) not in inside for reader in readers):
                return False
        return True


class _BlockIndex:
    """Write positions and mask barriers (regions, kill ops) of one
    block, for logarithmic window queries."""

    def __init__(self, block: Block):
        self.items = block.items
        self.writes: Dict[int, List[int]] = {}
        #: barriers[k] = number of barrier items among items[:k]
        self.barriers = [0]
        for pos, item in enumerate(block.items):
            is_instr = isinstance(item, Instr)
            barrier = not is_instr or item.op in KILL_OPS
            self.barriers.append(self.barriers[-1] + barrier)
            if is_instr:
                for reg in _written(item):
                    self.writes.setdefault(reg, []).append(pos)

    def open(self, lo: int, hi: int) -> bool:
        """No region or kill op strictly between positions lo < hi."""
        return self.barriers[hi] == self.barriers[lo + 1]

    def rewritten(self, reg: int, lo: int, hi: int, moved: Set[int]) -> bool:
        """True when an instruction strictly between lo and hi, other
        than the ``moved`` ones (ids), writes ``reg``."""
        positions = self.writes.get(reg, ())
        i = bisect_right(positions, lo)
        while i < len(positions) and positions[i] < hi:
            if id(self.items[positions[i]]) not in moved:
                return True
            i += 1
        return False


def _splat_const(program: CompiledProgram, info: _DefInfo, reg: int):
    """``(type name, value)`` when ``reg`` is a single-definition
    float constant whose components all equal ``value``, else None."""
    ins = info.defs.get(reg)
    if ins is None or ins.op != "const" or reg in info.stores:
        return None
    imm = ins.imm
    if not isinstance(imm, int) or not 0 <= imm < len(program.consts):
        return None
    gtype, master = program.consts[imm]
    flat = master.reshape(-1)
    name = str(gtype)
    if name not in ("float", "vec4") or flat.size == 0 \
            or not (flat == flat[0]).all():
        return None
    return name, float(flat[0])


def _match_fetch_chain(program, tex: Instr, info: _DefInfo):
    """Match the fetch-helper coordinate chain rooted at ``tex``.

    Expected value structure, every register pure and singly defined::

        swizzle   sx    <- size (0,)
        builtin   x     <- idx sx mod/0
        arith     q     <- idx sx ('/', 1)
        builtin   y     <- q floor/0
        construct xy    <- x y : vec2
        const     half  <- pool[0.5]
        arith     sum   <- xy half ('+', 2)
        arith     coord <- sum size ('/', 2)
        texture   out   <- sampler coord texture2D/0

    Returns ``((size_reg, x_reg, y_reg), idx_reg, address,
    coord_instrs)`` or None.  ``address`` are the ``mod``, the divide
    and the ``floor`` (in that order), then the ``size.x`` swizzle;
    ``coord_instrs`` are the instructions that only turn ``x``/``y``
    into the sample coordinate (construct, 0.5, +, divide).  Both are
    candidates for deferral.
    """
    coord = info.resolve(tex.args[1], "arith")
    if coord is None or coord.imm[0] != "/" or len(coord.args) != 2:
        return None
    sum_reg, size_reg = coord.args
    if size_reg in info.stores:
        return None
    add = info.resolve(sum_reg, "arith")
    if add is None or add.imm[0] != "+" or len(add.args) != 2:
        return None
    for xy_reg, half_reg in (add.args, add.args[::-1]):
        half = info.resolve(half_reg, "const")
        if half is not None and \
                _splat_const(program, info, half_reg) == ("float", 0.5):
            break
    else:
        return None
    xy = info.resolve(xy_reg, "construct")
    if xy is None or len(xy.args) != 2 or str(xy.type) != "vec2":
        return None
    x_reg, y_reg = xy.args
    x = info.resolve(x_reg, "builtin")
    if x is None or x.imm[0] != "mod/0" or len(x.args) != 2:
        return None
    idx_reg, sx_reg = x.args
    if idx_reg in info.stores:
        return None
    y = info.resolve(y_reg, "builtin")
    if y is None or y.imm[0] != "floor/0" or len(y.args) != 1:
        return None
    quot = info.resolve(y.args[0], "arith")
    if quot is None or quot.imm[0] != "/" or quot.args != (idx_reg, sx_reg):
        return None
    sx = info.resolve(sx_reg, "swizzle")
    if sx is None or sx.imm != (0,) or sx.args != (size_reg,):
        return None
    return ((size_reg, x_reg, y_reg), idx_reg, [x, quot, y, sx],
            [xy, half, add, coord])


def _match_decode(program, tex: Instr, info: _DefInfo):
    """Match the byte decode that is the texel's only consumer:
    ``floor(t * 255.0 + 0.5)`` on the vec4 or on ``t.r``.  Returns
    ``(channel, [swizzle,] mul, add, floor)`` or None."""
    chain: List[Instr] = []
    channel = None
    reg = tex.out
    ins = info.sole_reader(reg)
    if ins is not None and ins.op == "swizzle" and ins.imm == (0,):
        channel = 0
        chain.append(ins)
        reg = ins.out
        ins = info.sole_reader(reg)
    width = "vec4" if channel is None else "float"
    for op, value in (("*", 255.0), ("+", 0.5)):
        if (ins is None or ins.op != "arith" or ins.imm[0] != op
                or len(ins.args) != 2 or reg not in ins.args
                or str(ins.type) != width):
            return None
        other = ins.args[1] if ins.args[0] == reg else ins.args[0]
        const = _splat_const(program, info, other)
        if const is None or const[1] != value \
                or const[0] not in ("float", width):
            return None
        chain.append(ins)
        reg = ins.out
        ins = info.sole_reader(reg)
    if (ins is None or ins.op != "builtin" or ins.imm[0] != "floor/0"
            or ins.args != (reg,)):
        return None
    chain.append(ins)
    return channel, chain


def _fetch_site(program, tex: Instr, idx_reg: int, address, coord_instrs,
                info: _DefInfo, index_of) -> Optional[FetchSite]:
    """Build the fused-read record for an annotated texture, or None
    when the decode does not match or cannot move to the texture, or
    the flat index may differ there from what the ``mod`` and the
    divide read."""
    decode = _match_decode(program, tex, info)
    if decode is None:
        return None
    channel, chain = decode
    block, t = info.positions[id(tex)]
    index = index_of(block)
    for ins in address[:2]:
        where = info.positions.get(id(ins))
        if (where is None or where[0] is not block or where[1] >= t
                or not index.open(where[1], t)
                or index.rewritten(idx_reg, where[1], t, set())):
            return None
    pos: Dict[int, int] = {id(tex): t}
    for ins in chain:
        where = info.positions.get(id(ins))
        if where is None or where[0] is not block or where[1] <= t \
                or info.defs.get(ins.out) is not ins:
            return None
        pos[id(ins)] = where[1]
    end = pos[id(chain[-1])]
    if not index.open(t, end):
        return None
    # The bytes now land at the texture's position: nothing between
    # there and the floor may read the register's previous value.
    for reader in info.readers.get(chain[-1].out, ()):
        where = info.positions[id(reader)]
        if where[0] is block and t < where[1] < end:
            return None
    # The decode moves up to the texture.  Its constant operands
    # defined in between are re-run in the fallback; nothing else in
    # between may write an operand.
    moved = set(pos)
    consts: Dict[int, Instr] = {}
    for ins in chain:
        for reg in ins.args:
            d = info.defs.get(reg)
            if d is not None and id(d) in moved:
                continue
            where = None if d is None else info.positions.get(id(d))
            if (d is not None and d.op == "const" and where is not None
                    and where[0] is block and t < where[1] < pos[id(ins)]):
                consts[id(d)] = d
                pos[id(d)] = where[1]
            elif index.rewritten(reg, t, pos[id(ins)], moved):
                return None
    # The coordinate instructions move down to the texture: keep those
    # that are private and whose operands stay put (a fixpoint, since
    # dropping one makes its operands' producers non-private).
    deferred = []
    for ins in (*coord_instrs, *address):
        where = info.positions.get(id(ins))
        if where is not None and where[0] is block and where[1] < t \
                and index.open(where[1], t):
            deferred.append(ins)
            pos[id(ins)] = where[1]
    inside = moved | {id(ins) for ins in deferred}
    changed = True
    while changed:
        changed = False
        for ins in list(deferred):
            p = pos[id(ins)]
            if (not info.private_to(ins, inside)
                    or any(index.rewritten(reg, p, t, inside)
                           for reg in ins.args)):
                deferred.remove(ins)
                inside.discard(id(ins))
                changed = True
    inside |= {key for key, d in consts.items()
               if info.private_to(d, inside | {key})}
    fallback = sorted([tex, *deferred, *consts.values(), *chain],
                      key=lambda ins: pos[id(ins)])
    private = tuple(ins for ins in fallback
                    if ins is not tex and id(ins) in inside)
    mod, __, floor = address[:3]
    categories = frozenset(("alu", mod.imm[1].category,
                            floor.imm[1].category, chain[-1].imm[1].category))
    site = FetchSite(chain[-1].out, channel, idx_reg, categories, private,
                     tuple(fallback))
    site.tail = _decode_tail(tex, site, info)
    return site


def _decode_tail(tex: Instr, site: FetchSite,
                 info: _DefInfo) -> Optional[DecodeTail]:
    """Match the decode tail after a fused read (module docstring):
    the instructions of the texture's block, up to the next region,
    kill op or texture, whose value depends only on the site's bytes
    and compile-time constants."""
    block, t = info.positions[id(tex)]
    skip = {id(ins) for ins in site.fallback}
    #: tail register -> block position where it gets its value
    ready: Dict[int, int] = {
        site.out: info.positions[id(site.fallback[-1])][1]
    }
    instrs: List[Instr] = []
    consts: Dict[int, Instr] = {}
    def reach(reg: int) -> int:
        return max([where[1] for where in (
            info.positions[id(reader)] for reader in info.readers.get(reg, ())
        ) if where[0] is block], default=t)

    #: the last position in the block that reads a tail register
    horizon = reach(site.out)
    for pos in range(t + 1, len(block.items)):
        ins = block.items[pos]
        if (pos > horizon or not isinstance(ins, Instr)
                or ins.op in KILL_OPS or ins.op == "texture"):
            break
        if id(ins) in skip or ins.op == "const":
            continue
        out = ins.out
        if (ins.op not in _TAIL_OPS or out is None
                or info.defs.get(out) is not ins or out in info.stores
                or out in info.globals
                or not any(reg in ready for reg in ins.args)):
            continue
        defs = [info.defs.get(reg) for reg in ins.args if reg not in ready]
        if any(d is None or d.op != "const" or d.out in info.stores
               for d in defs):
            continue
        for d in defs:
            consts[id(d)] = d
        ready[out] = pos
        horizon = max(horizon, reach(out))
        instrs.append(ins)
    inside = {id(ins) for ins in instrs}
    outputs = []
    for reg, at in ready.items():
        outside = [reader for reader in info.readers.get(reg, ())
                   if id(reader) not in inside]
        if not outside and reg not in info.pinned:
            continue
        # The outputs are bound at the texture's position: nothing
        # between there and where the register got its value may read
        # its previous value.
        for reader in outside:
            where = info.positions[id(reader)]
            if where[0] is block and t < where[1] < at:
                return None
        outputs.append(reg)
    if not instrs or not outputs:
        return None
    return DecodeTail(tuple(instrs), tuple(consts.values()), tuple(outputs))


def texture_instrs(block: Block):
    """Yield every ``texture`` instruction under ``block``, in program
    order (nested regions included)."""
    for item in block.items:
        if isinstance(item, Instr):
            if item.op == "texture":
                yield item
        else:
            for sub in _sub_blocks(item):
                yield from texture_instrs(sub)


def annotate_gathers(program: CompiledProgram) -> int:
    """Annotate every provable fetch-pattern texture instruction with
    ``gather`` and, where the byte decode follows, ``fetch``.

    Returns the number of ``gather`` sites (for tests/diagnostics).
    Idempotent; stale annotations from a previous run are cleared.
    """
    info = _DefInfo(program)
    indexes: Dict[int, _BlockIndex] = {}

    def index_of(block: Block) -> _BlockIndex:
        index = indexes.get(id(block))
        if index is None:
            index = indexes[id(block)] = _BlockIndex(block)
        return index

    sites = 0
    for tex in texture_instrs(program.body):
        tex.gather = tex.fetch = None
        imm = tex.imm
        if (not isinstance(imm, tuple) or len(imm) != 2
                or imm[0] not in _GATHER_TEX_KEYS or len(tex.args) != 2):
            continue
        match = _match_fetch_chain(program, tex, info)
        if match is not None:
            tex.gather, idx_reg, address, coord_instrs = match
            tex.fetch = _fetch_site(program, tex, idx_reg, address,
                                    coord_instrs, info, index_of)
            sites += 1
    return sites
