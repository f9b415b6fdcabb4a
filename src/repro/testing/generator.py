"""Random type-correct GLSL ES 1.00 fragment shader generator.

Emits programs that are guaranteed to compile under the repo's own
front end (no implicit conversions, relational operators on scalars
only, Appendix-A style constant-bound ``for`` loops) and — by
construction — to stay away from NaN/Inf-producing operations, so
that a bit-exact four-way differential comparison (raster pipeline
vs IR replay vs JIT replay vs scalar reference) is meaningful.

The generator is driven by a caller-supplied ``random.Random``; the
same seed always yields the same program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.codegen.glsl_functions import ADDRESSING_GLSL, COMMON_GLSL

#: Uniforms every generated program may reference.  The oracle binds
#: deterministic values for exactly these names.
STANDARD_UNIFORMS: Tuple[Tuple[str, str], ...] = (
    ("u_f0", "float"),
    ("u_f1", "float"),
    ("u_v2", "vec2"),
    ("u_v3", "vec3"),
    ("u_v4", "vec4"),
    ("u_size0", "vec2"),
    ("u_size3", "vec2"),
)

#: Samplers every generated program may reference.  The oracle binds a
#: deterministic RGBA8 image to each (see
#: :data:`repro.testing.oracle.STANDARD_TEXTURE_VALUES`); the set spans
#: square/non-square, power-of-two/NPOT and 1x1 shapes plus NEAREST and
#: LINEAR filtering, so generated ``texture2D`` calls exercise the full
#: sampling path of every backend.
STANDARD_SAMPLERS: Tuple[str, ...] = ("u_tex0", "u_tex1", "u_tex2", "u_tex3")

#: The NEAREST / CLAMP_TO_EDGE standard samplers with their size
#: uniforms and texel counts: a flat-index read of one (see
#: :meth:`_ProgramGenerator.index_read`) is a kernel input read the JIT
#: fuses.
INDEX_SAMPLERS: Tuple[Tuple[str, str, int, int], ...] = (
    ("u_tex0", "u_size0", 4, 4),
    ("u_tex3", "u_size3", 5, 3),
)

_PREAMBLE = (
    "precision highp float;\n"
    "varying vec2 v_uv;\n"
    + "".join(f"uniform {t} {n};\n" for n, t in STANDARD_UNIFORMS)
    + "".join(f"uniform sampler2D {n};\n" for n in STANDARD_SAMPLERS)
)

_VEC_SIZES = {"vec2": 2, "vec3": 3, "vec4": 4}
_MAT_SIZES = {"mat2": 2, "mat3": 3, "mat4": 4}
_SWIZZLE = "xyzw"


@dataclass
class GeneratorConfig:
    """Knobs for program shape; defaults give compact but varied
    programs (~15-40 lines)."""

    max_expr_depth: int = 4
    max_block_stmts: int = 5
    max_loop_nesting: int = 2
    max_helpers: int = 2
    p_discard: float = 0.08
    p_loop: float = 0.45
    p_if: float = 0.5
    p_array: float = 0.35
    #: Chance that any vec4 expression node becomes a ``texture2D``
    #: sample of one of the standard samplers.
    p_texture: float = 0.15


class _Scope:
    def __init__(self):
        #: name -> (glsl type, writable)
        self.vars: Dict[str, Tuple[str, bool]] = {}
        #: name -> declared length (float arrays)
        self.arrays: Dict[str, int] = {}


class _ProgramGenerator:
    def __init__(self, rng: random.Random, config: GeneratorConfig):
        self.rng = rng
        self.config = config
        self.counter = 0
        self.scopes: List[_Scope] = []
        #: name -> (return type, [(direction, type), ...])
        self.helpers: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {}
        self.loop_depth = 0
        #: Write-only scratch floats for ``out`` arguments.  GLSL ES
        #: 1.00 leaves the interaction between an ``out`` copy-back and
        #: other reads of the same variable *within one expression*
        #: undefined, so generated calls only ever write into these
        #: dedicated variables; they are read back exclusively through
        #: a statement-level "harvest" production.
        self.out_scratch: List[str] = []
        #: True once a flat-index read needs the kernel helpers.
        self.index_reads = False

    # -- small utilities ------------------------------------------------
    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    def pick(self, seq):
        return seq[self.rng.randrange(len(seq))]

    def flit(self, lo: float = -2.0, hi: float = 2.0) -> str:
        return f"{self.rng.uniform(lo, hi):.4f}"

    def vars_of(self, gtype: str, writable: bool = False) -> List[str]:
        found = []
        for scope in self.scopes:
            for name, (t, w) in scope.vars.items():
                if t == gtype and (w or not writable):
                    found.append(name)
        return found

    def arrays_in_scope(self) -> List[Tuple[str, int]]:
        return [
            (name, length)
            for scope in self.scopes
            for name, length in scope.arrays.items()
        ]

    # ==================================================================
    # Expressions
    # ==================================================================
    def expr(self, gtype: str, depth: int) -> str:
        if gtype == "float":
            return self.float_expr(depth)
        if gtype == "int":
            return self.int_expr(depth)
        if gtype == "bool":
            return self.bool_expr(depth)
        if gtype in _VEC_SIZES:
            return self.vec_expr(gtype, depth)
        return self.mat_expr(gtype, depth)

    # -- float ----------------------------------------------------------
    def float_leaf(self) -> str:
        options = [self.flit(), self.flit(), "u_f0", "u_f1",
                   "v_uv.x", "v_uv.y"]
        options += self.vars_of("float")
        for vt, size in _VEC_SIZES.items():
            for name in self.vars_of(vt):
                options.append(f"{name}.{_SWIZZLE[self.rng.randrange(size)]}")
        return self.pick(options)

    def float_expr(self, depth: int) -> str:
        if depth <= 0:
            return self.float_leaf()
        d = depth - 1
        roll = self.rng.random()
        if roll < 0.22:
            op = self.pick(["+", "-", "*"])
            return f"({self.float_expr(d)} {op} {self.float_expr(d)})"
        if roll < 0.28:  # guarded division: denominator >= 1
            return (f"({self.float_expr(d)} / "
                    f"(abs({self.float_expr(d)}) + 1.0))")
        if roll < 0.48:
            return self.float_builtin(d)
        if roll < 0.56:
            vt = self.pick(list(_VEC_SIZES))
            a, b = self.vec_expr(vt, d - 1), self.vec_expr(vt, d - 1)
            return self.pick([
                f"dot({a}, {b})",
                f"length({a})",
                f"distance({a}, {b})",
            ])
        if roll < 0.62:
            return (f"({self.bool_expr(d)} ? {self.float_expr(d)} : "
                    f"{self.float_expr(d)})")
        if roll < 0.68:
            return f"float({self.int_expr(d)})"
        if roll < 0.74:
            arrays = self.arrays_in_scope()
            if arrays:
                name, __ = self.pick(arrays)
                return f"{name}[{self.int_expr(d)}]"
        if roll < 0.82:
            call = self.helper_call("float", d)
            if call is not None:
                return call
        if roll < 0.9:
            return f"(-({self.float_expr(d)}))"
        return self.float_leaf()

    def float_builtin(self, d: int) -> str:
        x = self.float_expr(d)
        y = self.float_expr(d)
        lo = self.rng.uniform(-1.5, 0.0)
        hi = self.rng.uniform(0.1, 1.5)
        return self.pick([
            f"sin({x})", f"cos({x})", f"floor({x})", f"ceil({x})",
            f"fract({x})", f"abs({x})", f"sign({x})",
            f"sqrt(abs({x}))",
            f"log(abs({x}) + 1.0)",
            f"exp(clamp({x}, -8.0, 8.0))",
            f"inversesqrt(abs({x}) + 1.0)",
            f"min({x}, {y})", f"max({x}, {y})",
            f"mod({x}, (abs({y}) + 1.0))",
            f"step({x}, {y})",
            f"atan({x}, (abs({y}) + 0.5))",
            f"pow(abs({x}) + 0.5, {self.flit(0.0, 2.0)})",
            f"clamp({x}, {lo:.4f}, {hi:.4f})",
            f"mix({x}, {y}, fract({self.float_expr(d)}))",
            f"smoothstep({lo:.4f}, {hi:.4f}, {x})",
            f"radians({x})", f"degrees(fract({x}))",
            f"asin(clamp({x}, -1.0, 1.0))",
        ])

    # -- int ------------------------------------------------------------
    def int_expr(self, depth: int) -> str:
        leaves = [str(self.rng.randrange(0, 8))]
        leaves += self.vars_of("int")
        if depth <= 0:
            return self.pick(leaves)
        d = depth - 1
        roll = self.rng.random()
        if roll < 0.3:
            op = self.pick(["+", "-", "*"])
            return f"({self.int_expr(d)} {op} {self.int_expr(d)})"
        if roll < 0.4:
            return f"({self.int_expr(d)} / {self.rng.randrange(1, 5)})"
        if roll < 0.55:
            return f"int(mod({self.float_expr(d)}, 8.0))"
        return self.pick(leaves)

    # -- bool -----------------------------------------------------------
    def bool_expr(self, depth: int) -> str:
        if depth <= 0:
            options = ["true", "false"] + self.vars_of("bool")
            return self.pick(options)
        d = depth - 1
        roll = self.rng.random()
        if roll < 0.45:
            op = self.pick(["<", ">", "<=", ">="])
            return f"({self.float_expr(d)} {op} {self.float_expr(d)})"
        if roll < 0.55:
            op = self.pick(["==", "!=", "<", ">"])
            return f"({self.int_expr(d)} {op} {self.int_expr(d)})"
        if roll < 0.75:
            op = self.pick(["&&", "||", "^^"])
            return f"({self.bool_expr(d)} {op} {self.bool_expr(d)})"
        if roll < 0.85:
            return f"(!{self.bool_expr(d)})"
        vt = self.pick(list(_VEC_SIZES))
        fn = self.pick(["lessThan", "greaterThanEqual", "notEqual"])
        agg = self.pick(["any", "all"])
        return f"{agg}({fn}({self.vec_expr(vt, d - 1)}, {self.vec_expr(vt, d - 1)}))"

    # -- vectors --------------------------------------------------------
    def vec_leaf(self, gtype: str) -> str:
        size = _VEC_SIZES[gtype]
        options = [f"u_v{size}"] + self.vars_of(gtype)
        options.append(
            f"{gtype}({', '.join(self.flit() for _ in range(size))})"
        )
        # Swizzle another vector variable down/up to this size.
        for src_type, src_size in _VEC_SIZES.items():
            for name in self.vars_of(src_type):
                sw = "".join(
                    _SWIZZLE[self.rng.randrange(src_size)] for _ in range(size)
                )
                options.append(f"{name}.{sw}")
        if size == 2:
            options.append("v_uv")
        return self.pick(options)

    def texture_expr(self, d: int) -> str:
        """A ``texture2D`` sample of a standard sampler (vec4-typed).

        Coordinates are biased towards the interpolated ``v_uv`` (the
        well-behaved in-range case) but also include fract-wrapped and
        fully unconstrained vec2 expressions, so REPEAT/MIRRORED_REPEAT
        wrap arithmetic and out-of-range clamping get exercised too.
        """
        if self.chance(0.3):
            return self.index_read(d)
        sampler = self.pick(STANDARD_SAMPLERS)
        roll = self.rng.random()
        if roll < 0.4:
            coord = "v_uv"
        elif roll < 0.7:
            coord = f"fract({self.vec_expr('vec2', d)})"
        else:
            coord = self.vec_expr("vec2", d)
        return f"texture2D({sampler}, {coord})"

    def index_read(self, d: int) -> str:
        """A kernel input read, as the kernel codegen emits it: the
        bytes of texel ``index`` of a NEAREST / CLAMP sampler through
        ``gpgpu_index_to_coord`` and ``gpgpu_bytes``, scaled back to
        [0, 1].  The index is the fragment's own texel (integral, in
        range), a constant just around the range, or a random
        expression (fractional, negative or past the end too)."""
        self.index_reads = True
        sampler, size, width, height = self.pick(INDEX_SAMPLERS)
        roll = self.rng.random()
        if roll < 0.4:
            index = (f"(floor(v_uv.x * {width}.0) + "
                     f"{width}.0 * floor(v_uv.y * {height}.0))")
        elif roll < 0.6:
            index = f"{self.rng.randrange(-2, width * height + 2)}.0"
        elif roll < 0.8:
            index = f"floor({self.float_expr(d)} * {width}.0)"
        else:
            index = self.float_expr(d)
        return (f"(gpgpu_bytes(texture2D({sampler}, "
                f"gpgpu_index_to_coord({index}, {size}))) / 255.0)")

    def vec_expr(self, gtype: str, depth: int) -> str:
        if depth <= 0:
            return self.vec_leaf(gtype)
        size = _VEC_SIZES[gtype]
        d = depth - 1
        if gtype == "vec4" and self.chance(self.config.p_texture):
            return self.texture_expr(d)
        roll = self.rng.random()
        if roll < 0.18:
            comps = ", ".join(self.float_expr(d) for _ in range(size))
            return f"{gtype}({comps})"
        if roll < 0.24 and size > 2:
            smaller = f"vec{size - 1}"
            return f"{gtype}({self.vec_expr(smaller, d)}, {self.float_expr(d)})"
        if roll < 0.42:
            op = self.pick(["+", "-", "*"])
            return f"({self.vec_expr(gtype, d)} {op} {self.vec_expr(gtype, d)})"
        if roll < 0.5:
            return f"({self.vec_expr(gtype, d)} * {self.float_expr(d)})"
        if roll < 0.58:
            mt = f"mat{size}"
            if self.chance(0.5):
                return f"({self.mat_expr(mt, d - 1)} * {self.vec_expr(gtype, d)})"
            return f"({self.vec_expr(gtype, d)} * {self.mat_expr(mt, d - 1)})"
        if roll < 0.78:
            return self.vec_builtin(gtype, d)
        if roll < 0.84:
            call = self.helper_call(gtype, d)
            if call is not None:
                return call
        if roll < 0.9:
            return (f"({self.vec_expr(gtype, d)} / "
                    f"(abs({self.vec_expr(gtype, d)}) + {gtype}(1.0)))")
        return self.vec_leaf(gtype)

    def vec_builtin(self, gtype: str, d: int) -> str:
        a = self.vec_expr(gtype, d)
        b = self.vec_expr(gtype, d)
        options = [
            f"abs({a})", f"floor({a})", f"fract({a})", f"sin({a})",
            f"clamp({a}, 0.0, 1.0)",
            f"min({a}, {b})", f"max({a}, {b})",
            f"mix({a}, {b}, fract({self.float_expr(d)}))",
            f"normalize(abs({a}) + {gtype}(0.1))",
            f"reflect({a}, {b})",
            f"faceforward({a}, {b}, {self.vec_expr(gtype, d)})",
            f"step({a}, {b})",
            f"mod({a}, (abs({b}) + {gtype}(1.0)))",
        ]
        if gtype == "vec3":
            options.append(f"cross({a}, {b})")
        return self.pick(options)

    # -- matrices -------------------------------------------------------
    def mat_expr(self, gtype: str, depth: int) -> str:
        size = _MAT_SIZES[gtype]
        existing = self.vars_of(gtype)
        if depth <= 0:
            if existing and self.chance(0.5):
                return self.pick(existing)
            return f"{gtype}({self.flit(0.2, 2.0)})"
        d = depth - 1
        roll = self.rng.random()
        if roll < 0.25:
            cols = ", ".join(
                self.vec_expr(f"vec{size}", d - 1) for _ in range(size)
            )
            return f"{gtype}({cols})"
        if roll < 0.45:
            op = self.pick(["+", "-"])
            return f"({self.mat_expr(gtype, d)} {op} {self.mat_expr(gtype, d)})"
        if roll < 0.65:
            return f"({self.mat_expr(gtype, d)} * {self.mat_expr(gtype, d)})"
        if roll < 0.8:
            return f"({self.mat_expr(gtype, d)} * {self.float_expr(d)})"
        if roll < 0.9:
            return (f"matrixCompMult({self.mat_expr(gtype, d)}, "
                    f"{self.mat_expr(gtype, d)})")
        return f"{gtype}({self.flit(0.2, 2.0)})"

    # -- helper calls ---------------------------------------------------
    def helper_call(self, ret_type: str, depth: int) -> Optional[str]:
        matching = [
            (name, params)
            for name, (ret, params) in self.helpers.items()
            if ret == ret_type
        ]
        if not matching:
            return None
        name, params = self.pick(matching)
        args = []
        for direction, ptype in params:
            if direction in ("out", "inout"):
                if ptype != "float" or not self.out_scratch:
                    return None
                args.append(self.pick(self.out_scratch))
            else:
                args.append(self.expr(ptype, depth - 1))
        return f"{name}({', '.join(args)})"

    # ==================================================================
    # Statements
    # ==================================================================
    def gen_block(self, indent: str, budget: int) -> List[str]:
        self.scopes.append(_Scope())
        lines: List[str] = []
        for __ in range(self.rng.randrange(1, budget + 1)):
            lines.extend(self.gen_stmt(indent))
        self.scopes.pop()
        return lines

    def gen_stmt(self, indent: str) -> List[str]:
        cfg = self.config
        roll = self.rng.random()
        depth = self.rng.randrange(1, cfg.max_expr_depth + 1)

        if roll < 0.3:  # declaration
            gtype = self.pick(
                ["float", "float", "vec2", "vec3", "vec4", "int",
                 "bool", "mat2", "mat3"]
            )
            name = self.fresh({"float": "f", "int": "i", "bool": "b"}.get(
                gtype, "m" if gtype in _MAT_SIZES else "v"))
            init = self.expr(gtype, depth)
            self.scopes[-1].vars[name] = (gtype, True)
            return [f"{indent}{gtype} {name} = {init};"]

        if roll < 0.55:  # assignment / compound assignment
            stmt = self.gen_assignment(indent, depth)
            if stmt is not None:
                return stmt
            roll = 0.99  # fall through to a declaration-free fallback

        if roll < 0.55 + cfg.p_if * 0.25 and roll >= 0.55:
            cond = self.bool_expr(depth)
            body = self.gen_block(indent + "    ", 2)
            out = [f"{indent}if ({cond}) {{", *body, f"{indent}}}"]
            if self.chance(0.5):
                else_body = self.gen_block(indent + "    ", 2)
                out[-1] = f"{indent}}} else {{"
                out += [*else_body, f"{indent}}}"]
            return out

        if (roll < 0.85 and self.loop_depth < cfg.max_loop_nesting
                and self.chance(cfg.p_loop)):
            return self.gen_loop(indent)

        if roll < 0.92 and self.chance(cfg.p_array):
            return self.gen_array(indent)

        # Harvest an out-scratch variable: the only place such a
        # variable is ever read, and always as a whole statement so the
        # preceding copy-back has sequenced before the read.
        if roll < 0.96 and self.out_scratch and self.chance(0.5):
            name = self.fresh("f")
            src = self.pick(self.out_scratch)
            self.scopes[-1].vars[name] = ("float", True)
            return [f"{indent}float {name} = {src};"]

        # Fallback: effect-free expression statement via a declaration.
        name = self.fresh("f")
        init = self.float_expr(depth)
        self.scopes[-1].vars[name] = ("float", True)
        return [f"{indent}float {name} = {init};"]

    def gen_assignment(self, indent: str, depth: int) -> Optional[List[str]]:
        candidates = []
        for scope in self.scopes:
            for name, (gtype, writable) in scope.vars.items():
                if writable:
                    candidates.append((name, gtype))
        if not candidates:
            return None
        name, gtype = self.pick(candidates)
        roll = self.rng.random()
        if gtype in _VEC_SIZES and roll < 0.35:
            size = _VEC_SIZES[gtype]
            # Swizzle-store with distinct components.
            count = self.rng.randrange(1, size + 1)
            chans = self.rng.sample(range(size), count)
            sw = "".join(_SWIZZLE[c] for c in chans)
            rhs_type = "float" if count == 1 else f"vec{count}"
            return [f"{indent}{name}.{sw} = {self.expr(rhs_type, depth)};"]
        if gtype in _MAT_SIZES and roll < 0.4:
            size = _MAT_SIZES[gtype]
            col = self.rng.randrange(size)
            return [f"{indent}{name}[{col}] = "
                    f"{self.vec_expr(f'vec{size}', depth)};"]
        if gtype in ("float", "int") and roll < 0.6:
            op = self.pick(["+=", "-=", "*="])
            return [f"{indent}{name} {op} {self.expr(gtype, depth)};"]
        if gtype in _VEC_SIZES and roll < 0.6:
            op = self.pick(["+=", "-=", "*="])
            rhs = (self.float_expr(depth) if self.chance(0.4)
                   else self.vec_expr(gtype, depth))
            return [f"{indent}{name} {op} {rhs};"]
        if gtype in ("float", "int") and roll < 0.7:
            return [f"{indent}{name}{self.pick(['++', '--'])};"]
        return [f"{indent}{name} = {self.expr(gtype, depth)};"]

    def gen_loop(self, indent: str) -> List[str]:
        # Appendix-A shape: constant bounds, ++ update, int index.
        var = self.fresh("li")
        bound = self.rng.randrange(2, 6)
        self.loop_depth += 1
        self.scopes.append(_Scope())
        self.scopes[-1].vars[var] = ("int", False)
        body = []
        for __ in range(self.rng.randrange(1, 3)):
            body.extend(self.gen_stmt(indent + "    "))
        if self.chance(0.35):
            kind = self.pick(["break", "continue"])
            cond = self.bool_expr(2)
            body.append(f"{indent}    if ({cond}) {{ {kind}; }}")
        self.scopes.pop()
        self.loop_depth -= 1
        return [
            f"{indent}for (int {var} = 0; {var} < {bound}; {var}++) {{",
            *body,
            f"{indent}}}",
        ]

    def gen_array(self, indent: str) -> List[str]:
        name = self.fresh("a")
        length = self.rng.randrange(2, 5)
        var = self.fresh("li")
        lines = [
            f"{indent}float {name}[{length}];",
            f"{indent}for (int {var} = 0; {var} < {length}; {var}++) {{",
        ]
        self.scopes.append(_Scope())
        self.scopes[-1].vars[var] = ("int", False)
        lines.append(
            f"{indent}    {name}[{var}] = "
            f"float({var}) * {self.flit(0.1, 0.5)} + {self.float_expr(2)};"
        )
        self.scopes.pop()
        lines.append(f"{indent}}}")
        self.scopes[-1].arrays[name] = length
        return lines

    # ==================================================================
    # Top level
    # ==================================================================
    def gen_helper(self) -> List[str]:
        name = self.fresh("fn")
        ret = self.pick(["float", "float", "vec2", "vec3"])
        params: List[Tuple[str, str]] = [
            ("in", self.pick(["float", "vec2", "vec3", "int"]))
            for __ in range(self.rng.randrange(1, 3))
        ]
        if self.chance(0.35):
            params.append(("out", "float"))
        decls = []
        self.scopes.append(_Scope())
        for i, (direction, ptype) in enumerate(params):
            pname = f"p{i}"
            decls.append(f"{direction} {ptype} {pname}"
                         if direction != "in" else f"{ptype} {pname}")
            self.scopes[-1].vars[pname] = (ptype, True)
        saved_scratch = self.out_scratch
        scratch = self.fresh("o")
        self.out_scratch = [scratch]
        body: List[str] = [f"    float {scratch} = 0.0;"]
        for __ in range(self.rng.randrange(1, 3)):
            body.extend(self.gen_stmt("    "))
        body.append(f"    return {self.expr(ret, 2)};")
        self.out_scratch = saved_scratch
        self.scopes.pop()
        self.helpers[name] = (ret, params)
        return [f"{ret} {name}({', '.join(decls)}) {{", *body, "}", ""]

    def generate(self) -> str:
        lines = [_PREAMBLE]
        for __ in range(self.rng.randrange(0, self.config.max_helpers + 1)):
            lines.extend(self.gen_helper())

        lines.append("void main() {")
        self.scopes.append(_Scope())
        scratch = self.fresh("o")
        self.out_scratch = [scratch]
        lines.append(f"    float {scratch} = 0.0;")
        for __ in range(self.rng.randrange(2, self.config.max_block_stmts + 1)):
            lines.extend(self.gen_stmt("    "))
        if self.chance(self.config.p_discard):
            lines.append(
                f"    if ({self.bool_expr(2)}) {{ discard; }}"
            )
        final = self.vec_expr("vec4", self.config.max_expr_depth)
        lines.append(f"    gl_FragColor = clamp({final}, 0.0, 1.0);")
        self.scopes.pop()
        lines.append("}")
        if self.index_reads:
            lines[1:1] = [ADDRESSING_GLSL, COMMON_GLSL]
        return "\n".join(lines) + "\n"


def generate_program(
    rng: random.Random, config: Optional[GeneratorConfig] = None
) -> str:
    """Generate one random fragment shader (deterministic in ``rng``)."""
    return _ProgramGenerator(rng, config or GeneratorConfig()).generate()
