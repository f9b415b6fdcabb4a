"""Semantic analysis for GLSL ES 1.00 shaders.

Runs at ``glCompileShader`` time.  Responsibilities:

* build symbol tables (structs, globals, overloaded functions),
* annotate every expression node with its resolved type,
* enforce the ES-specific rules the paper's techniques must respect:
  **no implicit conversions** (§4.1.10), reserved operators (``%``,
  shifts, bitwise ops, ``~``) are compile-time errors, attributes are
  vertex-only, samplers are uniform-only, recursion is forbidden
  (Appendix A),
* resolve calls to user functions (exact-match overloading) and
  built-ins (:mod:`repro.glsl.builtins`),
* validate l-values (no writes to const/attribute/uniform, no writes
  to varyings in fragment shaders, no duplicate swizzle writes),
* fold constant expressions for array sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import ast_nodes as ast
from . import builtins as bi
from .errors import GlslTypeError
from .types import (
    BOOL,
    BUILTIN_TYPE_NAMES,
    FLOAT,
    INT,
    VEC2,
    VEC4,
    BaseType,
    GlslType,
    TypeKind,
    array_of,
    scalar_type,
    swizzle_indices,
    vector_type,
)


class ShaderStage:
    VERTEX = "vertex"
    FRAGMENT = "fragment"


#: Operators reserved by GLSL ES 1.00 §5.1 — parsing succeeds, semantic
#: analysis rejects them with a targeted message.
RESERVED_OPS = {"%", "<<", ">>", "&", "|", "^", "~", "%=", "<<=", ">>=", "&=", "|=", "^="}


@dataclass
class GlobalSymbol:
    """One global-scope variable."""

    name: str
    type: GlslType
    #: 'attribute' | 'uniform' | 'varying' | 'const' | 'global' | 'builtin'
    qualifier: str
    writable: bool = True
    initializer: Optional[ast.Expr] = None
    precision: Optional[str] = None
    #: For built-ins: which stages may access it.
    stages: Tuple[str, ...] = (ShaderStage.VERTEX, ShaderStage.FRAGMENT)


@dataclass
class CheckedShader:
    """Output of :func:`check` — everything later stages need."""

    stage: str
    unit: ast.TranslationUnit
    globals: Dict[str, GlobalSymbol] = field(default_factory=dict)
    #: mangled signature -> FunctionDef (bodies only; prototypes merged)
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    structs: Dict[str, GlslType] = field(default_factory=dict)
    has_main: bool = False
    #: Built-in variables the shader statically writes (gl_Position,
    #: gl_FragColor, gl_FragData, ...).
    written_builtins: Set[str] = field(default_factory=set)
    #: The identity the compile caches key on, stamped by the gles2
    #: front end: sha1 of the source, and the map-chain fusion
    #: signature the source carries ("" for none).  None: a shader
    #: checked outside it, which no artifact-store entry addresses.
    source_digest: Optional[str] = field(default=None, compare=False)
    fusion_signature: str = field(default="", compare=False)
    #: The JIT kernels generated for this shader (see
    #: :func:`repro.glsl.jit.get_compiled`); the gles2 front end shares
    #: the dict with the shader's link summary, which outlives it.
    kernels: Dict[tuple, object] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The IR programs lowered from this shader, per float model (see
    #: :func:`repro.glsl.ir.get_compiled`).
    programs: Dict[tuple, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    def frontend(self) -> "CheckedShader":
        """The full front-end result the IR lowers from: this shader
        itself.  A gles2 link summary answers the same call from its
        front-end cache, rerunning the front end when it must."""
        return self

    def active_uniforms(self) -> List[GlobalSymbol]:
        return [g for g in self.globals.values() if g.qualifier == "uniform"]

    def active_attributes(self) -> List[GlobalSymbol]:
        return [g for g in self.globals.values() if g.qualifier == "attribute"]

    def varyings(self) -> List[GlobalSymbol]:
        return [g for g in self.globals.values() if g.qualifier == "varying"]


def _builtin_globals(stage: str) -> Dict[str, GlobalSymbol]:
    """The built-in variables of each stage (spec §7)."""
    symbols = {}

    def add(name, gtype, writable, stages):
        symbols[name] = GlobalSymbol(
            name=name, type=gtype, qualifier="builtin", writable=writable, stages=stages
        )

    if stage == ShaderStage.VERTEX:
        add("gl_Position", VEC4, True, (ShaderStage.VERTEX,))
        add("gl_PointSize", FLOAT, True, (ShaderStage.VERTEX,))
    else:
        add("gl_FragCoord", VEC4, False, (ShaderStage.FRAGMENT,))
        add("gl_FrontFacing", BOOL, False, (ShaderStage.FRAGMENT,))
        add("gl_PointCoord", VEC2, False, (ShaderStage.FRAGMENT,))
        add("gl_FragColor", VEC4, True, (ShaderStage.FRAGMENT,))
        # OpenGL ES 2 mandates gl_MaxDrawBuffers >= 1; VideoCore IV
        # exposes exactly 1, which is limitation (8) in the paper.
        add("gl_FragData", array_of(VEC4, 1), True, (ShaderStage.FRAGMENT,))

    # Built-in constants (spec §7.4) with ES 2 minimum values.
    for name, value in [
        ("gl_MaxVertexAttribs", 8),
        ("gl_MaxVertexUniformVectors", 128),
        ("gl_MaxVaryingVectors", 8),
        ("gl_MaxVertexTextureImageUnits", 0),
        ("gl_MaxCombinedTextureImageUnits", 8),
        ("gl_MaxTextureImageUnits", 8),
        ("gl_MaxFragmentUniformVectors", 16),
        ("gl_MaxDrawBuffers", 1),
    ]:
        sym = GlobalSymbol(name=name, type=INT, qualifier="const", writable=False)
        sym.initializer = ast.IntLiteral(value=value, resolved_type=INT, is_constant=True)
        symbols[name] = sym
    return symbols


def check(unit: ast.TranslationUnit, stage: str) -> CheckedShader:
    """Type-check a parsed shader for the given stage."""
    checker = _Checker(unit, stage)
    checker.run()
    return checker.result


def mangle(name: str, param_types: List[GlslType]) -> str:
    """Overload-resolution key for user functions."""
    return name + "(" + ",".join(t.glsl_name() for t in param_types) + ")"


class _Scope:
    """One lexical scope of local variables."""

    def __init__(self):
        self.vars: Dict[str, Tuple[GlslType, bool]] = {}  # name -> (type, writable)


class _Checker:
    def __init__(self, unit: ast.TranslationUnit, stage: str):
        self.unit = unit
        self.stage = stage
        self.result = CheckedShader(stage=stage, unit=unit)
        self.result.globals.update(_builtin_globals(stage))
        self.scopes: List[_Scope] = []
        self.current_function: Optional[ast.FunctionDef] = None
        self.loop_depth = 0
        #: caller mangled name -> set of callee mangled names
        self.call_graph: Dict[str, Set[str]] = {}
        self._current_caller: Optional[str] = None

    # ------------------------------------------------------------------
    def error(self, message: str, node: ast.Node) -> GlslTypeError:
        return GlslTypeError(message, line=getattr(node, "line", 0))

    def run(self) -> None:
        for decl in self.unit.declarations:
            if isinstance(decl, ast.PrecisionDecl):
                continue
            if isinstance(decl, ast.StructDef):
                self.result.structs[decl.name] = decl.resolved
                continue
            if isinstance(decl, ast.GlobalDecl):
                self.check_global_decl(decl)
                continue
            if isinstance(decl, ast.FunctionDef):
                self.check_function(decl)
                continue
            raise self.error(f"unexpected declaration {type(decl).__name__}", decl)
        if not self.result.has_main:
            raise GlslTypeError("missing main() entry point", line=0)
        self._check_no_recursion()

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------
    def resolve_type_name(self, name: str, node: ast.Node) -> GlslType:
        if name in BUILTIN_TYPE_NAMES:
            return BUILTIN_TYPE_NAMES[name]
        if name in self.result.structs:
            return self.result.structs[name]
        raise self.error(f"unknown type '{name}'", node)

    def check_global_decl(self, decl: ast.GlobalDecl) -> None:
        base = decl.struct or self.resolve_type_name(decl.type_name, decl)
        if isinstance(decl.struct, GlslType):
            self.result.structs.setdefault(decl.struct.name, decl.struct)
        qualifier = decl.qualifier or ("const" if decl.is_const else "global")

        if qualifier == "attribute":
            if self.stage != ShaderStage.VERTEX:
                raise self.error("attributes are only allowed in vertex shaders", decl)
            if not base.is_float_based():
                raise self.error(
                    f"attribute must be float-based, got {base}", decl
                )
        if base.is_sampler() and qualifier != "uniform":
            raise self.error("sampler variables must be uniforms", decl)
        if qualifier == "varying" and not (
            base.is_float_based()
            or (base.is_array() and base.element.is_float_based())
        ):
            raise self.error(f"varying must be float-based, got {base}", decl)

        for declarator in decl.declarators:
            gtype = base
            if declarator.array_size is not None:
                gtype = array_of(base, self.const_int(declarator.array_size))
            declarator.resolved_type = gtype
            if declarator.name in self.result.globals:
                existing = self.result.globals[declarator.name]
                if existing.qualifier == "builtin":
                    raise self.error(
                        f"cannot redeclare built-in '{declarator.name}'", decl
                    )
                raise self.error(f"redefinition of '{declarator.name}'", decl)
            if declarator.initializer is not None:
                if qualifier in ("attribute", "uniform", "varying"):
                    raise self.error(
                        f"{qualifier} '{declarator.name}' cannot have an "
                        "initializer",
                        decl,
                    )
                init_type = self.check_expr(declarator.initializer)
                if init_type != gtype:
                    raise self.error(
                        f"initializer type {init_type} does not match "
                        f"declared type {gtype} (GLSL ES has no implicit "
                        "conversions)",
                        decl,
                    )
            elif qualifier == "const":
                raise self.error(
                    f"const '{declarator.name}' requires an initializer", decl
                )
            self.result.globals[declarator.name] = GlobalSymbol(
                name=declarator.name,
                type=gtype,
                qualifier=qualifier,
                writable=qualifier in ("global", "varying", "builtin"),
                initializer=declarator.initializer,
                precision=decl.precision,
            )

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def check_function(self, func: ast.FunctionDef) -> None:
        func.resolved_return_type = self.resolve_type_name(func.return_type_name, func)
        param_types: List[GlslType] = []
        for param in func.params:
            ptype = self.resolve_type_name(param.type_name, param)
            if param.array_size is not None:
                ptype = array_of(ptype, self.const_int(param.array_size))
            if ptype.is_sampler() and param.direction != "in":
                raise self.error("sampler parameters must be 'in'", param)
            param.resolved_type = ptype
            param_types.append(ptype)
        key = mangle(func.name, param_types)

        if bi.is_builtin(func.name):
            raise self.error(
                f"cannot redefine built-in function '{func.name}'", func
            )
        existing = self.result.functions.get(key)
        if func.body is None:
            # Prototype: record if not already defined.
            self.result.functions.setdefault(key, func)
            return
        if existing is not None and existing.body is not None:
            raise self.error(f"redefinition of function '{key}'", func)
        self.result.functions[key] = func
        if func.name == "main":
            if param_types or func.resolved_return_type.kind != TypeKind.VOID:
                raise self.error("main must be declared as 'void main()'", func)
            self.result.has_main = True

        # Check the body in a fresh scope seeded with parameters.
        self.current_function = func
        self._current_caller = key
        self.call_graph.setdefault(key, set())
        scope = _Scope()
        for param in func.params:
            if param.name:
                scope.vars[param.name] = (param.resolved_type, not param.is_const)
        self.scopes.append(scope)
        self.check_stmt(func.body)
        self.scopes.pop()
        self.current_function = None
        self._current_caller = None

    def _check_no_recursion(self) -> None:
        """Appendix A: static recursion is disallowed."""
        graph = self.call_graph
        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(node: str) -> None:
            if node in done:
                return
            if node in visiting:
                raise GlslTypeError(
                    f"recursion detected involving '{node}' "
                    "(forbidden by GLSL ES Appendix A)",
                    line=0,
                )
            visiting.add(node)
            for callee in graph.get(node, ()):
                visit(callee)
            visiting.discard(node)
            done.add(node)

        for key in graph:
            visit(key)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            self.scopes.append(_Scope())
            for inner in stmt.statements:
                self.check_stmt(inner)
            self.scopes.pop()
        elif isinstance(stmt, ast.DeclStmt):
            self.check_local_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            cond = self.check_expr(stmt.condition)
            if cond != BOOL:
                raise self.error(f"if condition must be bool, got {cond}", stmt)
            self.check_stmt(stmt.then_branch)
            if stmt.else_branch is not None:
                self.check_stmt(stmt.else_branch)
        elif isinstance(stmt, ast.ForStmt):
            self.scopes.append(_Scope())
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.condition is not None:
                cond = self.check_expr(stmt.condition)
                if cond != BOOL:
                    raise self.error(f"loop condition must be bool, got {cond}", stmt)
            if stmt.update is not None:
                self.check_expr(stmt.update)
            self.loop_depth += 1
            self.check_stmt(stmt.body)
            self.loop_depth -= 1
            self.scopes.pop()
        elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
            cond = self.check_expr(stmt.condition)
            if cond != BOOL:
                raise self.error(f"loop condition must be bool, got {cond}", stmt)
            self.loop_depth += 1
            self.check_stmt(stmt.body)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.ReturnStmt):
            if self.current_function is None:
                raise self.error("return outside a function", stmt)
            expected = self.current_function.resolved_return_type
            if stmt.value is None:
                if not expected.is_void():
                    raise self.error(
                        f"return without value in function returning {expected}",
                        stmt,
                    )
            else:
                actual = self.check_expr(stmt.value)
                if actual != expected:
                    raise self.error(
                        f"return type {actual} does not match declared {expected}",
                        stmt,
                    )
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if self.loop_depth == 0:
                kind = "break" if isinstance(stmt, ast.BreakStmt) else "continue"
                raise self.error(f"'{kind}' outside a loop", stmt)
        elif isinstance(stmt, ast.DiscardStmt):
            if self.stage != ShaderStage.FRAGMENT:
                raise self.error("'discard' is only valid in fragment shaders", stmt)
        else:
            raise self.error(f"unhandled statement {type(stmt).__name__}", stmt)

    def check_local_decl(self, decl: ast.DeclStmt) -> None:
        base = decl.struct or self.resolve_type_name(decl.type_name, decl)
        for declarator in decl.declarators:
            gtype = base
            if declarator.array_size is not None:
                gtype = array_of(base, self.const_int(declarator.array_size))
            declarator.resolved_type = gtype
            if declarator.initializer is not None:
                init_type = self.check_expr(declarator.initializer)
                if init_type != gtype:
                    raise self.error(
                        f"cannot initialise {gtype} '{declarator.name}' from "
                        f"{init_type} (no implicit conversions)",
                        decl,
                    )
            elif decl.is_const:
                raise self.error(
                    f"const '{declarator.name}' requires an initializer", decl
                )
            scope = self.scopes[-1]
            if declarator.name in scope.vars:
                raise self.error(
                    f"redefinition of '{declarator.name}' in the same scope", decl
                )
            scope.vars[declarator.name] = (gtype, not decl.is_const)

    # ------------------------------------------------------------------
    # Name lookup
    # ------------------------------------------------------------------
    def lookup(self, name: str, node: ast.Node) -> Tuple[GlslType, bool]:
        """Returns (type, writable)."""
        for scope in reversed(self.scopes):
            if name in scope.vars:
                return scope.vars[name]
        symbol = self.result.globals.get(name)
        if symbol is not None:
            if symbol.qualifier == "builtin" and self.stage not in symbol.stages:
                raise self.error(
                    f"'{name}' is not available in {self.stage} shaders", node
                )
            writable = symbol.writable
            if symbol.qualifier == "varying":
                writable = self.stage == ShaderStage.VERTEX
            if symbol.qualifier in ("attribute", "uniform", "const"):
                writable = False
            return symbol.type, writable
        raise self.error(f"undeclared identifier '{name}'", node)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def check_expr(self, expr: ast.Expr) -> GlslType:
        result = self._check_expr_inner(expr)
        expr.resolved_type = result
        return result

    def _check_expr_inner(self, expr: ast.Expr) -> GlslType:
        if isinstance(expr, ast.IntLiteral):
            expr.is_constant = True
            return INT
        if isinstance(expr, ast.FloatLiteral):
            expr.is_constant = True
            return FLOAT
        if isinstance(expr, ast.BoolLiteral):
            expr.is_constant = True
            return BOOL
        if isinstance(expr, ast.Identifier):
            gtype, __ = self.lookup(expr.name, expr)
            return gtype
        if isinstance(expr, ast.UnaryOp):
            return self.check_unary(expr)
        if isinstance(expr, (ast.PrefixIncDec, ast.PostfixIncDec)):
            self.require_lvalue(expr.operand)
            optype = self.check_expr(expr.operand)
            if not optype.is_numeric():
                raise self.error(f"cannot apply '{expr.op}' to {optype}", expr)
            return optype
        if isinstance(expr, ast.BinaryOp):
            return self.check_binary(expr)
        if isinstance(expr, ast.Assignment):
            return self.check_assignment(expr)
        if isinstance(expr, ast.Conditional):
            cond = self.check_expr(expr.condition)
            if cond != BOOL:
                raise self.error(f"?: condition must be bool, got {cond}", expr)
            t_true = self.check_expr(expr.if_true)
            t_false = self.check_expr(expr.if_false)
            if t_true != t_false:
                raise self.error(
                    f"?: branches have different types ({t_true} vs {t_false})",
                    expr,
                )
            return t_true
        if isinstance(expr, ast.Call):
            return self.check_call(expr)
        if isinstance(expr, ast.FieldAccess):
            return self.check_field_access(expr)
        if isinstance(expr, ast.IndexAccess):
            return self.check_index(expr)
        if isinstance(expr, ast.CommaExpr):
            self.check_expr(expr.left)
            return self.check_expr(expr.right)
        raise self.error(f"unhandled expression {type(expr).__name__}", expr)

    def check_unary(self, expr: ast.UnaryOp) -> GlslType:
        if expr.op == "~":
            raise self.error("operator '~' is reserved in GLSL ES 1.00", expr)
        optype = self.check_expr(expr.operand)
        if expr.op == "!":
            if optype != BOOL:
                raise self.error(f"'!' requires bool, got {optype}", expr)
            return BOOL
        if not optype.is_numeric():
            raise self.error(f"cannot apply unary '{expr.op}' to {optype}", expr)
        return optype

    def check_binary(self, expr: ast.BinaryOp) -> GlslType:
        if expr.op in RESERVED_OPS:
            raise self.error(
                f"operator '{expr.op}' is reserved in GLSL ES 1.00 "
                "(integer modulo/bitwise ops are not available — the "
                "paper's transformations use floor()/mod() instead)",
                expr,
            )
        left = self.check_expr(expr.left)
        right = self.check_expr(expr.right)
        op = expr.op

        if op in ("&&", "||", "^^"):
            if left != BOOL or right != BOOL:
                raise self.error(
                    f"'{op}' requires bool operands, got {left} and {right}", expr
                )
            return BOOL
        if op in ("==", "!="):
            if left != right:
                raise self.error(
                    f"'{op}' operands must have the same type "
                    f"({left} vs {right})",
                    expr,
                )
            if left.is_sampler() or left.is_array():
                raise self.error(f"'{op}' cannot compare {left}", expr)
            return BOOL
        if op in ("<", ">", "<=", ">="):
            if not (left.is_scalar() and left == right and left.base != BaseType.BOOL):
                raise self.error(
                    f"'{op}' requires matching int or float scalars, "
                    f"got {left} and {right}",
                    expr,
                )
            return BOOL
        if op in ("+", "-", "*", "/"):
            return self.arith_result(op, left, right, expr)
        raise self.error(f"unhandled operator '{op}'", expr)

    def arith_result(self, op: str, left: GlslType, right: GlslType, node) -> GlslType:
        if not left.is_numeric() or not right.is_numeric():
            raise self.error(
                f"'{op}' requires numeric operands, got {left} and {right}", node
            )
        if left.base != right.base:
            raise self.error(
                f"'{op}' operands must share a base type, got {left} and "
                f"{right} (GLSL ES has no implicit int->float conversion)",
                node,
            )
        if left == right:
            if op == "*" and left.is_matrix():
                return left  # linear-algebraic product, same order
            return left
        if left.is_scalar():
            return right
        if right.is_scalar():
            return left
        if op == "*":
            if left.is_matrix() and right.is_vector() and left.size == right.size:
                return right
            if left.is_vector() and right.is_matrix() and left.size == right.size:
                return left
        raise self.error(f"invalid operands to '{op}': {left} and {right}", node)

    def check_assignment(self, expr: ast.Assignment) -> GlslType:
        if expr.op in RESERVED_OPS:
            raise self.error(f"operator '{expr.op}' is reserved in GLSL ES", expr)
        self.require_lvalue(expr.target)
        target = self.check_expr(expr.target)
        value = self.check_expr(expr.value)
        if expr.op == "=":
            if target != value:
                raise self.error(
                    f"cannot assign {value} to {target} (no implicit "
                    "conversions)",
                    expr,
                )
            return target
        op = expr.op[0]  # '+=' -> '+'
        result = self.arith_result(op, target, value, expr)
        if result != target:
            raise self.error(
                f"'{expr.op}' result type {result} does not match target "
                f"{target}",
                expr,
            )
        return target

    def require_lvalue(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Identifier):
            __, writable = self.lookup(expr.name, expr)
            if not writable:
                raise self.error(f"'{expr.name}' is not assignable", expr)
            symbol = self.result.globals.get(expr.name)
            if symbol is not None and symbol.qualifier == "builtin":
                self.result.written_builtins.add(expr.name)
            return
        if isinstance(expr, ast.FieldAccess):
            # Swizzle writes may not repeat components; validated after
            # the swizzle is resolved in check_field_access, but the
            # base must itself be an l-value.
            self.require_lvalue(expr.base)
            return
        if isinstance(expr, ast.IndexAccess):
            self.require_lvalue(expr.base)
            return
        raise self.error("expression is not assignable", expr)

    def check_call(self, expr: ast.Call) -> GlslType:
        arg_types = [self.check_expr(a) for a in expr.args]

        # Constructor?
        if expr.callee in BUILTIN_TYPE_NAMES:
            target = BUILTIN_TYPE_NAMES[expr.callee]
            return self.check_constructor(expr, target, arg_types)
        if expr.callee in self.result.structs:
            return self.check_struct_constructor(
                expr, self.result.structs[expr.callee], arg_types
            )

        # Built-in function?
        if bi.is_builtin(expr.callee):
            resolved = bi.resolve(expr.callee, arg_types)
            if resolved is None:
                names = ", ".join(str(t) for t in arg_types)
                raise self.error(
                    f"no overload of '{expr.callee}' matches ({names})", expr
                )
            overload, ret = resolved
            expr.is_builtin = True
            expr.resolved_signature = overload.key
            return ret

        # User function (exact-match overloading).
        key = mangle(expr.callee, arg_types)
        func = self.result.functions.get(key)
        if func is None:
            names = ", ".join(str(t) for t in arg_types)
            raise self.error(
                f"no function '{expr.callee}({names})' declared", expr
            )
        # out/inout arguments must be l-values.
        for param, arg in zip(func.params, expr.args):
            if param.direction in ("out", "inout"):
                self.require_lvalue(arg)
        expr.resolved_signature = key
        if self._current_caller is not None:
            self.call_graph.setdefault(self._current_caller, set()).add(key)
        return func.resolved_return_type

    def check_constructor(
        self, expr: ast.Call, target: GlslType, arg_types: List[GlslType]
    ) -> GlslType:
        expr.is_constructor = True
        expr.constructed_type = target
        if target.is_sampler() or target.is_void():
            raise self.error(f"cannot construct {target}", expr)
        if not arg_types:
            raise self.error(f"constructor {target}() requires arguments", expr)
        for t in arg_types:
            if not (t.is_scalar() or t.is_vector() or t.is_matrix()):
                raise self.error(f"{t} cannot appear in a constructor", expr)

        if target.is_scalar():
            if len(arg_types) != 1:
                raise self.error(
                    f"scalar constructor {target}() takes exactly one argument",
                    expr,
                )
            return target
        if target.is_vector():
            if len(arg_types) == 1 and arg_types[0].is_scalar():
                return target  # splat
            if len(arg_types) == 1 and arg_types[0].is_matrix():
                raise self.error("cannot build a vector from a matrix", expr)
            total = sum(t.component_count() for t in arg_types)
            if total < target.size:
                raise self.error(
                    f"too few components for {target} constructor "
                    f"({total} < {target.size})",
                    expr,
                )
            # Spec: supplying extra *arguments* beyond what is consumed
            # is an error; extra components in the last argument are ok.
            consumed = 0
            for i, t in enumerate(arg_types):
                if consumed >= target.size:
                    raise self.error(
                        f"too many arguments for {target} constructor", expr
                    )
                consumed += t.component_count()
            return target
        if target.is_matrix():
            if len(arg_types) == 1 and arg_types[0].is_scalar():
                return target  # diagonal
            if any(t.is_matrix() for t in arg_types):
                raise self.error(
                    "GLSL ES 1.00 does not allow constructing matrices "
                    "from matrices",
                    expr,
                )
            total = sum(t.component_count() for t in arg_types)
            if total != target.component_count():
                raise self.error(
                    f"{target} constructor needs exactly "
                    f"{target.component_count()} components, got {total}",
                    expr,
                )
            return target
        raise self.error(f"cannot construct {target}", expr)

    def check_struct_constructor(
        self, expr: ast.Call, target: GlslType, arg_types: List[GlslType]
    ) -> GlslType:
        expr.is_constructor = True
        expr.constructed_type = target
        expected = [ftype for __, ftype in target.fields]
        if arg_types != expected:
            raise self.error(
                f"struct {target.name} constructor expects "
                f"({', '.join(map(str, expected))})",
                expr,
            )
        return target

    def check_field_access(self, expr: ast.FieldAccess) -> GlslType:
        base = self.check_expr(expr.base)
        if base.is_struct():
            for fname, ftype in base.fields:
                if fname == expr.field_name:
                    return ftype
            raise self.error(
                f"struct {base.name} has no field '{expr.field_name}'", expr
            )
        if base.is_vector():
            indices = swizzle_indices(expr.field_name)
            if indices is None or max(indices) >= base.size:
                raise self.error(
                    f"invalid swizzle '.{expr.field_name}' on {base}", expr
                )
            expr.swizzle = indices
            if len(indices) == 1:
                return scalar_type(base.base)
            return vector_type(base.base, len(indices))
        raise self.error(f"cannot apply '.{expr.field_name}' to {base}", expr)

    def check_index(self, expr: ast.IndexAccess) -> GlslType:
        base = self.check_expr(expr.base)
        index = self.check_expr(expr.index)
        if index != INT:
            raise self.error(f"index must be int, got {index}", expr)
        if base.is_array():
            return base.element
        if base.is_vector():
            return scalar_type(base.base)
        if base.is_matrix():
            return base.column_type()
        raise self.error(f"cannot index {base}", expr)

    # ------------------------------------------------------------------
    # Constant folding (array sizes)
    # ------------------------------------------------------------------
    def const_int(self, expr: ast.Expr) -> int:
        value = self.fold(expr)
        if not isinstance(value, int) or isinstance(value, bool):
            raise self.error("array size must be a constant integer", expr)
        if value <= 0:
            raise self.error("array size must be positive", expr)
        return value

    def fold(self, expr: ast.Expr):
        """Evaluate a constant integer/float/bool expression, or None."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, ast.BoolLiteral):
            return expr.value
        if isinstance(expr, ast.UnaryOp):
            value = self.fold(expr.operand)
            if value is None:
                return None
            if expr.op == "-":
                return -value
            if expr.op == "+":
                return value
            if expr.op == "!":
                return not value
            return None
        if isinstance(expr, ast.BinaryOp):
            left = self.fold(expr.left)
            right = self.fold(expr.right)
            if left is None or right is None:
                return None
            try:
                if expr.op == "+":
                    return left + right
                if expr.op == "-":
                    return left - right
                if expr.op == "*":
                    return left * right
                if expr.op == "/":
                    if isinstance(left, int) and isinstance(right, int):
                        return int(left / right)  # C truncation
                    return left / right
            except ZeroDivisionError:
                raise self.error("division by zero in constant expression", expr)
            return None
        if isinstance(expr, ast.Identifier):
            symbol = self.result.globals.get(expr.name)
            if symbol is not None and symbol.qualifier == "const" and symbol.initializer is not None:
                return self.fold(symbol.initializer)
            return None
        return None
