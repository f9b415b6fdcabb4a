"""Lowering: type-checked GLSL ASTs -> structured register IR.

The lowering fixes the evaluation orders *exactly* (assignment targets
resolve their index expressions before the rhs, compound assignments
read the old value after the rhs, declarations allocate storage before
evaluating their initializer, out/inout argument l-values re-evaluate
their indices after the argument values, ...) so that the IR and JIT
executors are bit-identical to the AST-level scalar reference
(:mod:`repro.glsl.scalar_ref`).

User functions are inlined (GLSL ES 1.00 forbids recursion; a 64-frame
call-depth cap becomes a lower-time inline cap) and
``for`` loops matching the Appendix-A shape get a static trip count
attached for the static cost model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import ast_nodes as ast
from .. import builtins as bi
from ..errors import GlslLimitError, GlslRuntimeError
from ..typecheck import CheckedShader
from ..values import INT_DTYPE
from .nodes import (
    Block,
    CompiledProgram,
    CondRegion,
    FuncRegion,
    GlobalPlan,
    IfRegion,
    Instr,
    LoopRegion,
    ScRegion,
)

#: Bail-out ceiling for static trip simulation (Appendix A allows only
#: tiny loops; anything bigger is treated as statically unbounded).
_TRIP_SIM_CAP = 65536


def arith_flops(op: str, ltype, rtype, result_type) -> int:
    """Per-lane flop count of one arithmetic op — the same formula the
    interpreter's ``_eval_arith`` applies at runtime."""
    if op == "*" and ltype.is_matrix() and rtype.is_matrix():
        return result_type.component_count() * ltype.size
    if op == "*" and ltype.is_matrix() and rtype.is_vector():
        return result_type.component_count() * ltype.size
    if op == "*" and ltype.is_vector() and rtype.is_matrix():
        return result_type.component_count() * rtype.size
    return result_type.component_count()


class Lowerer:
    def __init__(self, checked: CheckedShader):
        self.checked = checked
        self.nregs = 0
        self.consts: List[Tuple[object, np.ndarray]] = []
        self._const_index: Dict[tuple, int] = {}
        #: registers holding mutable variable storage (used by passes
        #: for dependence/invalidation analysis).
        self.var_regs = set()
        self.global_scope: Dict[str, int] = {}
        #: one entry per live function frame; each is a stack of
        #: name->reg scopes (mirrors interpreter scoping rules).
        self.frames: List[List[Dict[str, int]]] = []
        self.blocks: List[Block] = []
        self.inline_depth = 0

    # -- plumbing ------------------------------------------------------
    def newreg(self) -> int:
        r = self.nregs
        self.nregs += 1
        return r

    @property
    def block(self) -> Block:
        return self.blocks[-1]

    def emit(self, op, out=None, args=(), imm=None, type=None) -> Instr:
        ins = Instr(op, out, args, imm, type)
        self.block.append(ins)
        return ins

    def lookup(self, name: str) -> int:
        if self.frames:
            for scope in reversed(self.frames[-1]):
                if name in scope:
                    return scope[name]
        reg = self.global_scope.get(name)
        if reg is None:
            raise GlslRuntimeError(f"unbound variable '{name}'")
        return reg

    def declare(self, name: str, reg: int) -> None:
        self.frames[-1][-1][name] = reg

    # -- constants -----------------------------------------------------
    def const_reg(self, gtype, master: np.ndarray) -> int:
        key = (str(gtype), master.dtype.str, master.shape, master.tobytes())
        idx = self._const_index.get(key)
        if idx is None:
            idx = len(self.consts)
            self.consts.append((gtype, master))
            self._const_index[key] = idx
        out = self.newreg()
        self.emit("const", out=out, imm=idx, type=gtype)
        return out

    # ==================================================================
    # Program entry
    # ==================================================================
    def lower(self) -> CompiledProgram:
        from ..types import FLOAT  # noqa: F401  (doc anchor)

        plans: List[GlobalPlan] = []
        for name, symbol in self.checked.globals.items():
            reg = self.newreg()
            self.var_regs.add(reg)
            plan = GlobalPlan(name, reg, symbol.type,
                              is_sampler=symbol.type.is_sampler())
            if symbol.initializer is not None and not plan.is_sampler:
                block = Block()
                self.blocks.append(block)
                self.frames.append([{}])
                try:
                    plan.init_reg = self.lower_expr(symbol.initializer)
                finally:
                    self.frames.pop()
                    self.blocks.pop()
                plan.init_block = block
            self.global_scope[name] = reg
            plans.append(plan)

        main = self.checked.functions.get("main()")
        if main is None or main.body is None:
            raise GlslRuntimeError("shader has no main() body")
        body = Block()
        self.blocks.append(body)
        try:
            self.lower_call(main, [], None)
        finally:
            self.blocks.pop()
        program = CompiledProgram(self.checked, plans, body, self.nregs,
                                  self.consts)
        program.var_regs = self.var_regs
        return program

    # ==================================================================
    # Inlined function calls
    # ==================================================================
    def lower_call(self, func: ast.FunctionDef, arg_regs: List[int],
                   arg_exprs: Optional[List[ast.Expr]]) -> int:
        # The 64-frame call-depth cap: recursion is illegal, so lexical
        # inline depth bounds runtime depth.
        if self.inline_depth > 64:
            raise GlslLimitError("function call nesting too deep")

        # out/inout l-values resolve in the caller's context, after the
        # argument values — including re-evaluating index expressions.
        refs: Dict[int, tuple] = {}
        for i, param in enumerate(func.params):
            if param.direction in ("out", "inout") and arg_exprs is not None:
                refs[i] = self.lower_lvalue(arg_exprs[i])

        body = Block()
        out = self.newreg()
        region = FuncRegion(func.name, func.resolved_return_type, body, out)

        self.blocks.append(body)
        self.frames.append([{}])
        param_regs: Dict[int, int] = {}
        self.inline_depth += 1
        try:
            for i, (param, areg) in enumerate(zip(func.params, arg_regs)):
                if not param.name:
                    continue
                preg = self.newreg()
                self.var_regs.add(preg)
                if param.direction == "out":
                    self.emit("decl", out=preg, type=param.resolved_type)
                else:
                    self.emit("copy", out=preg, args=(areg,),
                              type=param.resolved_type)
                param_regs[i] = preg
                self.declare(param.name, preg)
            for stmt in func.body.statements:
                self.lower_stmt(stmt)
        finally:
            self.inline_depth -= 1
            self.frames.pop()
            self.blocks.pop()
        self.block.append(region)

        # Copy out/inout parameters back (runs under the caller's
        # post-call mask, which FUNC_POP has already restored).
        for i, (root, path, idx_regs) in refs.items():
            self.emit("store", args=(root, param_regs[i]) + tuple(idx_regs),
                      imm=path)
        return out

    # ==================================================================
    # Statements
    # ==================================================================
    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            self.frames[-1].append({})
            try:
                for inner in stmt.statements:
                    self.lower_stmt(inner)
            finally:
                self.frames[-1].pop()
        elif isinstance(stmt, ast.DeclStmt):
            for d in stmt.declarators:
                reg = self.newreg()
                self.var_regs.add(reg)
                self.emit("decl", out=reg, type=d.resolved_type)
                if d.initializer is not None:
                    r = self.lower_expr(d.initializer)
                    self.emit("store", args=(reg, r), imm=())
                self.declare(d.name, reg)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            cond = self.lower_expr(stmt.condition)
            then_block = Block()
            self.blocks.append(then_block)
            try:
                self.lower_stmt(stmt.then_branch)
            finally:
                self.blocks.pop()
            else_block = None
            if stmt.else_branch is not None:
                else_block = Block()
                self.blocks.append(else_block)
                try:
                    self.lower_stmt(stmt.else_branch)
                finally:
                    self.blocks.pop()
            self.block.append(IfRegion(cond, then_block, else_block))
        elif isinstance(stmt, ast.ForStmt):
            self.frames[-1].append({})
            try:
                trips = self.static_trips(stmt)
                if stmt.init is not None:
                    self.lower_stmt(stmt.init)
                self._lower_loop(stmt.condition, stmt.update, stmt.body,
                                 pretest=True, static_trips=trips)
            finally:
                self.frames[-1].pop()
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_loop(stmt.condition, None, stmt.body, pretest=True,
                             static_trips=None)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._lower_loop(stmt.condition, None, stmt.body, pretest=False,
                             static_trips=None)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                r = self.lower_expr(stmt.value)
                self.emit("return", args=(r,))
            else:
                self.emit("return")
        elif isinstance(stmt, ast.BreakStmt):
            self.emit("break")
        elif isinstance(stmt, ast.ContinueStmt):
            self.emit("continue")
        elif isinstance(stmt, ast.DiscardStmt):
            self.emit("discard")
        else:
            raise GlslRuntimeError(f"unhandled statement {type(stmt).__name__}")

    def _lower_loop(self, condition, update, body_stmt, pretest: bool,
                    static_trips: Optional[int]) -> None:
        cond_block = None
        cond_reg = None
        if condition is not None:
            cond_block = Block()
            self.blocks.append(cond_block)
            try:
                cond_reg = self.lower_expr(condition)
            finally:
                self.blocks.pop()
        body = Block()
        self.blocks.append(body)
        try:
            self.lower_stmt(body_stmt)
        finally:
            self.blocks.pop()
        update_block = None
        if update is not None:
            update_block = Block()
            self.blocks.append(update_block)
            try:
                self.lower_expr(update)
            finally:
                self.blocks.pop()
        self.block.append(LoopRegion(pretest, cond_block, cond_reg, body,
                                     update_block, static_trips))

    # ==================================================================
    # Appendix-A static trip counts
    # ==================================================================
    def static_trips(self, stmt: ast.ForStmt) -> Optional[int]:
        init = stmt.init
        if (not isinstance(init, ast.DeclStmt) or len(init.declarators) != 1
                or stmt.condition is None or stmt.update is None):
            return None
        d = init.declarators[0]
        if d.resolved_type is None or not d.resolved_type.is_scalar() \
                or not d.resolved_type.is_int_based():
            return None
        start = _int_literal(d.initializer)
        if start is None:
            return None
        name = d.name

        cond = stmt.condition
        if not (isinstance(cond, ast.BinaryOp)
                and cond.op in ("<", ">", "<=", ">=", "==", "!=")
                and isinstance(cond.left, ast.Identifier)
                and cond.left.name == name):
            return None
        bound = _int_literal(cond.right)
        if bound is None:
            return None

        step = self._update_step(stmt.update, name)
        if step is None or step == 0:
            return None
        if self._writes_var(stmt.body, name):
            return None

        compare = {"<": lambda a, b: a < b, ">": lambda a, b: a > b,
                   "<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
                   "==": lambda a, b: a == b, "!=": lambda a, b: a != b}[cond.op]
        i, trips = start, 0
        while compare(i, bound):
            trips += 1
            i += step
            if trips > _TRIP_SIM_CAP:
                return None
        return trips

    @staticmethod
    def _update_step(update: ast.Expr, name: str) -> Optional[int]:
        if isinstance(update, (ast.PrefixIncDec, ast.PostfixIncDec)):
            if isinstance(update.operand, ast.Identifier) \
                    and update.operand.name == name:
                return 1 if update.op == "++" else -1
            return None
        if (isinstance(update, ast.Assignment) and update.op in ("+=", "-=")
                and isinstance(update.target, ast.Identifier)
                and update.target.name == name):
            step = _int_literal(update.value)
            if step is None:
                return None
            return step if update.op == "+=" else -step
        return None

    def _writes_var(self, node, name: str) -> bool:
        """Conservatively: does this subtree (re)declare or store to
        ``name``?  Includes passing it to an out/inout parameter."""
        if isinstance(node, ast.DeclStmt):
            if any(d.name == name for d in node.declarators):
                return True
        if isinstance(node, ast.Assignment) and _lvalue_root(node.target) == name:
            return True
        if isinstance(node, (ast.PrefixIncDec, ast.PostfixIncDec)) \
                and _lvalue_root(node.operand) == name:
            return True
        if isinstance(node, ast.Call) and not node.is_constructor \
                and not node.is_builtin and node.resolved_signature:
            func = self.checked.functions.get(node.resolved_signature)
            if func is not None:
                for param, arg in zip(func.params, node.args):
                    if param.direction in ("out", "inout") \
                            and _lvalue_root(arg) == name:
                        return True
        for child in _ast_children(node):
            if self._writes_var(child, name):
                return True
        return False

    # ==================================================================
    # Expressions
    # ==================================================================
    def lower_expr(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.IntLiteral):
            from ..types import INT
            return self.const_reg(INT, np.array([expr.value], dtype=INT_DTYPE))
        if isinstance(expr, ast.FloatLiteral):
            from ..types import FLOAT
            # float64 master; cast to the executor's model dtype at
            # bind time (identical rounding to building the literal in
            # the model dtype directly).
            return self.const_reg(FLOAT, np.array([expr.value], dtype=np.float64))
        if isinstance(expr, ast.BoolLiteral):
            from ..types import BOOL
            return self.const_reg(BOOL, np.array([expr.value], dtype=bool))
        if isinstance(expr, ast.Identifier):
            return self.lookup(expr.name)
        if isinstance(expr, ast.UnaryOp):
            operand = self.lower_expr(expr.operand)
            if expr.op == "+":
                return operand
            out = self.newreg()
            self.emit("unary", out=out, args=(operand,), imm=expr.op,
                      type=expr.resolved_type)
            return out
        if isinstance(expr, (ast.PrefixIncDec, ast.PostfixIncDec)):
            root, path, idx_regs = self.lower_lvalue(expr.operand)
            out = self.newreg()
            self.emit("incdec", out=out, args=(root,) + tuple(idx_regs),
                      imm=(path, expr.op, isinstance(expr, ast.PrefixIncDec)),
                      type=expr.resolved_type)
            return out
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Assignment):
            return self._lower_assignment(expr)
        if isinstance(expr, ast.Conditional):
            cond = self.lower_expr(expr.condition)
            tb, tr = self._lower_arm(expr.if_true)
            fb, fr = self._lower_arm(expr.if_false)
            out = self.newreg()
            self.block.append(
                CondRegion(cond, tb, tr, fb, fr, out, expr.resolved_type))
            return out
        if isinstance(expr, ast.Call):
            return self._lower_call_expr(expr)
        if isinstance(expr, ast.FieldAccess):
            base = self.lower_expr(expr.base)
            out = self.newreg()
            if expr.swizzle is not None:
                self.emit("swizzle", out=out, args=(base,),
                          imm=tuple(expr.swizzle), type=expr.resolved_type)
            else:
                self.emit("field", out=out, args=(base,),
                          imm=expr.field_name, type=expr.resolved_type)
            return out
        if isinstance(expr, ast.IndexAccess):
            base = self.lower_expr(expr.base)
            index = self.lower_expr(expr.index)
            out = self.newreg()
            self.emit("index", out=out, args=(base, index),
                      type=expr.resolved_type)
            return out
        if isinstance(expr, ast.CommaExpr):
            self.lower_expr(expr.left)
            return self.lower_expr(expr.right)
        raise GlslRuntimeError(f"unhandled expression {type(expr).__name__}")

    def _lower_arm(self, expr: ast.Expr) -> Tuple[Block, int]:
        block = Block()
        self.blocks.append(block)
        try:
            reg = self.lower_expr(expr)
        finally:
            self.blocks.pop()
        return block, reg

    def _lower_binary(self, expr: ast.BinaryOp) -> int:
        op = expr.op
        if op in ("&&", "||"):
            left = self.lower_expr(expr.left)
            rhs_block, right = self._lower_arm(expr.right)
            out = self.newreg()
            self.block.append(ScRegion(op, left, rhs_block, right, out))
            return out
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        out = self.newreg()
        if op == "^^":
            self.emit("xor", out=out, args=(left, right),
                      type=expr.resolved_type)
        elif op in ("==", "!="):
            ltype = expr.left.resolved_type
            comps = 1 if (ltype is None or ltype.is_struct()) \
                else ltype.component_count()
            self.emit("equal", out=out, args=(left, right), imm=(op, comps),
                      type=expr.resolved_type)
        elif op in ("<", ">", "<=", ">="):
            self.emit("compare", out=out, args=(left, right), imm=op,
                      type=expr.resolved_type)
        else:
            flops = arith_flops(op, expr.left.resolved_type,
                                expr.right.resolved_type, expr.resolved_type)
            self.emit("arith", out=out, args=(left, right), imm=(op, flops),
                      type=expr.resolved_type)
        return out

    def _lower_assignment(self, expr: ast.Assignment) -> int:
        root, path, idx_regs = self.lower_lvalue(expr.target)
        value = self.lower_expr(expr.value)
        if expr.op != "=":
            # Compound assignment reads the old value *after* the rhs.
            old = self.newreg()
            self.emit("load", out=old, args=(root,) + tuple(idx_regs),
                      imm=path, type=expr.target.resolved_type)
            res = self.newreg()
            flops = arith_flops(expr.op[0], expr.target.resolved_type,
                                expr.value.resolved_type, expr.resolved_type)
            self.emit("arith", out=res, args=(old, value),
                      imm=(expr.op[0], flops), type=expr.resolved_type)
            value = res
        self.emit("store", args=(root, value) + tuple(idx_regs), imm=path)
        return value

    def _lower_call_expr(self, expr: ast.Call) -> int:
        if expr.is_constructor:
            args = [self.lower_expr(a) for a in expr.args]
            out = self.newreg()
            self.emit("construct", out=out, args=tuple(args),
                      type=expr.constructed_type)
            return out
        if expr.is_builtin:
            overload = bi.OVERLOADS_BY_KEY[expr.resolved_signature]
            args = [self.lower_expr(a) for a in expr.args]
            out = self.newreg()
            op = "texture" if overload.name in bi.TEXTURE_BUILTINS else "builtin"
            self.emit(op, out=out, args=tuple(args),
                      imm=(expr.resolved_signature, overload),
                      type=expr.resolved_type)
            return out
        func = self.checked.functions.get(expr.resolved_signature)
        if func is None or func.body is None:
            raise GlslRuntimeError(
                f"call to undefined function '{expr.resolved_signature}'")
        args = [self.lower_expr(a) for a in expr.args]
        return self.lower_call(func, args, expr.args)

    # ==================================================================
    # L-values
    # ==================================================================
    def lower_lvalue(self, expr: ast.Expr) -> Tuple[int, tuple, List[int]]:
        """Returns (root reg, path steps, index regs).  Path steps are
        ("f", name) | ("s", indices, type) | ("i", type); index regs
        pair up with "i" steps in order."""
        if isinstance(expr, ast.Identifier):
            return self.lookup(expr.name), (), []
        if isinstance(expr, ast.FieldAccess):
            root, path, idx_regs = self.lower_lvalue(expr.base)
            if expr.swizzle is not None:
                step = ("s", tuple(expr.swizzle), expr.resolved_type)
            else:
                step = ("f", expr.field_name)
            return root, path + (step,), idx_regs
        if isinstance(expr, ast.IndexAccess):
            root, path, idx_regs = self.lower_lvalue(expr.base)
            idx = self.lower_expr(expr.index)
            return root, path + (("i", expr.resolved_type),), idx_regs + [idx]
        raise GlslRuntimeError("expression is not an l-value")


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _int_literal(expr) -> Optional[int]:
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryOp) and expr.op == "-" \
            and isinstance(expr.operand, ast.IntLiteral):
        return -expr.operand.value
    return None


def _lvalue_root(expr) -> Optional[str]:
    while isinstance(expr, (ast.FieldAccess, ast.IndexAccess)):
        expr = expr.base
    if isinstance(expr, ast.Identifier):
        return expr.name
    return None


def _ast_children(node):
    import dataclasses

    if not isinstance(node, ast.Node):
        return
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


def lower_shader(checked: CheckedShader) -> CompiledProgram:
    """Lower one type-checked shader into a structured IR program."""
    return Lowerer(checked).lower()
