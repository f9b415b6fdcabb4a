"""AST -> GLSL source pretty-printer.

Closes the compiler loop: ``parse(print(ast))`` reproduces the same
AST (tested), which makes optimisation passes inspectable — dump the
folded tree as source and read exactly what will execute.  Also used
by error tooling to show reduced shaders.
"""

from __future__ import annotations

from typing import List

from . import ast_nodes as ast

#: Binary operator precedence (higher binds tighter), mirroring the
#: parser's table.
_PRECEDENCE = {
    "||": 1, "^^": 2, "&&": 3,
    "|": 4, "^": 5, "&": 6,
    "==": 7, "!=": 7,
    "<": 8, ">": 8, "<=": 8, ">=": 8,
    "<<": 9, ">>": 9,
    "+": 10, "-": 10,
    "*": 11, "/": 11, "%": 11,
}
_UNARY_PRECEDENCE = 12


def print_unit(unit: ast.TranslationUnit) -> str:
    """Render a whole translation unit."""
    parts: List[str] = []
    for decl in unit.declarations:
        parts.append(_print_declaration(decl))
    return "\n".join(parts) + "\n"


def print_expr(expr: ast.Expr, parent_precedence: int = 0) -> str:
    """Render one expression (minimal parentheses)."""
    if isinstance(expr, ast.IntLiteral):
        return str(expr.value)
    if isinstance(expr, ast.FloatLiteral):
        text = repr(float(expr.value))
        if "e" not in text and "." not in text and "inf" not in text:
            text += ".0"
        return text
    if isinstance(expr, ast.BoolLiteral):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.UnaryOp):
        inner = print_expr(expr.operand, _UNARY_PRECEDENCE)
        if expr.op in ("-", "+") and inner.startswith(expr.op):
            # "-" next to "-1.5" or "-x" would lex as "--" (decrement).
            inner = f"({inner})"
        text = f"{expr.op}{inner}"
        return f"({text})" if parent_precedence > _UNARY_PRECEDENCE else text
    if isinstance(expr, ast.PrefixIncDec):
        return f"{expr.op}{print_expr(expr.operand, _UNARY_PRECEDENCE)}"
    if isinstance(expr, ast.PostfixIncDec):
        return f"{print_expr(expr.operand, _UNARY_PRECEDENCE)}{expr.op}"
    if isinstance(expr, ast.BinaryOp):
        precedence = _PRECEDENCE[expr.op]
        left = print_expr(expr.left, precedence)
        # Right operand needs a bump for left-associative operators.
        right = print_expr(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if parent_precedence > precedence else text
    if isinstance(expr, ast.Assignment):
        target = print_expr(expr.target, 0)
        value = print_expr(expr.value, 0)
        text = f"{target} {expr.op} {value}"
        return f"({text})" if parent_precedence > 0 else text
    if isinstance(expr, ast.Conditional):
        text = (
            f"{print_expr(expr.condition, 1)} ? "
            f"{print_expr(expr.if_true, 0)} : {print_expr(expr.if_false, 0)}"
        )
        return f"({text})" if parent_precedence > 0 else text
    if isinstance(expr, ast.Call):
        args = ", ".join(print_expr(a, 0) for a in expr.args)
        return f"{expr.callee}({args})"
    if isinstance(expr, ast.FieldAccess):
        return f"{print_expr(expr.base, _UNARY_PRECEDENCE + 1)}.{expr.field_name}"
    if isinstance(expr, ast.IndexAccess):
        return (
            f"{print_expr(expr.base, _UNARY_PRECEDENCE + 1)}"
            f"[{print_expr(expr.index, 0)}]"
        )
    if isinstance(expr, ast.CommaExpr):
        text = f"{print_expr(expr.left, 1)}, {print_expr(expr.right, 1)}"
        return f"({text})" if parent_precedence > 0 else text
    raise ValueError(f"cannot print {type(expr).__name__}")


def print_stmt(stmt: ast.Stmt, indent: int = 0) -> str:
    pad = "    " * indent
    if isinstance(stmt, ast.CompoundStmt):
        if not stmt.statements:
            return pad + "{\n" + pad + "}"
        body = "\n".join(print_stmt(s, indent + 1) for s in stmt.statements)
        return pad + "{\n" + body + "\n" + pad + "}"
    if isinstance(stmt, ast.DeclStmt):
        return pad + _print_decl_stmt(stmt)
    if isinstance(stmt, ast.ExprStmt):
        return pad + print_expr(stmt.expr) + ";"
    if isinstance(stmt, ast.IfStmt):
        text = pad + f"if ({print_expr(stmt.condition)})\n"
        text += print_stmt(_as_block(stmt.then_branch), indent)
        if isinstance(stmt.else_branch, ast.IfStmt):
            # ``else if``: the chained if stays unbraced, as it parsed.
            text += "\n" + pad + "else "
            text += print_stmt(stmt.else_branch, indent).lstrip()
        elif stmt.else_branch is not None:
            text += "\n" + pad + "else\n"
            text += print_stmt(_as_block(stmt.else_branch), indent)
        return text
    if isinstance(stmt, ast.ForStmt):
        init = ""
        if isinstance(stmt.init, ast.DeclStmt):
            init = _print_decl_stmt(stmt.init).rstrip(";") + ";"
        elif isinstance(stmt.init, ast.ExprStmt):
            init = print_expr(stmt.init.expr) + ";"
        else:
            init = ";"
        condition = print_expr(stmt.condition) if stmt.condition else ""
        update = print_expr(stmt.update) if stmt.update else ""
        text = pad + f"for ({init} {condition}; {update})\n"
        return text + print_stmt(_as_block(stmt.body), indent)
    if isinstance(stmt, ast.WhileStmt):
        text = pad + f"while ({print_expr(stmt.condition)})\n"
        return text + print_stmt(_as_block(stmt.body), indent)
    if isinstance(stmt, ast.DoWhileStmt):
        text = pad + "do\n" + print_stmt(_as_block(stmt.body), indent)
        return text + "\n" + pad + f"while ({print_expr(stmt.condition)});"
    if isinstance(stmt, ast.ReturnStmt):
        if stmt.value is None:
            return pad + "return;"
        return pad + f"return {print_expr(stmt.value)};"
    if isinstance(stmt, ast.BreakStmt):
        return pad + "break;"
    if isinstance(stmt, ast.ContinueStmt):
        return pad + "continue;"
    if isinstance(stmt, ast.DiscardStmt):
        return pad + "discard;"
    raise ValueError(f"cannot print {type(stmt).__name__}")


def _as_block(stmt: ast.Stmt) -> ast.CompoundStmt:
    if isinstance(stmt, ast.CompoundStmt):
        return stmt
    return ast.CompoundStmt(statements=[stmt], line=stmt.line)


def _print_decl_stmt(stmt: ast.DeclStmt) -> str:
    prefix = "const " if stmt.is_const else ""
    if stmt.precision:
        prefix += stmt.precision + " "
    declarators = []
    for declarator in stmt.declarators:
        text = declarator.name
        if declarator.array_size is not None:
            text += f"[{print_expr(declarator.array_size)}]"
        if declarator.initializer is not None:
            text += f" = {print_expr(declarator.initializer)}"
        declarators.append(text)
    return f"{prefix}{stmt.type_name} {', '.join(declarators)};"


def _print_declaration(decl: ast.Node) -> str:
    if isinstance(decl, ast.PrecisionDecl):
        return f"precision {decl.precision} {decl.type_name};"
    if isinstance(decl, ast.StructDef):
        fields = "\n".join(
            f"    {ftype.glsl_name()} {fname};"
            for fname, ftype in decl.resolved.fields
        )
        return f"struct {decl.name} {{\n{fields}\n}};"
    if isinstance(decl, ast.GlobalDecl):
        parts = []
        if decl.is_invariant:
            parts.append("invariant")
        if decl.is_const:
            parts.append("const")
        if decl.qualifier:
            parts.append(decl.qualifier)
        if decl.precision:
            parts.append(decl.precision)
        parts.append(decl.type_name)
        declarators = []
        for declarator in decl.declarators:
            text = declarator.name
            if declarator.array_size is not None:
                text += f"[{print_expr(declarator.array_size)}]"
            if declarator.initializer is not None:
                text += f" = {print_expr(declarator.initializer)}"
            declarators.append(text)
        return " ".join(parts) + " " + ", ".join(declarators) + ";"
    if isinstance(decl, ast.FunctionDef):
        params = ", ".join(_print_param(p) for p in decl.params)
        head = f"{decl.return_type_name} {decl.name}({params})"
        if decl.body is None:
            return head + ";"
        return head + "\n" + print_stmt(decl.body, 0)
    raise ValueError(f"cannot print {type(decl).__name__}")


def _print_param(param: ast.Param) -> str:
    parts = []
    if param.is_const:
        parts.append("const")
    if param.direction != "in":
        parts.append(param.direction)
    if param.precision:
        parts.append(param.precision)
    parts.append(param.type_name)
    if param.name:
        name = param.name
        if param.array_size is not None:
            name += f"[{print_expr(param.array_size)}]"
        parts.append(name)
    return " ".join(parts)
