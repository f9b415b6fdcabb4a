"""Greedy AST-level shrinking of failing shader programs.

Given a fragment shader whose differential run diverges, reduce it to
a minimal reproducer: repeatedly propose simplified candidate ASTs,
print them back to source with :mod:`repro.glsl.printer`, and keep a
candidate whenever the caller's predicate says it *still fails*.
Candidates that no longer compile are rejected by construction (the
predicate must treat compile errors as "does not fail").

Reduction passes, applied to a fixed point:

1. drop whole top-level declarations (functions, globals),
2. delete statements from any block (including nested ones),
3. collapse control flow (``if`` -> branch, loop -> body),
4. replace expressions with literals or their own subexpressions.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, List, Optional

from ..glsl import ast_nodes as ast
from ..glsl.parser import parse
from ..glsl.preprocessor import preprocess
from ..glsl.printer import print_unit

#: Bound on accepted reductions; each acceptance strictly shrinks the
#: tree, so this is a safety net rather than a tuning knob.
MAX_ACCEPTED_REDUCTIONS = 500


def shrink_source(
    source: str,
    still_fails: Callable[[str], bool],
    max_reductions: int = MAX_ACCEPTED_REDUCTIONS,
) -> str:
    """Greedily shrink ``source`` while ``still_fails`` holds.

    Returns printed source of the smallest failing program found.  The
    input itself must fail, otherwise it is returned unchanged.
    """
    if not still_fails(source):
        return source
    unit = parse(preprocess(source).source)
    best = print_unit(unit)
    accepted = 0
    progress = True
    while progress and accepted < max_reductions:
        progress = False
        for candidate in _candidates(unit):
            printed = print_unit(candidate)
            if len(printed) >= len(best):
                continue
            if still_fails(printed):
                unit = candidate
                best = printed
                accepted += 1
                progress = True
                break
    return best


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------
def _candidates(unit: ast.TranslationUnit) -> Iterator[ast.TranslationUnit]:
    """Yield simplified deep copies of ``unit``, most aggressive first."""
    # 1. Drop top-level declarations (never main()).
    for i, decl in enumerate(unit.declarations):
        if isinstance(decl, ast.FunctionDef) and decl.name == "main":
            continue
        clone = copy.deepcopy(unit)
        del clone.declarations[i]
        yield clone

    # 2./3. Statement-level reductions inside each function body.
    for fi, decl in enumerate(unit.declarations):
        if not isinstance(decl, ast.FunctionDef) or decl.body is None:
            continue
        for edit_index in range(_count_stmt_edits(decl.body)):
            clone = copy.deepcopy(unit)
            body = clone.declarations[fi].body
            _apply_stmt_edit(body, [edit_index])
            yield clone

    # 4. Expression-level reductions.
    for fi, decl in enumerate(unit.declarations):
        if not isinstance(decl, ast.FunctionDef) or decl.body is None:
            continue
        n_sites = _count_expr_sites(decl.body)
        for site in range(n_sites):
            for replacement_index in range(_MAX_REPLACEMENTS):
                clone = copy.deepcopy(unit)
                body = clone.declarations[fi].body
                if not _apply_expr_edit(body, [site], replacement_index):
                    break
                yield clone


# ----------------------------------------------------------------------
# Statement edits.  Edits are indexed by a pre-order walk; the walk is
# re-run on each deep copy so indices stay valid.
# ----------------------------------------------------------------------
def _count_stmt_edits(body: ast.CompoundStmt) -> int:
    return len(_collect_stmt_edits(body))


def _apply_stmt_edit(body: ast.CompoundStmt, cursor: List[int]) -> None:
    edits = _collect_stmt_edits(body)
    edits[cursor[0]]()


def _collect_stmt_edits(body: ast.CompoundStmt) -> List[Callable[[], None]]:
    """Closures that each perform one in-place reduction on the tree."""
    edits: List[Callable[[], None]] = []

    def visit_block(block: ast.CompoundStmt) -> None:
        for i, stmt in enumerate(block.statements):
            edits.append(
                lambda b=block, j=i: b.statements.__delitem__(j)
            )
            visit_stmt(stmt, lambda repl, b=block, j=i:
                       b.statements.__setitem__(j, repl))

    def visit_stmt(stmt: ast.Stmt, replace) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            visit_block(stmt)
        elif isinstance(stmt, ast.IfStmt):
            edits.append(lambda: replace(stmt.then_branch))
            if stmt.else_branch is not None:
                edits.append(lambda: replace(stmt.else_branch))
                edits.append(lambda: setattr(stmt, "else_branch", None))
            visit_stmt(stmt.then_branch, lambda r: setattr(stmt, "then_branch", r))
            if stmt.else_branch is not None:
                visit_stmt(stmt.else_branch, lambda r: setattr(stmt, "else_branch", r))
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
            edits.append(lambda: replace(stmt.body))
            visit_stmt(stmt.body, lambda r: setattr(stmt, "body", r))

    visit_block(body)
    return edits


# ----------------------------------------------------------------------
# Expression edits
# ----------------------------------------------------------------------
_MAX_REPLACEMENTS = 6


def _replacements(expr: ast.Expr) -> List[Optional[ast.Expr]]:
    """Candidate replacements for one expression site, simplest first.
    ``None`` entries pad the list; enumeration stops at the first None."""
    out: List[ast.Expr] = []
    if not isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.BoolLiteral)):
        # Try plain literals: the parser/typechecker will reject the
        # ill-typed ones via the still-fails predicate.
        out.append(ast.FloatLiteral(value=1.0))
        out.append(ast.FloatLiteral(value=0.0))
        out.append(ast.IntLiteral(value=0))
        out.append(ast.BoolLiteral(value=True))
    if isinstance(expr, ast.BinaryOp):
        out.extend([expr.left, expr.right])
    elif isinstance(expr, ast.UnaryOp):
        out.append(expr.operand)
    elif isinstance(expr, ast.Conditional):
        out.extend([expr.if_true, expr.if_false])
    elif isinstance(expr, ast.Call) and len(expr.args) == 1:
        out.append(expr.args[0])
    elif isinstance(expr, (ast.FieldAccess, ast.IndexAccess)):
        out.append(expr.base)
    return out[:_MAX_REPLACEMENTS]


def _expr_slots(node) -> List:
    """(owner, attribute, current expr) triples for each direct child
    expression of an AST node, excluding assignment targets (rewriting
    those rarely keeps programs well-formed)."""
    slots = []

    def add(owner, attr):
        child = getattr(owner, attr, None)
        if isinstance(child, ast.Expr):
            slots.append((owner, attr))

    if isinstance(node, ast.ExprStmt):
        add(node, "expr")
    elif isinstance(node, ast.DeclStmt):
        for declarator in node.declarators:
            add(declarator, "initializer")
    elif isinstance(node, ast.IfStmt):
        add(node, "condition")
    elif isinstance(node, ast.ForStmt):
        add(node, "condition")
        add(node, "update")
    elif isinstance(node, (ast.WhileStmt, ast.DoWhileStmt)):
        add(node, "condition")
    elif isinstance(node, ast.ReturnStmt):
        add(node, "value")
    elif isinstance(node, ast.Assignment):
        add(node, "value")
    elif isinstance(node, ast.BinaryOp):
        add(node, "left")
        add(node, "right")
    elif isinstance(node, ast.UnaryOp):
        add(node, "operand")
    elif isinstance(node, (ast.PrefixIncDec, ast.PostfixIncDec)):
        pass  # operand must stay an l-value
    elif isinstance(node, ast.Conditional):
        add(node, "condition")
        add(node, "if_true")
        add(node, "if_false")
    elif isinstance(node, ast.Call):
        for i in range(len(node.args)):
            slots.append((node.args, i))
    elif isinstance(node, (ast.FieldAccess, ast.IndexAccess)):
        add(node, "base")
        if isinstance(node, ast.IndexAccess):
            add(node, "index")
    elif isinstance(node, ast.CommaExpr):
        add(node, "left")
        add(node, "right")
    return slots


def _get_slot(owner, key):
    if isinstance(key, int):
        return owner[key]
    return getattr(owner, key)


def _set_slot(owner, key, value):
    if isinstance(key, int):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _walk_expr_sites(body: ast.CompoundStmt):
    """Yield (owner, key) for every expression slot, in pre-order,
    recursing into sub-expressions and nested statements."""

    def visit_expr_children(expr: ast.Expr):
        for owner, key in _expr_slots(expr):
            yield (owner, key)
            yield from visit_expr_children(_get_slot(owner, key))

    def visit_stmt(stmt: ast.Stmt):
        for owner, key in _expr_slots(stmt):
            yield (owner, key)
            yield from visit_expr_children(_get_slot(owner, key))
        if isinstance(stmt, ast.CompoundStmt):
            for inner in stmt.statements:
                yield from visit_stmt(inner)
        elif isinstance(stmt, ast.IfStmt):
            yield from visit_stmt(stmt.then_branch)
            if stmt.else_branch is not None:
                yield from visit_stmt(stmt.else_branch)
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
            if isinstance(stmt, ast.ForStmt) and stmt.init is not None:
                yield from visit_stmt(stmt.init)
            yield from visit_stmt(stmt.body)

    yield from visit_stmt(body)


def _count_expr_sites(body: ast.CompoundStmt) -> int:
    return sum(1 for __ in _walk_expr_sites(body))


def _apply_expr_edit(
    body: ast.CompoundStmt, cursor: List[int], replacement_index: int
) -> bool:
    """Apply the Nth replacement at the site-th expression slot.
    Returns False when the site has fewer replacement options."""
    for i, (owner, key) in enumerate(_walk_expr_sites(body)):
        if i == cursor[0]:
            options = _replacements(_get_slot(owner, key))
            if replacement_index >= len(options):
                return False
            replacement = options[replacement_index]
            if replacement is None:
                return False
            _set_slot(owner, key, copy.deepcopy(replacement))
            return True
    return False
